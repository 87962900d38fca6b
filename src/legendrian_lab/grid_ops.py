"""Global differential operators on doubly periodic grid surfaces.

Built on per-node extrinsic data, this module provides the
normal-bundle connection Laplacian, the rough and Hodge Laplacians on
one-forms, metric divergence, and the residuals/integrals that certify
the structure identities of Legendrian surface geometry in S^5.

Sign conventions, fixed once: the scalar and rough Laplacians have
negative spectrum (Delta cos = -lambda cos); the Hodge Laplacian
delta d + d delta has positive spectrum; on a surface the two are
related on one-forms by Delta_h theta = -Delta theta + K theta.
The mean curvature vector is H = (1/2) g^{ij} B_ij.

Grid field shapes: scalars (N, N), one-forms (N, N, 2) in the (du, dv)
coframe, ambient/normal vector fields (N, N, 6).  Sums over the 2- and
3-long frame indices are written out term by term over (N, N) slices,
never as per-point contractions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import contact, extrinsic, grids
from .contact import dot, j_apply
from .immersions import GridSurface
from .report import Report

NORMAL_FIELD_TOL = 1e-8
KER_ALPHA_TOL = 1e-8
JH_TANGENCY_ABORT = 1e-3


@dataclass(frozen=True)
class DerivedGeometry:
    """Per-node frames, curvature data and metric derivatives of a grid; it holds no d_ij x."""

    surface: GridSurface
    frame: extrinsic.AdaptedFrame
    data: extrinsic.ExtrinsicData

    @functools.cached_property
    def dg(self):
        """dg[m, i, j] = D_m g_ij (N, N, 2, 2, 2) of g_00, g_01, g_11 once; D_m g_10 = D_m g_01."""
        g = self.data.g
        g3 = np.stack([g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]], -1)  # contiguous: same GEMM bits
        d = np.stack([self.d(g3, 0), self.d(g3, 1)], -2)
        return d[..., [0, 1, 1, 2]].reshape(d.shape[:-1] + (2, 2))

    @functools.cached_property
    def gamma(self):
        """Christoffel symbols (N, N, 2, 2, 2), gamma[k, i, j], built from dg on first read."""
        dg = self.dg
        # gamma[k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        t = dg + dg.transpose(0, 1, 3, 2, 4) - dg.transpose(0, 1, 3, 4, 2)
        ginv = self.data.ginv[..., None, None]  # summed over l in order, as 2x2 products
        return 0.5 * (ginv[..., 0, :, :] * t[..., None, :, :, 0]
                      + ginv[..., 1, :, :] * t[..., None, :, :, 1])

    @functools.cached_property
    def connection(self):
        """_frame_connection's tangential and normal table, taken once for both gradient routes."""
        return _frame_connection(self)

    @functools.cached_property
    def full_gradient_norms(self):
        """(|nabla B|^2, |nabla^nu H|^2) per point by the frame-free route, taken once."""
        return _full_gradient_norms(self)

    @functools.cached_property
    def gamma_trace(self):
        """Contracted Christoffel symbols Gamma^k = g^{ij} Gamma^k_ij (N, N, 2)."""
        gi, gam = self.data.ginv[..., None], self.gamma
        return (gi[..., 0, 0, :] * gam[..., 0, 0] + 2.0 * gi[..., 0, 1, :] * gam[..., 0, 1]
                + gi[..., 1, 1, :] * gam[..., 1, 1])

    @property
    def n(self):
        return self.surface.n

    @property
    def scheme(self):
        return self.surface.scheme

    def d(self, field, axis):
        return grids.deriv(field, axis, self.scheme)

    def d_frame(self, field):
        """(D_E1, D_E2) of field from one (D_u, D_v) pair, scaled in place; coeff is triangular.

        A strided field (a slice of Bhat or h) is copied to a contiguous array once, for both axes.
        """
        field = np.ascontiguousarray(field, dtype=float)
        du, dv = self.d(field, 0), self.d(field, 1)
        c = self.frame.coeff.reshape(self.frame.coeff.shape + (1,) * (field.ndim - 2))
        del field  # a copy is freed before the scaling's temporary
        dv *= c[:, :, 1, 1]
        dv += c[:, :, 1, 0] * du
        du *= c[:, :, 0, 0]
        return du, dv

    def check_legendrian(self, what="operation"):
        """Raise unless the frame is Legendrian, the one predicate of adapted_frame."""
        if not self.frame.legendrian:
            res = float(np.max(self.frame.legendrian_residual))
            raise ValueError(f"{what} requires a Legendrian grid surface: residual "
                             f"{res:.3e} > {extrinsic.LEGENDRIAN_FRAME_TOL:.1e}")


def _matvec(m, v):
    """m_ab v_b per point for 2x2 m and 2-vectors v, summed in b order."""
    return m[..., 0] * v[..., 0, None] + m[..., 1] * v[..., 1, None]


def derived_geometry(surface: GridSurface) -> DerivedGeometry:
    """Differentiate the grid once and assemble all pointwise data."""
    jet = surface.jets()
    frame = extrinsic.adapted_frame(jet)
    return DerivedGeometry(surface=surface, frame=frame, data=extrinsic.extrinsic_data(jet, frame))


def quadrature(f, geo: DerivedGeometry):
    """Integral of a grid scalar against the area measure, by grids.quadrature."""
    return grids.quadrature(f, geo.data.sqrt_det_g)


def divergence(w_contra, geo: DerivedGeometry):
    """Metric divergence of a tangential field given by contravariant components."""
    sg = geo.data.sqrt_det_g
    return (geo.d(sg * w_contra[..., 0], 0) + geo.d(sg * w_contra[..., 1], 1)) / sg


def intrinsic_gauss_curvature(geo: DerivedGeometry):
    """Gauss curvature from the metric alone (Brioschi formula), first derivatives from geo.dg."""
    g, dg, d = geo.data.g, geo.dg, geo.d
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    Eu, Fu, Gu = dg[..., 0, 0, 0], dg[..., 0, 0, 1], dg[..., 0, 1, 1]
    Ev, Fv, Gv = dg[..., 1, 0, 0], dg[..., 1, 0, 1], dg[..., 1, 1, 1]
    Evv, Guu, Fuv = d(Ev, 1), d(Gu, 0), d(Fu, 1)

    def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (
            a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31)
        )

    m1 = det3(
        -0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev,
        Fv - 0.5 * Gu, E, F,
        0.5 * Gv, F, G,
    )
    m2 = det3(
        np.zeros_like(E), 0.5 * Ev, 0.5 * Gu,
        0.5 * Ev, E, F,
        0.5 * Gu, F, G,
    )
    return (m1 - m2) / (E * G - F**2) ** 2


def check_normal_field(v, geo: DerivedGeometry, what="field"):
    dev = float(np.max(contact.norm(v - geo.frame.normal_part(v))))
    scale = max(1.0, float(np.max(contact.norm(v))))
    if not dev <= NORMAL_FIELD_TOL * scale:
        raise ValueError(f"{what} is not a normal field: deviation {dev:.3e}")


def covariant_derivative_normal(v, geo: DerivedGeometry):
    """nabla^nu_i V = P(D_i V), i = u, v: the normal projection P removes the p-term <x_i, V> p."""
    return [geo.frame.normal_part(geo.d(v, i)) for i in range(2)]


def _connection_laplacian(first, geo: DerivedGeometry, project):
    """P(g^{ij} D_i first_j) - Gamma^k first_k = g^{ij} (nabla_i nabla_j V - Gamma^k_ij nabla_k V).

    first = [nabla_u V, nabla_v V] lies in the bundle P = project maps onto.  P is linear and
    removes p, so g^{ij} P(D_i first_j + <x_i, first_j> p) is one projection of the sum.
    """
    ginv, gam = geo.data.ginv[..., None], geo.gamma_trace
    out = geo.d(first[0], 1)
    out += geo.d(first[1], 0)  # g^{01} = g^{10}: both orders at once
    out *= ginv[..., 0, 1, :]  # summed in place from the g^{01} term: X + Y rounds as Y + X
    out += ginv[..., 0, 0, :] * geo.d(first[0], 0)
    out += ginv[..., 1, 1, :] * geo.d(first[1], 1)
    out = project(out)
    out -= gam[..., 0, None] * first[0] + gam[..., 1, None] * first[1]
    return out


def normal_laplacian(v, geo: DerivedGeometry):
    """Normal-bundle Laplacian P(g^{ij} D_i nabla_j V) - Gamma^k nabla_k V, negative spectrum."""
    v = np.asarray(v, dtype=float)
    check_normal_field(v, geo, what="normal_laplacian input")
    return _connection_laplacian(covariant_derivative_normal(v, geo), geo, geo.frame.normal_part)


def div_JH(geo: DerivedGeometry):
    """Metric divergence of the tangential part of J0 H, on a Legendrian frame.

    J0 H is tangential on a Legendrian surface; on a grid the discarded
    non-tangential norm carries the scheme's error, and a ValueError is
    raised when it exceeds JH_TANGENCY_ABORT (an under-resolved grid).
    """
    geo.check_legendrian(what="div_JH")
    w, (du, dv) = j_apply(geo.data.Hvec), geo.surface.first_derivatives
    contra = _matvec(geo.data.ginv, np.stack([dot(w, du), dot(w, dv)], axis=-1))
    tangential = contra[..., 0, None] * du + contra[..., 1, None] * dv
    err = float(np.max(contact.norm(w - tangential)))
    if not err <= JH_TANGENCY_ABORT:
        raise ValueError(f"JH tangency error {err:.3e} exceeds {JH_TANGENCY_ABORT:.1e}")
    return divergence(contra, geo)


def el_residual(geo: DerivedGeometry):
    """Stationarity residual -Delta^nu H + K H as a normal field."""
    geo.check_legendrian(what="el_residual")
    h = geo.data.Hvec
    return -normal_laplacian(h, geo) + geo.data.K[..., None] * h


# ---------------------------------------------------------------------------
# One-form operators


def oneform_covariant_derivative(theta, geo: DerivedGeometry):
    """(nabla theta)_{ij} = d_i theta_j - Gamma^k_{ij} theta_k."""
    dtheta = np.stack([geo.d(theta, 0), geo.d(theta, 1)], axis=-2)
    gam = geo.gamma
    return dtheta - (gam[..., 0, :, :] * theta[..., 0, None, None]
                     + gam[..., 1, :, :] * theta[..., 1, None, None])


def oneform_rough_laplacian(theta, geo: DerivedGeometry):
    """Trace of the second covariant derivative; negative spectrum."""
    nth = oneform_covariant_derivative(theta, geo)
    gam, ginv, trace = geo.gamma, geo.data.ginv, geo.gamma_trace
    out = -(trace[..., 0, None] * nth[..., 0, :] + trace[..., 1, None] * nth[..., 1, :])
    for i in range(2):
        dn = geo.d(nth, i)
        for k in range(2):
            # d_i nth_{kj} - Gamma^l_{ij} nth_{kl}; out starts at -g^{ik} Gamma^l_{ik} nth_{lj}
            second = dn[..., k, :] - (gam[..., 0, i, :] * nth[..., k, 0, None]
                                      + gam[..., 1, i, :] * nth[..., k, 1, None])
            out = out + ginv[..., i, k, None] * second
    return out


def codifferential(theta, geo: DerivedGeometry):
    """delta theta = -(1/sqrt g) d_i (sqrt g g^{ij} theta_j)."""
    return -divergence(_matvec(geo.data.ginv, theta), geo)


def oneform_hodge_laplacian(theta, geo: DerivedGeometry):
    """(d delta + delta d) theta; positive spectrum."""
    sg = geo.data.sqrt_det_g
    dd = codifferential(theta, geo)
    d_delta = np.stack([geo.d(dd, 0), geo.d(dd, 1)], axis=-1)
    curl = geo.d(theta[..., 1], 0) - geo.d(theta[..., 0], 1)
    s = curl / sg
    t_up = np.stack([geo.d(s, 1), -geo.d(s, 0)], axis=-1)
    delta_d = _matvec(geo.data.g, t_up) / sg[..., None]
    return d_delta + delta_d


def oneform_norm(theta, geo: DerivedGeometry):
    """Pointwise metric norm of a one-form."""
    up = _matvec(geo.data.ginv, theta)
    return np.sqrt(theta[..., 0] * up[..., 0] + theta[..., 1] * up[..., 1])


def oneform_laplacians(theta, geo: DerivedGeometry):
    """Rough and Hodge Laplacians plus the Weitzenboeck residual field.

    The residual is the pointwise metric norm of
    Delta_h theta + Delta theta - K theta, which vanishes on surfaces by
    the Weitzenboeck identity (curvature term K theta).
    """
    theta = np.asarray(theta, dtype=float)
    rough = oneform_rough_laplacian(theta, geo)
    hodge = oneform_hodge_laplacian(theta, geo)
    resid = hodge + rough - geo.data.K[..., None] * theta
    return rough, hodge, oneform_norm(resid, geo)


# ---------------------------------------------------------------------------
# Legendrian-specific residual operators


def omega_contraction(v, geo: DerivedGeometry):
    """One-form X -> <V, J0 X> in the coordinate coframe."""
    return np.stack([dot(v, j_apply(dx)) for dx in geo.surface.first_derivatives], axis=-1)


def ker_alpha_normal_field(geo: DerivedGeometry, c1, c2):
    """Normal field in ker(alpha) with coefficients along (J E1, J E2).

    Alternating projections push the raw combination onto the strict
    NL intersect ker(alpha) contract (discrete frames are normal only to
    scheme accuracy on perturbed grids).
    """
    r = j_apply(geo.frame.p)
    v = (np.asarray(c1)[..., None] * j_apply(geo.frame.E1)
         + np.asarray(c2)[..., None] * j_apply(geo.frame.E2))
    for _ in range(3):
        v = geo.frame.normal_part(v)
        v = v - contact.contact_form(geo.frame.p, v)[..., None] * r
    return geo.frame.normal_part(v)


def omega_commutation_residual(v, geo: DerivedGeometry):
    """Residual form of the commutation Delta(omega~ V) = omega~(Delta^nu V).

    V must be a normal field with alpha(V) ~ 0.  The connection Laplacian
    on the right is the one of the subbundle NL intersect ker(alpha): the
    covariant derivative is projected back into ker(alpha) at each level
    (the contraction omega~ annihilates Reeb components, so this is the
    connection the isomorphism intertwines with the induced one on forms;
    with the unprojected connection the identity provably fails, e.g. for
    the constant-coefficient field J E2 on the flat torus).
    """
    v = np.asarray(v, dtype=float)
    check_normal_field(v, geo, what="omega_commutation input")
    alpha_v = contact.contact_form(geo.frame.p, v)
    scale = max(1.0, float(np.max(contact.norm(v))))
    if not float(np.max(np.abs(alpha_v))) <= KER_ALPHA_TOL * scale:
        raise ValueError("omega_commutation input must lie in ker(alpha)")
    theta = omega_contraction(v, geo)
    lhs = oneform_rough_laplacian(theta, geo)

    r = j_apply(geo.frame.p)
    proj_ker = lambda w: w - dot(w, r)[..., None] * r
    first = [proj_ker(w) for w in covariant_derivative_normal(v, geo)]
    lap = _connection_laplacian(first, geo, lambda w: proj_ker(geo.frame.normal_part(w)))
    lhs -= omega_contraction(lap, geo)
    return lhs


def reeb_pairing_residual(geo: DerivedGeometry):
    """<Delta^nu H, R> - 2 div(J0 H): zero for every Legendrian surface.

    This is the operator identity behind the equivalence of the
    stationarity conditions; it holds without assuming stationarity.
    """
    geo.check_legendrian(what="reeb_pairing_residual")
    lap = normal_laplacian(geo.data.Hvec, geo)
    pairing = dot(lap, j_apply(geo.frame.p))
    return pairing - 2.0 * div_JH(geo)


def mean_curvature_form_closedness(geo: DerivedGeometry):
    """d(theta_H) component d_u theta_v - d_v theta_u for theta_H = <H, J0 .>."""
    geo.check_legendrian(what="mean_curvature_form_closedness")
    theta = omega_contraction(geo.data.Hvec, geo)
    return geo.d(theta[..., 1], 0) - geo.d(theta[..., 0], 1)


# ---------------------------------------------------------------------------
# Covariant derivative norms of the second fundamental form


@dataclass(frozen=True)
class GradientNorms:
    """Squared covariant-derivative norms and decomposition residuals.

    full_h2 and full_H2 differentiate the slices of Bhat and project
    (frame-free); tangential_h2 and tangential_H2 are assembled from frame
    components with the one connection table of _frame_connection, which
    serves the tangent and the normal frame alike.  The two identities
    relate them pointwise on Legendrian surfaces:
    full_h2 = tangential_h2 + S and full_H2 = tangential_H2 + H^2.
    """

    full_h2: np.ndarray
    tangential_h2: np.ndarray
    full_H2: np.ndarray
    tangential_H2: np.ndarray
    residual_h: np.ndarray
    residual_H: np.ndarray
    li_margin: np.ndarray

    @property
    def residual_h_max(self):
        return float(np.max(np.abs(self.residual_h)))

    @property
    def residual_H_max(self):
        return float(np.max(np.abs(self.residual_H)))

    @property
    def li_margin_min(self):
        return float(np.min(self.li_margin))


def _frame_connection(geo: DerivedGeometry):
    """c[k][a][b] = <D_k E_a, F_b> for F = (E1, E2, p), as nested lists of (N, N) fields.

    A Legendrian frame's normals are J0 F, J0 constant and orthogonal, so
    <D_k N_a, N_b> = <D_k E_a, F_b>: one table is the tangential (b < 2) and
    the normal connection.  Each derivative pair is dropped before the next.
    """
    f = geo.frame
    rows = [[[dot(de, fb) for fb in (f.E1, f.E2, f.p)] for de in geo.d_frame(e)]
            for e in (f.E1, f.E2)]
    return [[rows[a][k] for a in range(2)] for k in range(2)]


# Bhat and h are symmetric in their tangent indices: sums take (0, 1) once, counted twice;
# _full_gradient_norms needs (0, 0) before (1, 1), and holds the least with them adjacent
_SYMMETRIC_PAIRS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, 2.0))


def _full_gradient_norms(geo: DerivedGeometry):
    """Frame-free |nabla B|^2 and |nabla^nu H|^2 from one derivative pair per Bhat slice.

    For a = b the two connection sums of nabla_k Bhat_ab are one.  As H = (1/2) tr Bhat and
    P is linear, nabla^nu_k H = (1/2) (P(D_k Bhat_11) + P(D_k Bhat_22)): the diagonal slices
    come first, and each derivative is dropped once projected, which makes room for the traces.
    """
    bhat, conn = geo.data.Bhat, geo.connection
    full_h2, full_H2 = np.zeros((geo.n, geo.n)), np.zeros((geo.n, geo.n))
    traces = []  # P(D_k Bhat_11), k = 0, 1, each until P(D_k Bhat_22) is added
    for a, b, count in _SYMMETRIC_PAIRS:
        pair = list(geo.d_frame(bhat[..., a, b, :]))
        for k in range(2):
            ca, cb = conn[k][a], conn[k][b]
            w, pair[k] = geo.frame.normal_part(pair[k]), None
            if a == b == 0:
                traces.append(w.copy())
            elif a == b:
                trace = traces.pop(0) + w  # 2 nabla^nu_k H
                full_H2 += 0.25 * dot(trace, trace)
            s = ca[0][..., None] * bhat[..., 0, b, :]
            s += ca[1][..., None] * bhat[..., 1, b, :]
            w -= s
            if a != b:
                np.multiply(cb[0][..., None], bhat[..., a, 0, :], out=s)
                s += cb[1][..., None] * bhat[..., a, 1, :]
            w -= s
            full_h2 += count * dot(w, w)
            del w, s  # freed before the next projection and the next slice's pair
    return full_h2, full_H2


def gradient_norm_decomposition(geo: DerivedGeometry) -> GradientNorms:
    """The geometry's frame-free norms against the frame-component route, which only it takes."""
    geo.check_legendrian(what="gradient_norm_decomposition")
    full_h2, full_H2 = geo.full_gradient_norms
    conn, h, hcomp = geo.connection, geo.data.h, geo.data.Hcomp
    tangential_H2 = np.zeros_like(full_H2)
    tangential_h2 = np.zeros_like(full_h2)
    for k, dh in enumerate(geo.d_frame(h[..., :2, :, :])):
        c = conn[k]
        for b in range(2):  # D_k H^b = (1/2) tr D_k h^b: H^b is linear in h^b
            tangential_H2 += (0.5 * (dh[..., b, 0, 0] + dh[..., b, 1, 1])
                              - (c[b][0] * hcomp[..., 0] + c[b][1] * hcomp[..., 1]
                                 + c[b][2] * hcomp[..., 2]))**2
            for i, j, count in _SYMMETRIC_PAIRS:
                habk = (dh[..., b, i, j]
                        - (c[b][0] * h[..., 0, i, j] + c[b][1] * h[..., 1, i, j]
                           + c[b][2] * h[..., 2, i, j])
                        - (c[i][0] * h[..., b, 0, j] + c[i][1] * h[..., b, 1, j])
                        - (c[j][0] * h[..., b, i, 0] + c[j][1] * h[..., b, i, 1]))
                tangential_h2 += count * habk**2

    return GradientNorms(
        full_h2=full_h2,
        tangential_h2=tangential_h2,
        full_H2=full_H2,
        tangential_H2=tangential_H2,
        residual_h=full_h2 - tangential_h2 - geo.data.S,
        residual_H=full_H2 - tangential_H2 - geo.data.H2,
        li_margin=tangential_h2 - 3.0 * tangential_H2,
    )


# ---------------------------------------------------------------------------
# Integral report


def surface_integrals(geo: DerivedGeometry) -> Report:
    """Area, Willmore energy, comparison integrals, E and Sigma_Simons: the flow's certificate.

    E and Sigma_Simons read the frame-free gradient norms and det_sum; they
    are None, not failures, off a Legendrian frame (the legendrian key).
    """
    d = geo.data
    rep = Report()
    rep.set("area", quadrature(1.0, geo))
    rep.set("W", quadrature(d.rho2, geo))
    rep.set("I1", quadrature(1.5 * d.rho2 * (2.0 - d.S) + 2.0 * d.H2 * d.rho2 + 2.0 * d.H2, geo))
    rep.set("I2", quadrature((d.rho2 + 0.5 * d.S) * (2.0 - d.S), geo))
    rep.set("I3", quadrature(d.S * (2.0 - d.S), geo))
    rep.set("I4", quadrature(d.S * (2.0 - 1.5 * d.S), geo))
    rep.set("I5", quadrature(d.rho2 * (2.0 - d.rho2), geo))
    rep.set("I6", quadrature(d.rho2 * (2.0 - 1.5 * d.rho2), geo))
    rep.set("legendrian_residual", float(np.max(geo.frame.legendrian_residual)))
    rep.set("legendrian", geo.frame.legendrian)
    if not geo.frame.legendrian:
        return rep.set("E", None).set("Sigma_Simons", None)
    full_h2, full_H2 = geo.full_gradient_norms
    simons = full_h2 - 4.0 * full_H2 + 2.0 * d.K * d.rho2 - 2.0 * d.det_sum**2
    rep.set("E", quadrature(full_H2, geo) + quadrature(d.K * d.H2, geo))
    rep.set("Sigma_Simons", quadrature(simons, geo))
    return rep


def integral_report(geo: DerivedGeometry) -> Report:
    """The `integrals` report: surface_integrals plus gradient_norm_decomposition's diagnostics."""
    rep = surface_integrals(geo)
    norms = gradient_norm_decomposition(geo) if geo.frame.legendrian else None
    rep.set("grad_h_decomposition_res", norms and norms.residual_h_max)
    rep.set("grad_H_decomposition_res", norms and norms.residual_H_max)
    rep.set("li_margin_min", norms and norms.li_margin_min)
    return rep
