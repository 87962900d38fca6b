"""Pointwise extrinsic geometry of surfaces in S^5.

From a 2-jet this module builds the adapted frame, the induced metric,
the second fundamental form in flat (orthonormal-frame) indices, the
mean curvature vector H = (1/2) g^{ij} B_ij, the squared norms
S = |B|^2 and rho^2 = S - 2H^2, and the Gauss curvature via
2K = 2 + 4H^2 - S.

The second fundamental form uses the round-sphere correction
B_ij = (d^2 L_ij + g_ij p) minus its tangential part, which removes the
radial component exactly.  adapted_frame decides once whether the
surface is Legendrian: its flag, max |alpha(d_i)| <= LEGENDRIAN_FRAME_TOL
over the batch, is the one predicate every Legendrian-only operator
reads.  Only a Legendrian frame has a normal frame, the paper's
(J E1, J E2, R), and with it the components h^c_ab = <B_ab, N_c>;
S, H^2, rho^2 and K are frame-free.  Everything broadcasts over leading
batch axes.

The metric, the Legendrian residual, B and H are built eagerly (every reader
of a geometry reads B, through S or K), so no second derivative outlives the
build; h, S, rho^2, K and det_sum on first read.  H = (1/2) (Bhat_11 + Bhat_22),
half B's trace in flat indices, takes no normal frame and no projection of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import contact
from .contact import dot, j_apply, norm
from .immersions import Jet2, first_fundamental_form

LEGENDRIAN_FRAME_TOL = 1e-8
GRAM_DET_TOL = 1e-12


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal tangent pair (E1, E2); on a Legendrian frame also (J E1, J E2, R).

    coeff maps orthonormal to coordinate tangents: E_a = coeff[..., a, i] d_i
    with the Gram-Schmidt order fixed (du first).  coeff must stay triangular,
    coeff[..., 0, 1] == 0: DerivedGeometry.d_frame takes D_E1 from D_u alone.
    legendrian is one flag for the whole batch so grid frames stay smooth, set
    from the pointwise max |alpha(d_i)| of legendrian_residual(), which the
    flow reads too.  normal_part needs no normal frame; normals() refuses a
    non-Legendrian frame.
    """

    E1: np.ndarray
    E2: np.ndarray
    coeff: np.ndarray
    legendrian: bool
    p: np.ndarray
    legendrian_residual: np.ndarray

    def normals(self):
        """(J E1, J E2, R), the normal frame of a Legendrian surface."""
        if not self.legendrian:
            raise ValueError("the normal frame (J E1, J E2, R) requires a Legendrian frame: "
                             f"max |alpha(d_i)| = {np.max(self.legendrian_residual):.3e}")
        return j_apply(self.E1), j_apply(self.E2), j_apply(self.p)

    def normal_part(self, w):
        """w off E1, E2, then off p (which also drops the radial part of FD jets), in one copy."""
        w = np.array(w, dtype=float)
        for e in (self.E1, self.E2, self.p):
            w -= dot(w, e)[..., None] * e
        return w

    def orthonormality_residual(self):
        """Max |<a, b> - delta_ab| and |<a, p>| over E1, E2 and any normal frame."""
        vecs = [self.E1, self.E2, *(self.normals() if self.legendrian else ())]
        worst = 0.0
        for i, a in enumerate(vecs):
            worst = max(worst, float(np.max(np.abs(dot(a, self.p)))))
            for k, b in enumerate(vecs[i:], i):  # <a, b> = <b, a> bit for bit: each pair once
                g = dot(a, b) - (1.0 if i == k else 0.0)
                worst = max(worst, float(np.max(np.abs(g))))
        return worst


def legendrian_residual(p, du, dv):
    """(alpha(du), alpha(dv)) at p: the one Legendrian residual of the frame, flow and CLI."""
    return tuple(contact.contact_form(p, x) for x in (du, dv))


def adapted_frame(jet: Jet2) -> AdaptedFrame:
    """Gram-Schmidt tangent frame and the batch's Legendrian flag.

    legendrian is set when the whole batch has max |alpha(d_i)| <=
    LEGENDRIAN_FRAME_TOL (read at call time; a NaN residual fails it);
    it gives the frame its normals (J E1, J E2, R) and gates every
    Legendrian-only operator.  Batches are not mixed.
    """
    p = jet.value
    # discrete jets carry an O(scheme) radial part; remove it so the full
    # five-frame is orthogonal to the position at working precision
    xu = jet.du - dot(jet.du, p)[..., None] * p
    xv = jet.dv - dot(jet.dv, p)[..., None] * p
    g11, g12, g22, gram = first_fundamental_form(xu, xv)
    check_induced_metric(gram)

    n1 = np.sqrt(g11)
    e1 = xu / n1[..., None]
    w = xv - dot(xv, e1)[..., None] * e1
    n2 = norm(w)
    e2 = w / n2[..., None]
    # E1 = c11 du; E2 = c21 du + c22 dv
    c11 = 1.0 / n1
    c22 = 1.0 / n2
    c21 = -(g12 / g11) * c22
    coeff = np.zeros(p.shape[:-1] + (2, 2))
    coeff[..., 0, 0] = c11
    coeff[..., 1, 0] = c21
    coeff[..., 1, 1] = c22

    au, av = legendrian_residual(p, jet.du, jet.dv)
    res = np.maximum(np.abs(au), np.abs(av))
    return AdaptedFrame(E1=e1, E2=e2, coeff=coeff, p=p, legendrian_residual=res,
                        legendrian=bool(np.max(res) <= LEGENDRIAN_FRAME_TOL))


@dataclass(frozen=True)
class ExtrinsicData:
    """Induced metric and curvature data (batched): fields eager, properties on first read."""

    g: np.ndarray            # (..., 2, 2)
    ginv: np.ndarray         # (..., 2, 2)
    sqrt_det_g: np.ndarray   # (...,)
    Hvec: np.ndarray         # (..., 6)
    Bhat: np.ndarray         # (..., 2, 2, 6) normal-valued second fundamental form, flat indices
    frame: AdaptedFrame

    @cached_property
    def h(self):
        """(..., 3, 2, 2) <Bhat_ab, N_c>; raises through normals() off a Legendrian frame.

        Only the 9 contractions with a <= b are taken: an adapted frame's coeff is
        triangular, so Bhat_10 and Bhat_01 are equal bit for bit, and h^c_10 is a copy.
        """
        h = np.empty(self.Bhat.shape[:-3] + (3, 2, 2))
        for c, n in enumerate(self.frame.normals()):
            for a, b in ((0, 0), (0, 1), (1, 1)):
                h[..., c, a, b] = dot(self.Bhat[..., a, b, :], n)
        h[..., 1, 0] = h[..., 0, 1]
        return h

    Hcomp = cached_property(lambda self: 0.5 * (self.h[..., 0, 0] + self.h[..., 1, 1]))
    S = cached_property(lambda self: np.einsum("...abk,...abk->...", self.Bhat, self.Bhat))
    H2 = cached_property(lambda self: dot(self.Hvec, self.Hvec))
    rho2 = cached_property(lambda self: self.S - 2.0 * self.H2)
    K = cached_property(lambda self: 0.5 * (2.0 + 4.0 * self.H2 - self.S))
    det_sum = cached_property(lambda self: (  # det h^1 + det h^2, read by the Simons identity
        self.h[..., 0, 0, 0] * self.h[..., 0, 1, 1] - self.h[..., 0, 0, 1] ** 2
        + (self.h[..., 1, 0, 0] * self.h[..., 1, 1, 1] - self.h[..., 1, 0, 1] ** 2)))


def check_induced_metric(det):
    """Raise unless det g >= GRAM_DET_TOL everywhere (a NaN fails)."""
    if not np.min(det) >= GRAM_DET_TOL:
        raise ValueError(f"degenerate or non-finite induced metric: det g = {np.min(det):.3e}")


def extrinsic_data(jet: Jet2, frame: AdaptedFrame) -> ExtrinsicData:
    """Metric, Bhat and H = (1/2) tr Bhat; the rest on first read.

    B_ij = P_nu(d_ij x + g_ij p), P_nu = frame.normal_part, so no normal
    frame is built.  Bhat_ab = c_ai c_bj B_ij is summed one coordinate B_ij
    at a time, so the build holds one B_ij; each Bhat_ab is summed in its
    own contiguous (..., 6) array, and the four are stacked once.  ginv,
    from the raw jets, differs from the inverse metric c^T c of the
    tangential parts of d_i x by the O(scheme) radial part of FD jets.
    """
    E, F, G, det = first_fundamental_form(jet.du, jet.dv)
    check_induced_metric(det)
    g = np.stack([np.stack([E, F], axis=-1), np.stack([F, G], axis=-1)], axis=-2)
    ginv = np.stack([np.stack([G, -F], axis=-1), np.stack([-F, E], axis=-1)], axis=-2)
    ginv /= det[..., None, None]
    del E, F, G  # freed before Bhat's stack, which holds the four sums and their copy at once

    c, p = frame.coeff, jet.value
    # Bhat_ab = sum_ij (c_ai c_bj) B_ij, each sum in (i, j) order; B_10 = B_01
    acc = [np.zeros(p.shape) for _ in range(4)]  # Bhat_00, Bhat_01, Bhat_10, Bhat_11
    for i, j, d2 in ((0, 0, jet.duu), (0, 1, jet.duv), (1, 1, jet.dvv)):
        bij = frame.normal_part(d2 + g[..., i, j, None] * p)  # coordinate B_ij
        for k, m in dict.fromkeys([(i, j), (j, i)]):
            for ab, (a, b) in enumerate(np.ndindex(2, 2)):
                acc[ab] += (c[..., a, k] * c[..., b, m])[..., None] * bij
        del bij  # freed before the next B_ij is built
    Bhat = np.stack(acc, axis=-2).reshape(p.shape[:-1] + (2, 2, 6))
    del acc
    Hvec = 0.5 * (Bhat[..., 0, 0, :] + Bhat[..., 1, 1, :])
    return ExtrinsicData(g, ginv, np.sqrt(det), Hvec, Bhat, frame)


@dataclass(frozen=True)
class IdentityResiduals:
    """Pointwise structure-equation residuals (maxima over the batch)."""

    h3_max: float | None      # None for non-Legendrian frames, which have no h
    sym3_max: float | None    # None for non-Legendrian frames
    gauss_identity_max: float


def pointwise_identity_residuals(data: ExtrinsicData) -> IdentityResiduals:
    """Gauss-identity residual; on a Legendrian frame also Reeb-component and symmetry.

    On a Legendrian frame h^3 = 0 and h^c_ab = h^a_cb = h^b_ac, whose
    (a, b) swap is the symmetry of B.
    """
    gauss = float(np.max(np.abs(2.0 * data.K - 2.0 - 4.0 * data.H2 + data.S)))
    if not data.frame.legendrian:
        return IdentityResiduals(None, None, gauss)
    h = data.h
    h3_max = float(np.max(np.abs(h[..., 2, :, :])))
    t = h[..., :2, :, :]  # t[c, a, b] = h^c_ab for c in {1, 2}
    sym3 = 0.0
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        axes = tuple(-3 + perm.index(k) for k in range(3))
        tp = np.moveaxis(t, (-3, -2, -1), axes)
        sym3 = max(sym3, float(np.max(np.abs(tp - t))))
    return IdentityResiduals(h3_max=h3_max, sym3_max=sym3, gauss_identity_max=gauss)
