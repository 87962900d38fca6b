"""Parametrized surfaces in S^5: closed-form catalog, grid sampling, perturbations.

The catalog provides four closed-form immersions with analytic 2-jets:

* ``legendrian_torus(theta)`` -- the flat Legendrian minimal torus
  (1/sqrt3)(e^{iu}, e^{iv}, e^{i(theta-u-v)}); doubly periodic.
* ``equatorial_legendrian_sphere`` -- a chart of the real unit 2-sphere
  {x in R^3 subset C^3}, totally geodesic and Legendrian.
* ``clifford_s3`` -- (1/sqrt2)(e^{iu}, e^{iv}, 0): minimal, flat, S = 2,
  and certifiably non-Legendrian (alpha(du) = 1/2).
* ``veronese_s4`` -- the quadratic sphere immersion S^2(sqrt3) -> S^4,
  embedded in S^5 through the totally geodesic hyperplane y3 = 0.

The two flat tori are monomial, z_k = r_k e^{i(c_k + a_k u + b_k v)}, and
share one 2-jet rule.  The catalog is one table by name.

Doubly periodic immersions can be resampled to ``GridSurface`` objects,
which carry positions plus a differentiation scheme and are the inputs
to every global operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import contact, grids

SQRT3 = np.sqrt(3.0)

ANGLE_BRANCH_LIMIT = 0.75 * np.pi  # largest |arg(-minor)| a LegendrianGraph's angle is read at


@dataclass(frozen=True)
class Jet2:
    """Position and first/second parameter derivatives at parameter points.

    All arrays share a leading batch shape and end in a length-6 axis.
    """

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray

    def validate(self):
        contact.check_sphere(self.value, 1e-10, what="jet value")
        tu = np.max(np.abs(contact.dot(self.du, self.value)))
        tv = np.max(np.abs(contact.dot(self.dv, self.value)))
        if not np.maximum(tu, tv) <= 1e-8:  # np.maximum keeps a NaN, max() may drop it
            raise ValueError(f"jet first derivatives not sphere-tangent: {np.maximum(tu, tv):.3e}")
        return self


@dataclass(frozen=True)
class Immersion:
    name: str
    evaluator: Callable[[np.ndarray, np.ndarray], Jet2]
    periodic: tuple[bool, bool]
    domain: tuple[tuple[float, float], tuple[float, float]]


def _stack6(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def _monomial_torus(r, a, b, c):
    """z_k = r_k e^{i(c_k + a_k u + b_k v)} in R^6, and d_u^p d_v^q z = z (i a)^p (i b)^q."""
    r, a, b, c = (np.asarray(x, dtype=float) for x in (r, a, b, c))
    ia, ib = 1j * a, 1j * b
    mults = (ia, ib, ia * ia, ia * ib, ib * ib)  # of du, dv, duu, duv, dvv

    def ev(u, v):
        z = r * np.exp(1j * (c + a * u[..., None] + b * v[..., None]))
        return Jet2(z.view(float), *((z * m).view(float) for m in mults))

    return ev


def _legendrian_torus(theta):
    """(1/sqrt3)(e^{iu}, e^{iv}, e^{i(theta-u-v)}), its phase summed as theta - u - v."""
    return _monomial_torus(np.full(3, 1.0 / SQRT3), (1.0, 0.0, -1.0), (0.0, 1.0, -1.0),
                           (0.0, 0.0, theta))


def _equatorial_sphere_jet(u, v):
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    z = np.zeros_like(u)
    val = _stack6(cu * cv, z, su * cv, z, sv, z)
    du = _stack6(-su * cv, z, cu * cv, z, z, z)
    dv = _stack6(-cu * sv, z, -su * sv, z, cv, z)
    duu = _stack6(-cu * cv, z, -su * cv, z, z, z)
    duv = _stack6(su * sv, z, -cu * sv, z, z, z)
    dvv = _stack6(-cu * cv, z, -su * cv, z, -sv, z)
    return Jet2(val, du, dv, duu, duv, dvv)


def _veronese_bilinear(a, b):
    """Symmetric bilinear map q with q(w, w) = the quadratic sphere immersion."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    c = 1.0 / (2.0 * SQRT3)
    u1 = c * (ay * bz + by * az)
    u2 = c * (ax * bz + bx * az)
    u3 = c * (ax * by + bx * ay)
    u4 = c * (ax * bx - ay * by)
    u5 = (ax * bx + ay * by - 2.0 * az * bz) / 6.0
    zero = np.zeros_like(u1)
    # image sits in the totally geodesic hyperplane y3 = 0
    return _stack6(u1, u2, u3, u4, u5, zero)


def _veronese_jet(u, v):
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    z = np.zeros_like(u)
    # spherical chart of S^2(sqrt3): v is the polar angle
    w = SQRT3 * np.stack(np.broadcast_arrays(sv * cu, sv * su, cv), axis=-1)
    wu = SQRT3 * np.stack(np.broadcast_arrays(-sv * su, sv * cu, z), axis=-1)
    wv = SQRT3 * np.stack(np.broadcast_arrays(cv * cu, cv * su, -sv), axis=-1)
    wuu = SQRT3 * np.stack(np.broadcast_arrays(-sv * cu, -sv * su, z), axis=-1)
    wuv = SQRT3 * np.stack(np.broadcast_arrays(-cv * su, cv * cu, z), axis=-1)
    wvv = SQRT3 * np.stack(np.broadcast_arrays(-sv * cu, -sv * su, -cv), axis=-1)
    q = _veronese_bilinear
    val = q(w, w)
    du = 2.0 * q(w, wu)
    dv = 2.0 * q(w, wv)
    duu = 2.0 * (q(wu, wu) + q(w, wuu))
    duv = 2.0 * (q(wu, wv) + q(w, wuv))
    dvv = 2.0 * (q(wv, wv) + q(w, wvv))
    return Jet2(val, du, dv, duu, duv, dvv)


TWO_PI = 2.0 * np.pi

_TORUS_DOMAIN = ((0.0, TWO_PI), (0.0, TWO_PI))
_CATALOG = {  # name: (evaluator, for legendrian_torus its maker of theta; periodic; domain)
    "legendrian_torus": (_legendrian_torus, (True, True), _TORUS_DOMAIN),
    "equatorial_legendrian_sphere": (_equatorial_sphere_jet, (True, False),
                                     ((0.0, TWO_PI), (-1.3, 1.3))),
    "clifford_s3": (_monomial_torus(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), (1.0, 0.0, 0.0),
                                    (0.0, 1.0, 0.0), np.zeros(3)), (True, True), _TORUS_DOMAIN),
    "veronese_s4": (_veronese_jet, (True, False), ((0.0, TWO_PI), (0.3, np.pi - 0.3))),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name, theta=0.0):
    """Closed-form immersion by name; theta applies to legendrian_torus only."""
    key = name.replace("-", "_")
    if key not in _CATALOG:
        raise ValueError(f"unknown catalog surface {name!r}; expected one of {CATALOG_NAMES}")
    evaluator, periodic, domain = _CATALOG[key]
    if key == "legendrian_torus":
        theta = float(theta) % TWO_PI
        key, evaluator = f"legendrian_torus(theta={theta:g})", evaluator(theta)
    return Immersion(key, evaluator, periodic, domain)


def _in_domain(q, lo, hi):
    return (q >= lo - 1e-12) & (q <= hi + 1e-12)


def eval_jet2(surface: Immersion, u, v) -> Jet2:
    """Evaluate the 2-jet, enforcing the domain on non-periodic axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    (u0, u1), (v0, v1) = surface.domain
    if not surface.periodic[0] and not np.all(_in_domain(u, u0, u1)):
        raise ValueError(f"u out of domain [{u0}, {u1}] for {surface.name}")
    if not surface.periodic[1] and not np.all(_in_domain(v, v0, v1)):
        raise ValueError(f"v out of domain [{v0}, {v1}] for {surface.name}")
    return surface.evaluator(u, v).validate()


@dataclass(frozen=True)
class GridSurface:
    """N x N doubly periodic sampling of an immersed torus in S^5.

    positions[a, b] is the point at (u_a, v_b) = (2pi a/N, 2pi b/N); the
    scheme fixes how jets and all downstream operators differentiate.
    """

    positions: np.ndarray
    scheme: str = "fd4"

    def __post_init__(self):
        grids.check_scheme(self.scheme)
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[0] != pos.shape[1] or pos.shape[2] != 6:
            raise ValueError(f"positions must be (N, N, 6), got {pos.shape}")
        n = pos.shape[0]
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 8, got {n}")
        contact.check_sphere(pos, what="grid positions")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n(self):
        return self.positions.shape[0]

    @functools.cached_property
    def first_derivatives(self):
        """(d_u x, d_v x), taken on first read and shared by jets() and the flow's area."""
        return tuple(grids.deriv(self.positions, axis, self.scheme) for axis in (0, 1))

    @functools.cached_property
    def metric(self):
        """(E, F, G, det g) of the cached first derivatives, built on first read."""
        return first_fundamental_form(*self.first_derivatives)

    @functools.cached_property
    def sqrt_det(self):
        """sqrt(det g), the area density of the cached metric, taken on first read."""
        return np.sqrt(self.metric[3])

    def jets(self) -> Jet2:
        p = self.positions
        s = self.scheme
        du, dv = self.first_derivatives
        return Jet2(
            value=p,
            du=du,
            dv=dv,
            duu=grids.deriv(p, 0, s, order=2),
            duv=grids.deriv(du, 1, s),  # composed first derivatives keep the order
            dvv=grids.deriv(p, 1, s, order=2),
        )


class LegendrianGraph(GridSurface):
    """The torus arg z3 = h - u - v over the grid (arg z1, arg z2) = (u, v).

    In the toric form alpha = sum_k rho_k d(arg z_k), rho_k = |z_k|^2
    (Lerman, J. Symplectic Geom. 1, 2003; Haskins, Amer. J. Math. 126,
    2004), alpha(x_u) = alpha(x_v) = 0 forces rho3 = 1/(3 - h_u - h_v),
    rho1 = (1 - h_u) rho3, rho2 = (1 - h_v) rho3: every Legendrian torus
    C^1-close to the flat one is such a graph, and h = theta is
    legendrian_torus(theta).  Positions and first derivatives come from h
    by the chain rule, so the graph is Legendrian to rounding in every scheme;
    the metric and the Lagrangian angle of the cone come from the same
    multipliers, so the flow reads its potential off them alone.
    """

    def __init__(self, h, scheme="fd4"):
        h = np.array(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"graph h must be (N, N), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("graph h is non-finite")
        hu, hv = (grids.deriv(h, axis, scheme) for axis in (0, 1))
        low = min(np.min(1.0 - hu), np.min(1.0 - hv))
        if not low > 0.0:
            raise ValueError(f"h is not a Legendrian graph: min(1 - h_u, 1 - h_v) = {low:.3e}")
        rho3 = 1.0 / (3.0 - hu - hv)
        uu, vv = grids.grid_nodes(h.shape[0])
        z = np.empty(h.shape + (3,), dtype=complex)
        z[..., 0] = np.sqrt((1.0 - hu) * rho3) * np.exp(1j * uu[:, :1])  # one phase per row
        z[..., 1] = np.sqrt((1.0 - hv) * rho3) * np.exp(1j * vv[:1])  # and per column
        z[..., 2] = np.sqrt(rho3) * np.exp(1j * (h - uu - vv))
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "rho3", rho3)
        object.__setattr__(self, "_dh", (hu, hv))
        super().__init__(positions=z.view(float), scheme=scheme)

    @functools.cached_property
    def _multipliers(self):
        """(m_u, m_v), m_i = d_i log rho / 2 + i d_i arg z componentwise, so z_i = z m_i."""
        s, h, rho3 = self.scheme, self.h, self.rho3
        hu, hv = self._dh
        a, b = 1.0 - hu, 1.0 - hv
        huu, hvv = (grids.deriv(h, axis, s, order=2) for axis in (0, 1))
        huv = grids.deriv(hu, 1, s)  # composed first derivatives, as jets() takes x_uv
        lu, lv = rho3 * (huu + huv), rho3 * (huv + hvv)  # d_u and d_v of log rho3
        mu = np.stack([0.5 * (lu - huu / a) + 1j, 0.5 * (lu - huv / b), 0.5 * lu - 1j * a], axis=-1)
        mv = np.stack([0.5 * (lv - huv / a), 0.5 * (lv - hvv / b) + 1j, 0.5 * lv - 1j * b], axis=-1)
        return mu, mv

    @functools.cached_property
    def first_derivatives(self):
        """x_i = z m_i componentwise, from h alone."""
        z = self.positions.view(complex)
        return tuple((z * m).view(float) for m in self._multipliers)

    @functools.cached_property
    def lagrangian_angle(self):
        """beta = arg det_C(z, z_u, z_v) = h + arg(-det[1; m_u; m_v]), the cone's Lagrangian angle.

        The columns of (z, z_u, z_v) are z_k (1, m_u[k], m_v[k]) and
        z1 z2 z3 = sqrt(rho1 rho2 rho3) e^{ih}, so the 3x3 minor is (N, N)
        complex arithmetic.  It is -3 on the flat torus and its argument
        nears pi only as min(1 - h_u, 1 - h_v) nears 0; past
        ANGLE_BRANCH_LIMIT a ValueError is raised, since the principal
        argument could then jump by 2 pi between neighbouring nodes.
        """
        (a1, a2, a3), (b1, b2, b3) = ([m[..., k] for k in range(3)] for m in self._multipliers)
        offset = np.angle((a1 * b3 - a3 * b1) - (a2 * b3 - a3 * b2) - (a1 * b2 - a2 * b1))
        worst = float(np.max(np.abs(offset)))
        if not worst <= ANGLE_BRANCH_LIMIT:
            raise ValueError(f"Lagrangian angle leaves its branch: max |arg(-minor)| = "
                             f"{worst:.3f} > {ANGLE_BRANCH_LIMIT:.3f}")
        return self.h + offset

    def jets(self) -> Jet2:
        """GridSurface.jets less the Reeb part of x_ij, which holds only the scheme's error.

        On a Legendrian surface <x_ij, J x> = d_j alpha(x_i) - <x_i, J x_j> = 0.
        """
        jet = super().jets()
        reeb = contact.j_apply(self.positions)

        def off_reeb(w):
            return w - contact.dot(w, reeb)[..., None] * reeb

        return replace(jet, duu=off_reeb(jet.duu), duv=off_reeb(jet.duv), dvv=off_reeb(jet.dvv))


def resample_to_grid(surface: Immersion, n, scheme="fd4") -> GridSurface:
    """Sample a doubly periodic immersion at the n x n grid nodes."""
    if not all(surface.periodic):
        raise ValueError(f"{surface.name} is not doubly periodic; grid operators need a torus")
    uu, vv = grids.grid_nodes(n)
    jet = surface.evaluator(uu, vv)
    return GridSurface(positions=jet.value.copy(), scheme=scheme)


# ---------------------------------------------------------------------------
# Induced metric and Legendrian variation field


def first_fundamental_form(xu, xv):
    """(E, F, G, EG - F^2) of the tangent pair (xu, xv)."""
    E = contact.dot(xu, xu)
    F = contact.dot(xu, xv)
    G = contact.dot(xv, xv)
    return E, F, G, E * G - F**2


def variation_field_on_positions(surface: GridSurface, f, df):
    """Legendrian variation V_f = f R + (1/2) J0 grad_g f, with alpha(V_f) = f.

    The metric is taken from the surface's (cached) first derivatives; df
    is (f_u, f_v), the caller's derivatives of f on this surface's grid.
    The 1/2 is forced by d(alpha) = 2 sum dx ^ dy: it is the unique
    scaling for which the deformation preserves alpha(d_i) = 0 to first
    order (the drift is quadratic in the displacement).
    """
    xu, xv = surface.first_derivatives
    g11, g12, g22, det = surface.metric
    fu, fv = df
    cu = (g22 * fu - g12 * fv) / det
    cv = (-g12 * fu + g11 * fv) / det
    grad = cu[..., None] * xu + cv[..., None] * xv
    return f[..., None] * contact.j_apply(surface.positions) + 0.5 * contact.j_apply(grad)


# ---------------------------------------------------------------------------
# Ambient contact-Hamiltonian perturbations (exactly Legendrian-preserving)


def expm(a):
    """Matrix exponential: scaling and squaring of a degree-18 Taylor polynomial."""
    squarings = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)
    x = np.ldexp(a, -squarings)  # 1-norm <= 1/2: the series tail is below 1e-22
    out = eye = np.eye(len(a))
    for k in range(18, 0, -1):  # Horner: I + x (I + x/2 (I + ...))
        out = eye + x @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


def _pair_quadratic(i, j, kind):
    """Symmetric matrix of Re(z_i z_j) or Im(z_i z_j) as a form on R^6."""
    xi, yi, xj, yj = np.eye(6)[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]]
    if kind == "re":  # x_i x_j - y_i y_j
        a = np.outer(xi, xj) - np.outer(yi, yj)
    else:  # x_i y_j + y_i x_j
        a = np.outer(xi, yj) + np.outer(yi, xj)
    return 0.5 * (a + a.T)


# Restricted to the torus, z_i z_j quadratics excite parameter waves
# e^{i(theta_i + theta_j)}: the mixed pairs hit the area-lowering saddle
# directions of the flat minimal torus (second-variation eigenvalue
# lambda = 2 < 6), while the squares z_k^2 excite only the even lattice
# (lambda >= 8), where the torus is a strict local minimum.
_STABLE_PAIRS = [(0, 0), (1, 1), (2, 2)]
_GENERIC_PAIRS = [(0, 1), (0, 2), (1, 2)]


@functools.lru_cache(maxsize=1)
def _hamiltonian_tables():
    """The 12 forms Re, Im z_i z_j (stable first) and the N = 32 torus that scales every draw.

    Read-only and built once per process (cached).
    """
    basis = tuple(grids.read_only(_pair_quadratic(i, j, kind))
                  for (i, j) in _STABLE_PAIRS + _GENERIC_PAIRS for kind in ("re", "im"))
    return basis, grids.read_only(_legendrian_torus(0.0)(*grids.grid_nodes(32)).value)


def random_contact_hamiltonian(eps, seed=0, mode="stable"):
    """Matrix M of a random non-isometric quadratic Hamiltonian f = q^T M q, max |f| = eps.

    mode "stable" draws from the z_k^2 family (perturbations the area flow
    contracts back to the torus); "generic" adds the mixed z_i z_j pairs,
    which include the torus's Legendrian-unstable directions and are meant
    for identity/residual tests, not for flow starts.  The scale is taken
    on the unperturbed N = 32 torus grid.
    """
    rng = np.random.default_rng(seed)
    basis, reference = _hamiltonian_tables()
    if mode == "stable":
        basis = basis[:2 * len(_STABLE_PAIRS)]
    coeffs = rng.standard_normal(len(basis))
    m = sum(c * b for c, b in zip(coeffs, basis))
    scale = float(np.max(np.abs(np.einsum("...i,ij,...j->...", reference, m, reference))))
    if scale == 0.0:
        raise ValueError("degenerate Hamiltonian draw")
    return (eps / scale) * m


def perturbed_torus(theta=0.0, eps=0.02, n=32, scheme="fd4", seed=0,
                    mode="stable") -> GridSurface:
    """Legendrian torus moved by the time-one flow of a seeded contact Hamiltonian.

    The contact field of f = q^T M q is J0 M q - <J0 M q, q> q, the sphere
    projection of the linear symplectic field q -> J0 M q, and the radial
    projection of a linear symplectic flow is a contactomorphism (Geiges,
    An Introduction to Contact Topology, 2008).  So the flow is
    q -> E q / |E q| with E = exp(J0 M): every resolution samples the same
    Legendrian surface up to roundoff (an E, or a squared norm |E q|^2, that
    overflows is a ValueError).
    See random_contact_hamiltonian for the stable/generic distinction.

    The stable E is block diagonal, a 2x2 block A_k on each z_k, so the
    image is the LegendrianGraph whose node (u, v) is the image of the
    torus point at (arg(A1^-1 e^{iu}), arg(A2^-1 e^{iv})).  h - theta is
    wrapped, as h would jump by 2pi at theta = pi; eps = 0 gives h = theta
    exactly, free of atan2 rounding.
    """
    theta = float(theta) % TWO_PI
    torus = (None if mode == "stable"
             else resample_to_grid(catalog("legendrian_torus", theta=theta), n, scheme))
    if eps == 0.0:
        return LegendrianGraph(np.full((n, n), theta), scheme) if torus is None else torus
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        m = random_contact_hamiltonian(eps, seed=seed, mode=mode)
        e = expm(contact.j_apply(m.T).T)  # exp(J0 M), J0 applied column by column
    if not np.all(np.isfinite(e)):
        raise ValueError(f"exp(J0 M) of the contact Hamiltonian of max |f| = {eps:.3e} overflows")
    if mode == "stable":
        a1, a2, a3 = (e[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(3))
        uu, vv = grids.grid_nodes(n)
        phase = (uu + vv - theta + _arg_of_image(a3, theta - _arg_of_image(np.linalg.inv(a1), uu)
                                                 - _arg_of_image(np.linalg.inv(a2), vv)))
        return LegendrianGraph(theta + phase - TWO_PI * np.round(phase / TWO_PI), scheme)
    image = torus.positions @ e.T
    # normalize's |E q|^2 is checked here, not in normalize, which every flow trial calls
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(contact.dot(image, image))):
            raise ValueError(f"|E q|^2 of exp(J0 M) of the contact Hamiltonian of max |f| = "
                             f"{eps:.3e} overflows")
    return GridSurface(positions=contact.normalize(image), scheme=scheme)


def _arg_of_image(a, angle):
    """arg(A e^{i angle}) for a real 2x2 matrix A acting on C = R^2."""
    c, s = np.cos(angle), np.sin(angle)
    return np.arctan2(a[1, 0] * c + a[1, 1] * s, a[0, 0] * c + a[0, 1] * s)
