"""Standard contact metric structure of the unit 5-sphere.

The ambient space is R^6 read as C^3 with coordinates ordered in pairs
(x1, y1, x2, y2, x3, y3).  The complex structure J0 rotates each pair,
the contact form is alpha(v) = sum_j (x_j v_{y_j} - y_j v_{x_j}) and the
Reeb field is R(p) = J0 p.  All functions broadcast over leading axes:
a "vector" is any ndarray whose last axis has length 6.

Convention note: with these orientations the Sasakian structure tensor
entering the identities nabla_X R = -J X and
(nabla_X J)(Y) = <X,Y> R - alpha(Y) X is phi = -J0 composed with the
projection that kills the Reeb component (structure_tensor below), while
j_apply is the raw +J0 rotation used for frames and contractions.
"""

from __future__ import annotations

import numpy as np

SPHERE_INPUT_TOL = 1e-9
TANGENT_TOL = 1e-10


def dot(a, b):
    """Euclidean inner product over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def norm(a):
    return np.sqrt(dot(a, a))


def normalize(a):
    return a / norm(a)[..., None]


def j_apply(v):
    """Apply the complex structure J0: per pair (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def check_sphere(p, tol=SPHERE_INPUT_TOL, what="point"):
    """Raise if any point is non-finite or off the unit sphere by more than tol."""
    dev = np.max(np.abs(norm(np.asarray(p, dtype=float)) - 1.0))
    if not dev <= tol:  # also catches NaN, which compares False
        raise ValueError(
            f"{what} non-finite or off the unit sphere: |norm - 1| = {dev:.3e} > {tol:.1e}"
        )


def contact_form(p, v):
    """alpha_p(v) = sum_j (x_j v_{y_j} - y_j v_{x_j}); p is not checked to lie on the sphere."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("...i,...i->...", p[..., 0::2], v[..., 1::2]) - np.einsum(
        "...i,...i->...", p[..., 1::2], v[..., 0::2]
    )


def structure_tensor(p, v):
    """Sasakian structure tensor phi(v) = -J0 (v - alpha(v) R) for tangent v."""
    a = contact_form(p, v)
    r = j_apply(np.asarray(p, dtype=float))
    return -j_apply(v - a[..., None] * r)


def sphere_connection(p, w_value, w_deriv, x):
    """Levi-Civita derivative on the sphere of a tangent field along x.

    w_value is the field at p, w_deriv its ambient directional derivative;
    for sphere-tangent fields the correction is + <x, w> p.
    """
    return w_deriv + dot(x, w_value)[..., None] * p


def sasakian_identity_residuals(p, x, y):
    """Residual norms of the two structure identities of the round sphere.

    Computes nabla_x R + phi(x) and (nabla_x phi)(y) - <x,y> R + alpha(y) x
    with the ambient Euclidean connection projected to the sphere; the
    fields R(.) and phi(.) are differentiated analytically along the
    geodesic through p in direction x, and y is extended by projecting the
    constant vector onto tangent spaces (an extension parallel at p).
    Both residuals vanish identically in exact arithmetic.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check_sphere(p)
    for name, w in (("x", x), ("y", y)):
        dev = np.max(np.abs(dot(w, p)))
        if dev > TANGENT_TOL:
            raise ValueError(f"{name} not tangent to the sphere: |<{name},p>| = {dev:.3e}")

    R0 = j_apply(p)
    alpha = lambda w: dot(w, R0)

    # field R(q) = J0 q along gamma(t): derivative at 0 is J0 gamma'(0) = J0 x
    dR = j_apply(x)
    nabla_x_R = sphere_connection(p, R0, dR, x)
    res1 = nabla_x_R + structure_tensor(p, x)

    # extension Ybar(t) = y - <y, gamma(t)> gamma(t): Ybar'(0) = -<y,x> p
    dYbar = -dot(y, x)[..., None] * p
    # W(t) = phi(Ybar) = -J0 Ybar - <Ybar, J0 gamma> gamma, differentiated termwise
    W0 = -j_apply(y) - alpha(y)[..., None] * p
    dW = (
        -j_apply(dYbar)
        - (dot(dYbar, R0) + dot(y, j_apply(x)))[..., None] * p
        - alpha(y)[..., None] * x
    )
    nabla_x_phiY = sphere_connection(p, W0, dW, x)
    # the extension is parallel at p, but keep the term for honesty
    nabla_x_Ybar = sphere_connection(p, y, dYbar, x)
    res2 = (
        nabla_x_phiY
        - structure_tensor(p, nabla_x_Ybar)
        - dot(x, y)[..., None] * R0
        + alpha(y)[..., None] * x
    )
    return norm(res1), norm(res2)


def random_sphere_points(n, rng):
    """n uniform points on S^5."""
    return normalize(rng.standard_normal((n, 6)))


def random_tangent(p, rng):
    """Random sphere-tangent vectors at p."""
    v = rng.standard_normal(p.shape)
    return v - dot(v, p)[..., None] * p
