"""Metamorphic tests: ambient unitary motions and grid shifts.

A U(3) matrix acting on C^3 = R^6 is an isometry of S^5 that commutes
with J0, so it keeps the contact form, the Reeb field and every
curvature invariant; a cyclic shift of the grid is a lattice
translation of the parameters.  Together they may change the pointwise
invariants only by the shift, and the integrals and the area flow's
limit only by roundoff.  The flow runs on graphs arg z3 = h - u - v,
whose shifted h is the graph moved by a diagonal unitary.
"""

import numpy as np
import pytest

from legendrian_lab import flow, grid_ops, immersions

SHIFT = (3, -5)
# bounds are >= 100x the worst deviations measured with seed 0
POINTWISE_TOL = 5e-10  # worst: 1.3e-12 (spectral div JH)
INTEGRAL_TOL = 1e-11   # relative to max(1, |value|); worst: 5.1e-14 (fd4 I1)
FLOW_AREA_TOL = 2e-10  # final areas 0 apart (fd4 N=32, spectral N=16)
INTEGRALS = ("area", "W", "I1", "I2", "E", "Sigma_Simons", "li_margin_min")


def random_unitary_as_real(seed):
    """A seeded U(3) matrix acting on (x1, y1, x2, y2, x3, y3)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    real = np.empty((6, 6))
    real[0::2, 0::2] = real[1::2, 1::2] = q.real
    real[0::2, 1::2] = -q.imag
    real[1::2, 0::2] = q.imag
    return real


def diagonal_unitary_as_real(a, b):
    """diag(e^{ia}, e^{ib}, e^{-i(a+b)}) acting on (x1, y1, x2, y2, x3, y3)."""
    real = np.zeros((6, 6))
    for k, t in enumerate((a, b, -(a + b))):
        real[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return real


def moved(surface, seed=0):
    positions = np.roll(surface.positions @ random_unitary_as_real(seed).T, SHIFT, axis=(0, 1))
    return immersions.GridSurface(positions, surface.scheme)


def test_real_form_is_orthogonal_and_commutes_with_j():
    m = random_unitary_as_real(0)
    j = np.kron(np.eye(3), [[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(m.T @ m - np.eye(6))) < 1e-14
    assert np.max(np.abs(m @ j - j @ m)) < 1e-15
    assert np.max(np.abs(m - np.eye(6))) > 0.1


@pytest.mark.parametrize("mode", ["stable", "generic"])
@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_invariants_survive_unitary_motion_and_shift(scheme, mode):
    # Like with like: the moved copy differentiates positions, so the start does
    # too.  The positions are the spectral start's, the surface sampled to 3e-11;
    # an fd4 graph's own positions are Legendrian only to its chain rule (5e-5).
    start = immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral", seed=0, mode=mode)
    geo = grid_ops.derived_geometry(immersions.GridSurface(start.positions, scheme))
    geo_m = grid_ops.derived_geometry(moved(geo.surface))
    assert geo.frame.legendrian and geo_m.frame.legendrian

    def fields(g):
        d = g.data
        return {"S": d.S, "H2": d.H2, "K": d.K, "div_JH": grid_ops.div_JH(g),
                "legendrian_residual": g.frame.legendrian_residual}

    for key, value in fields(geo).items():
        dev = np.max(np.abs(fields(geo_m)[key] - np.roll(value, SHIFT, axis=(0, 1))))
        assert dev <= POINTWISE_TOL, (key, dev)
    rep, rep_m = grid_ops.integral_report(geo), grid_ops.integral_report(geo_m)
    for key in INTEGRALS:
        assert abs(rep_m[key] - rep[key]) <= INTEGRAL_TOL * max(1.0, abs(rep[key])), key


@pytest.mark.parametrize("scheme, n", [("fd4", 32), ("spectral", 16)])
def test_flow_limit_survives_unitary_motion_and_shift(scheme, n):
    """h rolled by SHIFT is the graph moved by diag(e^{ia}, e^{ib}, e^{-i(a+b)}), then shifted.

    Here (a, b) = 2 pi SHIFT / N.  Both flows stop for the same reason,
    after as many steps, at the same area and at the rolled final h.
    fd4 N=32 converges; spectral N=16 is under-resolved for the default
    tol.
    """
    start = immersions.perturbed_torus(eps=0.02, n=n, scheme=scheme, seed=0, mode="stable")
    rolled = immersions.LegendrianGraph(np.roll(start.h, SHIFT, axis=(0, 1)), scheme)
    unitary = diagonal_unitary_as_real(*(2 * np.pi * s / n for s in SHIFT))
    expected_positions = np.roll(start.positions @ unitary.T, SHIFT, axis=(0, 1))
    assert np.max(np.abs(rolled.positions - expected_positions)) <= POINTWISE_TOL
    results = [flow.run_flow(s) for s in (start, rolled)]
    expected = "converged" if n == 32 else "under-resolved"
    assert [r.report["stop_reason"] for r in results] == [expected, expected]
    assert results[0].report["steps"] == results[1].report["steps"]
    areas = [r.report["final_area"] for r in results]
    assert abs(areas[1] - areas[0]) <= FLOW_AREA_TOL
    final_h = [r.state.surface.h for r in results]
    assert np.max(np.abs(final_h[1] - np.roll(final_h[0], SHIFT, axis=(0, 1)))) <= POINTWISE_TOL


@pytest.mark.parametrize("theta", [1.0, np.pi])
def test_theta_family_integrals_agree(theta, geometry_cache):
    """The θ-torus is the θ=0 torus times the unitary diag(1, 1, e^{iθ})."""
    rep0 = grid_ops.integral_report(geometry_cache("torus", 32, "spectral"))
    rep = grid_ops.integral_report(geometry_cache("torus", 32, "spectral", theta=theta))
    for key in INTEGRALS:
        assert abs(rep[key] - rep0[key]) <= INTEGRAL_TOL * max(1.0, abs(rep0[key])), key
