import dataclasses

import numpy as np
import pytest

from legendrian_lab import contact, extrinsic, immersions


def _point_data(name, n=200, seed=0, theta=0.0):
    surf = immersions.catalog(name, theta=theta)
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = surf.domain
    u = rng.uniform(u0, u1, n)
    v = rng.uniform(v0 + 1e-2, v1 - 1e-2, n)
    jet = immersions.eval_jet2(surf, u, v)
    frame = extrinsic.adapted_frame(jet)
    return jet, frame, extrinsic.extrinsic_data(jet, frame)


def test_frame_flags_and_orthonormality():
    jet, frame, _ = _point_data("legendrian_torus")
    assert frame.legendrian
    assert frame.orthonormality_residual() < 1e-12
    assert np.max(contact.norm(frame.normals()[2] - contact.j_apply(jet.value))) < 1e-12
    jet, frame, _ = _point_data("clifford_s3")
    assert not frame.legendrian
    assert frame.orthonormality_residual() < 1e-12


@pytest.mark.parametrize(
    "name,S,K",
    [
        ("legendrian_torus", 2.0, 0.0),
        ("equatorial_legendrian_sphere", 0.0, 1.0),
        ("clifford_s3", 2.0, 0.0),
        ("veronese_s4", 4.0 / 3.0, 1.0 / 3.0),
    ],
)
def test_curvature_invariants_on_catalog(name, S, K):
    _, _, data = _point_data(name)
    assert np.max(np.abs(data.S - S)) < 1e-9
    assert np.max(np.sqrt(data.H2)) < 1e-10
    assert np.max(np.abs(data.K - K)) < 1e-9
    assert np.min(data.rho2) > -1e-10


def test_torus_theta_family_shares_invariants():
    for theta in (1.0, np.pi, 5.5):
        _, _, data = _point_data("legendrian_torus", theta=theta)
        assert np.max(np.abs(data.S - 2.0)) < 1e-9
        assert np.max(np.sqrt(data.H2)) < 1e-10


def test_metric_of_torus():
    _, _, data = _point_data("legendrian_torus", n=50)
    expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert np.max(np.abs(data.g - expected)) < 1e-12
    assert np.max(np.abs(data.sqrt_det_g - 1 / np.sqrt(3))) < 1e-12
    expected_inv = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert np.max(np.abs(data.ginv - expected_inv)) < 1e-12


def test_identity_residuals_torus():
    _, _, data = _point_data("legendrian_torus")
    ident = extrinsic.pointwise_identity_residuals(data)
    assert ident.h3_max < 1e-9
    assert ident.sym3_max < 1e-9
    assert ident.gauss_identity_max < 1e-10
    assert np.max(np.abs(data.det_sum + 1.0)) < 1e-9  # = -S/2 on the flat torus


def test_identity_residuals_equatorial_sphere():
    _, _, data = _point_data("equatorial_legendrian_sphere")
    ident = extrinsic.pointwise_identity_residuals(data)
    assert ident.h3_max < 1e-10
    assert ident.sym3_max < 1e-10
    assert np.max(np.abs(data.det_sum)) < 1e-10


def test_identity_residuals_clifford_generic_frame():
    """Off a Legendrian frame only the frame-free Gauss identity is evaluated."""
    _, _, data = _point_data("clifford_s3")
    ident = extrinsic.pointwise_identity_residuals(data)
    assert ident.h3_max is None and ident.sym3_max is None
    with pytest.raises(ValueError, match="requires a Legendrian frame"):
        data.det_sum
    assert ident.gauss_identity_max <= 1e-10


@pytest.mark.parametrize("name", ["clifford_s3", "veronese_s4"])
def test_non_legendrian_frames_have_no_normal_frame(name):
    """(J E1, J E2, R) is the only normal frame; off a Legendrian frame it is refused."""
    _, frame, data = _point_data(name)
    assert not frame.legendrian
    with pytest.raises(ValueError, match="requires a Legendrian frame"):
        frame.normals()
    with pytest.raises(ValueError, match="requires a Legendrian frame"):
        data.h
    ident = extrinsic.pointwise_identity_residuals(data)
    assert (ident.h3_max, ident.sym3_max) == (None, None)
    with pytest.raises(ValueError, match="requires a Legendrian frame"):
        data.det_sum
    assert ident.gauss_identity_max <= 1e-10


def test_invariants_frame_independent():
    """Rotating the tangent frame must not change S, H^2, rho^2, K."""
    surf = immersions.catalog("veronese_s4")
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 2 * np.pi, 100)
    v = rng.uniform(0.4, np.pi - 0.4, 100)
    jet = immersions.eval_jet2(surf, u, v)
    frame = extrinsic.adapted_frame(jet)
    data = extrinsic.extrinsic_data(jet, frame)

    ang = rng.uniform(0, 2 * np.pi, 100)
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    e1 = c * frame.E1 + s * frame.E2
    e2 = -s * frame.E1 + c * frame.E2
    coeff = np.einsum("...ab,...bc->...ac",
                      np.stack([np.stack([np.cos(ang), np.sin(ang)], -1),
                                np.stack([-np.sin(ang), np.cos(ang)], -1)], -2),
                      frame.coeff)
    rotated = dataclasses.replace(frame, E1=e1, E2=e2, coeff=coeff)
    data2 = extrinsic.extrinsic_data(jet, rotated)
    for field in ("S", "H2", "rho2", "K"):
        assert np.max(np.abs(getattr(data, field) - getattr(data2, field))) < 1e-10


def test_umbilic_iff_rho2_vanishes():
    # equatorial sphere: trace-free part vanishes with rho2
    _, _, sphere = _point_data("equatorial_legendrian_sphere")
    tracefree = sphere.h - sphere.Hcomp[..., :, None, None] * np.eye(2)
    assert np.max(np.abs(sphere.rho2)) < 1e-9
    assert np.max(np.abs(tracefree)) < 1e-9
    # torus: both strictly positive
    _, _, torus = _point_data("legendrian_torus")
    tracefree_t = torus.h - torus.Hcomp[..., :, None, None] * np.eye(2)
    assert np.min(torus.rho2) > 1.0
    assert np.max(np.abs(tracefree_t)) > 0.5


def test_symmetry_defect_bounded_by_legendrian_residual(monkeypatch):
    """On a drifted grid the 3-symmetry degrades no worse than 10x the drift.

    The regime is only meaningful when the drift dominates the scheme
    error, so the surface is moved by one explicit step along V_f on a
    spectral grid and the Legendrian frame is engaged explicitly.
    """
    from legendrian_lab import grids

    g = immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 32, "spectral")
    uu, vv = grids.grid_nodes(32)
    f = 1e-3 * np.cos(uu) + 7e-4 * np.sin(vv)
    df = (grids.deriv(f, 0, "spectral"), grids.deriv(f, 1, "spectral"))
    moved = contact.normalize(g.positions + immersions.variation_field_on_positions(g, f, df))
    jet = immersions.GridSurface(positions=moved, scheme="spectral").jets()
    drift = max(float(np.max(np.abs(a)))
                for a in extrinsic.legendrian_residual(jet.value, jet.du, jet.dv))
    assert 1e-8 < drift <= 1e-6
    monkeypatch.setattr(extrinsic, "LEGENDRIAN_FRAME_TOL", 1e-5)
    frame = extrinsic.adapted_frame(jet)
    assert frame.legendrian
    ident = extrinsic.pointwise_identity_residuals(extrinsic.extrinsic_data(jet, frame))
    assert ident.sym3_max <= 10.0 * drift
    assert ident.h3_max <= 10.0 * drift


def test_degenerate_jets_rejected():
    jet = immersions.eval_jet2(immersions.catalog("legendrian_torus"), 0.1, 0.2)
    bad = immersions.Jet2(jet.value, jet.du, jet.du, jet.duu, jet.duv, jet.dvv)
    with pytest.raises(ValueError):
        extrinsic.adapted_frame(bad)


def test_non_finite_jets_rejected_by_metric_guards():
    jet = immersions.eval_jet2(immersions.catalog("legendrian_torus"), 0.1, 0.2)
    frame = extrinsic.adapted_frame(jet)
    du = jet.du.copy()
    du[0] = np.nan
    bad = immersions.Jet2(jet.value, du, jet.dv, jet.duu, jet.duv, jet.dvv)
    with pytest.raises(ValueError, match="non-finite"):
        extrinsic.adapted_frame(bad)
    with pytest.raises(ValueError, match="non-finite"):
        extrinsic.extrinsic_data(bad, frame)
