"""Every tolerance guard refuses NaN instead of letting it through.

A guard written `x > tol` passes NaN, because every comparison with NaN
is False; the guards are written `not x <= tol`.  Each test feeds one
guard a NaN and expects its ValueError.
"""

import dataclasses

import numpy as np
import pytest

from legendrian_lab import extrinsic, flow, grid_ops, grids, immersions


def _with_data(geo, **fields):
    return dataclasses.replace(geo, data=dataclasses.replace(geo.data, **fields))


def _with_one_nan(field):
    out = np.array(field, dtype=float)
    out.reshape(-1)[7] = np.nan
    return out


def test_check_legendrian_rejects_nan(geometry_cache, monkeypatch):
    """The frame flag is the guard: a NaN residual makes the frame generic."""
    surface = geometry_cache("torus", 16, "spectral").surface
    inner = extrinsic.legendrian_residual

    def with_one_nan(p, du, dv):
        au, av = inner(p, du, dv)
        return _with_one_nan(au), av

    monkeypatch.setattr(extrinsic, "legendrian_residual", with_one_nan)
    assert extrinsic.adapted_frame(surface.jets()).legendrian is False
    with pytest.raises(ValueError, match="requires a Legendrian"):
        grid_ops.derived_geometry(surface).check_legendrian()


def test_check_normal_field_rejects_nan(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    v = _with_one_nan(geo.frame.normals()[0])
    with pytest.raises(ValueError, match="not a normal field"):
        grid_ops.check_normal_field(v, geo)


def test_div_jh_tangency_abort_rejects_nan(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    bad = _with_data(geo, Hvec=_with_one_nan(geo.data.Hvec))
    with pytest.raises(ValueError, match="JH tangency error"):
        grid_ops.div_JH(bad)


def test_omega_commutation_ker_alpha_check_rejects_nan(geometry_cache, monkeypatch):
    geo = geometry_cache("torus", 16, "spectral")
    # the normal-field check runs first and would catch the NaN itself
    monkeypatch.setattr(grid_ops, "check_normal_field", lambda *args, **kwargs: None)
    v = _with_one_nan(geo.frame.normals()[0])
    with pytest.raises(ValueError, match="ker\\(alpha\\)"):
        grid_ops.omega_commutation_residual(v, geo)


def test_legendrian_graph_rejects_nan_and_a_non_graph_h():
    h = immersions.perturbed_torus(eps=0.02, n=16, scheme="spectral", seed=0,
                                   mode="stable").h
    with pytest.raises(ValueError, match="non-finite"):
        immersions.LegendrianGraph(_with_one_nan(h), "spectral")
    uu, _ = grids.grid_nodes(16)
    for amplitude in (1.001, 1.5):  # h_u = amplitude cos(u) exceeds 1 at u = 0
        with pytest.raises(ValueError, match="not a Legendrian graph"):
            immersions.LegendrianGraph(amplitude * np.sin(uu), "spectral")


@pytest.mark.parametrize("which", ["du", "dv"])
def test_jet_validate_tangency_rejects_nan(which):
    jet = immersions.eval_jet2(immersions.catalog("legendrian_torus"),
                               np.array([0.1, 0.5]), np.array([0.2, 0.7]))
    jet.validate()
    bad = dataclasses.replace(jet, **{which: _with_one_nan(getattr(jet, which))})
    with pytest.raises(ValueError, match="not sphere-tangent"):
        bad.validate()


def test_first_variation_check_rejects_nan_eps(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    with pytest.raises(ValueError, match="eps must lie"):
        flow.first_variation_check(geo, np.ones((16, 16)), eps=np.nan)


@pytest.mark.parametrize("kwargs", [{"tol": np.nan}, {"tau0": np.nan}])
def test_run_flow_rejects_nan_tol_and_tau0(kwargs, geometry_cache):
    surface = geometry_cache("torus", 16, "spectral").surface
    with pytest.raises(ValueError, match="must be positive"):
        if "tau0" in kwargs:  # start_flow's, as a FlowState holds its own tau0
            flow.start_flow(surface, **kwargs)
        else:
            flow.run_flow(surface, **kwargs)
