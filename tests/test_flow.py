import csv
import dataclasses

import numpy as np
import pytest

from legendrian_lab import contact, extrinsic, flow, grid_ops, grids, immersions
from tests.conftest import A_TORUS


def _stable_start(n=32, eps=0.02, seed=0):
    return immersions.perturbed_torus(eps=eps, n=n, scheme="spectral", seed=seed,
                                      mode="stable")


@pytest.fixture(scope="module")
def converged_flow():
    return flow.run_flow(_stable_start(), max_steps=5000, tol=1e-4)


# ---------------------------------------------------------------------------
# variation field


def _variation_field(geo, f):
    return immersions.variation_field_on_positions(geo.surface, f, (geo.d(f, 0), geo.d(f, 1)))


def test_variation_field_constant_gives_pure_reeb(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    v = _variation_field(geo, 0.7 * np.ones((16, 16)))
    assert np.max(contact.norm(v - 0.7 * contact.j_apply(geo.frame.p))) < 1e-12


def test_variation_field_alpha_component_equals_potential(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    uu, vv = grids.grid_nodes(32)
    f = 0.3 * np.cos(uu) + 0.2 * np.sin(2 * vv)
    v = _variation_field(geo, f)
    alpha_v = contact.contact_form(geo.frame.p, v)
    assert np.max(np.abs(alpha_v - f)) < 1e-10


def test_variation_drift_quadratic_in_step(geometry_cache):
    """One explicit step along V_f leaves a Legendrian drift of order tau^2.

    V_f is linear in f, so scaling tau also scales the amplitude of f.
    """
    geo = geometry_cache("torus", 32, "spectral")
    uu, _ = grids.grid_nodes(32)
    v = _variation_field(geo, np.cos(uu))
    taus = (1e-2, 5e-3, 2.5e-3)
    drifts = []
    for tau in taus:
        moved = contact.normalize(geo.frame.p + tau * v)
        jet = immersions.GridSurface(positions=moved, scheme="spectral").jets()
        drifts.append(max(float(np.max(np.abs(a)))
                          for a in extrinsic.legendrian_residual(jet.value, jet.du, jet.dv)))
    slope = np.polyfit(np.log(taus), np.log(drifts), 1)[0]
    assert slope > 1.9


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_three_routes_agree():
    geo = grid_ops.derived_geometry(_stable_start())
    f = grid_ops.div_JH(geo)
    a, b, c = flow.first_variation_check(geo, f, eps=1e-3)
    assert a == pytest.approx(c, rel=1e-6)
    assert b == pytest.approx(c, rel=1e-6)
    # descent property: all three equal -int f^2 for this choice of f
    assert a == pytest.approx(-grid_ops.quadrature(f**2, geo), rel=1e-10)
    assert a < 0


def test_first_variation_vanishes_on_minimal_torus(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    uu, _ = grids.grid_nodes(32)
    a, b, c = flow.first_variation_check(geo, np.cos(uu), eps=1e-3)
    assert abs(a) < 1e-10 and abs(b) < 1e-10 and abs(c) < 1e-9


def test_first_variation_rejects_large_eps(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    with pytest.raises(ValueError):
        flow.first_variation_check(geo, np.zeros((16, 16)), eps=0.5)


def test_second_variation_spectrum_of_flat_torus(geometry_cache):
    """The area Hessian on potentials e^{i(mu+nv)} is Q = lambda(lambda-6)/4."""
    geo = geometry_cache("torus", 32, "spectral")
    base = geo.frame.p
    uu, vv = grids.grid_nodes(32)
    eps = 2e-3
    for (m, n) in ((1, 0), (1, -1), (2, 0), (2, -1), (3, 0)):
        f = np.cos(m * uu + n * vv)
        v = _variation_field(geo, eps * f)
        ap = flow.area_of_positions(
            immersions.GridSurface(contact.normalize(base + v), geo.scheme))
        am = flow.area_of_positions(
            immersions.GridSurface(contact.normalize(base - v), geo.scheme))
        measured = (ap + am - 2 * A_TORUS) / eps**2
        lam = 2.0 * (m * m - m * n + n * n)
        expected = lam * (lam - 6.0) / 4.0 * (A_TORUS / 2.0)
        assert measured == pytest.approx(expected, rel=2e-2, abs=1e-3)


# ---------------------------------------------------------------------------
# descent machinery


def test_descent_potential_is_positive_multiplier():
    """1/Q on lambda > 6 off the 2/3-rule band, Q = lambda(lambda - 6)/4; exactly 0 elsewhere.

    Zero at lambda = 0 and lambda = 6, where Q = 0 (area-neutral: the phase
    and U(3)), on the saddle modes 0 < lambda < 6 and on the band.
    """
    rng = np.random.default_rng(0)
    f = rng.standard_normal((32, 32))
    descent, band = flow.descent_potential(f)
    # positive semidefinite multiplier: nonnegative pairing with the input
    assert float(np.sum(f * descent)) > 0
    # the band part is f's cut-band content, which the descent field does not carry
    assert np.array_equal(band, grids.fourier_filter(f, flow._aliased_band(32))[0])
    mult = flow.torus_jacobi_multiplier(32)
    assert np.all(mult >= 0.0)
    k = np.fft.fftfreq(32, d=1.0 / 32)
    lam = 2.0 * (k[:, None] ** 2 - k[:, None] * k[None, :] + k[None, :] ** 2)
    newton = (lam > 6.0) & ~flow._aliased_band(32)
    assert np.array_equal(mult[newton], 1.0 / (lam[newton] * (lam[newton] - 6.0) / 4.0))
    assert not np.any(mult[~newton])
    # lambda = 0 and lambda = 6 (Q = 0): the constant, (1, 0), (1, 1), (1, -1), (2, 1)
    assert mult[0, 0] == 0.0 and mult[1, 0] == 0.0 and mult[1, 1] == 0.0
    assert mult[1, -1] == 0.0 and mult[2, 1] == 0.0
    assert lam[1, -1] == 6.0 and lam[2, 1] == 6.0
    # the slowest kept mode, lambda = 8 at (2, 0), takes a full Newton step 1/Q = 1/4
    assert mult[2, 0] == 0.25 and mult[0, -2] == 0.25
    # 2/3-rule dealiasing: |k_u| or |k_v| >= 32/3 is cut
    assert mult[10, 10] > 0.0 and mult[10, -10] > 0.0
    assert mult[11, 0] == 0.0 and mult[0, -11] == 0.0 and mult[16, 16] == 0.0
    assert not np.any(mult[flow._aliased_band(32)])


# ---------------------------------------------------------------------------
# the raw potential -(1/2) Delta_g beta against the operator div(J0 H)


def _operator_gap(scheme, n, seed=0, eps=0.02):
    graph = immersions.perturbed_torus(eps=eps, n=n, scheme=scheme, seed=seed, mode="stable")
    div = grid_ops.div_JH(grid_ops.derived_geometry(graph))
    return float(np.max(np.abs(flow.raw_potential(graph) - div))), div


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_raw_potential_is_div_JH_on_spectral_grids(seed):
    """2H = J0 grad beta on the cone, so div(J0 H) = -(1/2) Delta_g beta (measured <= 4e-11)."""
    gap, div = _operator_gap("spectral", 64, seed=seed)
    assert gap <= 1e-9
    assert np.max(np.abs(div)) > 0.05  # the identity is not read off a vanishing field


def test_raw_potential_meets_div_JH_at_fourth_order_in_fd4():
    """fd4 gaps 2.5e-3, 1.8e-4, 1.2e-5 at N = 32, 64, 128: both sides carry O(N^-4) errors."""
    gaps = [_operator_gap("fd4", n)[0] for n in (32, 64, 128)]
    orders = [np.log2(coarse / fine) for coarse, fine in zip(gaps, gaps[1:])]
    assert min(orders) >= 3.5


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_raw_potential_vanishes_on_the_flat_torus(scheme):
    graph = immersions.perturbed_torus(eps=0.0, theta=1.0, n=32, scheme=scheme, mode="stable")
    assert np.max(np.abs(flow.raw_potential(graph))) <= 1e-12


def test_flow_step_strict_descent_and_rejection_bookkeeping():
    state = flow.start_flow(_stable_start(n=16), tau0=0.05)
    for _ in range(5):
        flow.flow_step(state)
    areas = state.area_history
    assert all(areas[i + 1] < areas[i] for i in range(len(areas) - 1))
    assert state.step_index == len(areas) - 1
    assert len(state.tau_history) == state.step_index


def test_run_flow_builds_one_geometry_of_the_final_surface(monkeypatch):
    """Steps read -(1/2) Delta_g beta off the graph; only the final report builds a geometry."""
    calls, frames = [], []
    build, frame = grid_ops.derived_geometry, extrinsic.adapted_frame

    def counted(surface):
        calls.append(surface)
        return build(surface)

    def counted_frame(jet):
        frames.append(jet)
        return frame(jet)

    monkeypatch.setattr(flow.grid_ops, "derived_geometry", counted)
    monkeypatch.setattr(extrinsic, "adapted_frame", counted_frame)
    result = flow.run_flow(_stable_start(n=16), max_steps=5000, tol=1e-4)
    state, rep = result.state, result.report
    assert rep["stop_reason"] == "under-resolved" and rep["steps"] > 0
    assert len(calls) == 1 and len(frames) == 1
    assert calls[0] is state.surface and result.geometry.surface is state.surface
    # the report describes the final surface, not a stale one; a new graph
    # of the final h differentiates it again
    graph = immersions.LegendrianGraph(state.surface.h, state.surface.scheme)
    fresh = build(graph)
    integrals = grid_ops.integral_report(fresh)
    for key in ("area", "W", "I1", "I2", "E", "Sigma_Simons"):
        assert rep["final_" + key] == integrals[key]
    assert rep["final_S_max_dev"] == float(np.max(np.abs(fresh.data.S - 2.0)))
    assert np.array_equal(state.div_JH, flow.raw_potential(graph))
    dev = float(np.max(np.abs(state.div_JH - grid_ops.div_JH(fresh))))
    assert rep["final_div_JH_operator_dev"] == dev


def test_stalled_flow_step_keeps_cached_geometry():
    state = flow.start_flow(_stable_start(n=16))
    surface, div = state.surface, state.div_JH
    state.tau = 0.0  # every trial step is below the underflow floor
    flow.flow_step(state)
    assert state.stalled
    assert state.surface is surface and state.div_JH is div
    assert state.step_index == 0 and len(state.area_history) == 1


def test_flow_stationary_input_terminates_immediately():
    result = flow.run_flow(_stable_start(n=16, eps=0.0), max_steps=10)
    assert result.converged
    assert result.report["steps"] == 0


def test_flow_converges_from_stable_perturbation(converged_flow):
    result = converged_flow
    rep = result.report
    assert result.converged
    assert rep["steps"] < 5000
    assert rep["final_div_JH_l2"] <= 1e-4 * rep["initial_div_JH_l2"]
    assert abs(rep["final_area"] - A_TORUS) < 1e-4
    assert rep["final_el_residual_sup"] < 1e-3
    assert rep["max_legendrian_residual"] < 1e-4
    assert rep["final_I1"] < 1e-3
    assert abs(rep["final_E"]) < 1e-3
    areas = result.state.area_history
    assert all(areas[i + 1] < areas[i] for i in range(len(areas) - 1))


def test_flow_limit_exhibits_pinching(converged_flow):
    assert converged_flow.report["final_S_max_dev"] < 1e-4  # S -> 2 on the limit


def test_flow_gradient_norm_never_exceeds_initial(converged_flow):
    # the line search makes the AREA monotone; the gradient norm may tick
    # up while mode families trade off, but stays below its initial value
    divs = [r[0] for r in converged_flow.state.residual_history]
    assert max(divs) == divs[0]
    assert divs[-1] <= 1e-4 * divs[0]


@pytest.mark.parametrize("seed", [1, 2])
def test_flow_robust_across_seeds(seed):
    result = flow.run_flow(_stable_start(seed=seed), max_steps=5000, tol=1e-4)
    assert result.converged
    assert abs(result.report["final_area"] - A_TORUS) < 1e-4
    assert result.report["max_legendrian_residual"] < 1e-4


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("seed", [0, 3])
def test_graph_flow_stays_legendrian_and_certifies_simons(seed, scheme):
    """Every iterate is a graph, so the frame stays Legendrian and Sigma_Simons is reported."""
    result = flow.run_flow(immersions.perturbed_torus(eps=0.02, n=32, scheme=scheme, seed=seed,
                                                      mode="stable"))
    rep = result.report
    assert rep["stop_reason"] == "converged"
    assert rep["max_legendrian_residual"] <= 1e-13
    assert rep["final_Sigma_Simons"] is not None
    assert {frame for _, _, frame in result.state.residual_history} == {"legendrian"}


def test_fd2_graph_flow_converges():
    start = immersions.perturbed_torus(eps=0.02, n=32, scheme="fd2", seed=0, mode="stable")
    rep = flow.run_flow(start).report
    assert rep["stop_reason"] == "converged" and rep["steps"] < 200


def test_flow_limit_satisfies_structure_identities(converged_flow):
    # the converged surface certifies the operator identities, not just
    # the stationarity metric it was driven by
    geo = grid_ops.derived_geometry(converged_flow.state.surface)
    assert np.max(np.abs(grid_ops.reeb_pairing_residual(geo))) < 1e-4
    assert np.max(np.abs(grid_ops.mean_curvature_form_closedness(geo))) < 1e-5


def test_flow_rejects_non_legendrian_start():
    """Only a LegendrianGraph starts a flow; a Legendrian grid of positions does not either."""
    for name in ("clifford_s3", "legendrian_torus"):
        grid = immersions.resample_to_grid(immersions.catalog(name), 16, "spectral")
        with pytest.raises(ValueError, match="runs on a LegendrianGraph"):
            flow.run_flow(grid, max_steps=5)


def test_flow_csv_schema(tmp_path):
    result = flow.run_flow(_stable_start(n=16), max_steps=40, tol=1e-2)
    path = tmp_path / "flow.csv"
    flow.write_flow_csv(result.state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,tau,area,div_JH_l2,legendrian_residual,halvings,frame,"
                        "rel_area_drop")
    assert len(lines) == 1 + result.report["steps"]
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(float(x) > 0 for x in first[1:3])
    areas = result.state.area_history
    for i, line in enumerate(lines[1:], start=1):
        assert line.split(",")[7] == repr((areas[i - 1] - areas[i]) / areas[i - 1])
        assert float(line.split(",")[7]) > 0.0  # the line search accepts only descent


# ---------------------------------------------------------------------------
# what a flow step pays for


def test_run_flow_takes_one_el_residual_on_the_final_surface(monkeypatch, tmp_path):
    calls, trials = [], []
    laplacian, area = grid_ops.normal_laplacian, flow.area_of_positions

    def counted(v, geo):
        calls.append(geo)
        return laplacian(v, geo)

    def counted_area(surface):
        trials.append(surface)
        return area(surface)

    monkeypatch.setattr(grid_ops, "normal_laplacian", counted)
    monkeypatch.setattr(flow, "area_of_positions", counted_area)
    # tau0 = 2 (twice the preconditioned step) makes the line search halve; at the default
    # it never does here
    result = flow.run_flow(flow.start_flow(_stable_start(n=16), tau0=2.0), max_steps=5000,
                           tol=1e-4)
    state, rep = result.state, result.report
    assert rep["stop_reason"] == "under-resolved" and rep["steps"] > 0
    assert len(calls) == 1 and calls[0] is result.geometry
    el = grid_ops.el_residual(result.geometry)
    assert rep["final_el_residual_sup"] == float(np.max(contact.norm(el)))
    # every trial but the accepted one of each step is a halving
    halvings = [int(row[5]) for row in _csv_rows(state, tmp_path)]
    assert sum(halvings) > 0 and len(trials) == rep["steps"] + sum(halvings)


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_derived_geometry_differentiates_the_metric_only_when_gamma_is_read(
        scheme, monkeypatch):
    state = flow.start_flow(immersions.perturbed_torus(eps=0.02, n=16, scheme=scheme,
                                                       seed=0, mode="stable"))
    surface = flow.flow_step(state).surface
    calls = []
    deriv = grids.deriv

    def counted(*args, **kwargs):
        calls.append(args)
        return deriv(*args, **kwargs)

    monkeypatch.setattr(grids, "deriv", counted)
    surface.jets()
    jets = len(calls)
    geo = grid_ops.derived_geometry(surface)
    assert len(calls) == 2 * jets
    gamma = geo.gamma
    assert len(calls) == 2 * jets + 2
    assert geo.gamma is gamma
    assert len(calls) == 2 * jets + 2


def test_spectral_32_flow_differentiates_each_accepted_surface_once(monkeypatch):
    """A trial differentiates the scalar h and its angle; only the final surface takes jets.

    Seed 0 measures 926 calls over 17.9 MB of input and output.
    """
    calls, nbytes = [], []
    deriv = grids.deriv

    def counted(*args, **kwargs):
        out = deriv(*args, **kwargs)
        calls.append(args)
        nbytes.append(args[0].nbytes + out.nbytes)
        return out

    monkeypatch.setattr(grids, "deriv", counted)
    result = flow.run_flow(_stable_start(), max_steps=5000, tol=1e-4)
    assert result.report["stop_reason"] == "converged"
    assert len(calls) <= 930
    assert sum(nbytes) <= 18.0e6
    # the final trial's first derivatives, taken for its area, are the geometry's
    state, geo = result.state, result.geometry
    assert geo.surface is state.surface
    assert geo.frame.p is state.surface.positions
    jet, (du, dv) = state.surface.jets(), state.surface.first_derivatives
    assert jet.du is du and jet.dv is dv


# ---------------------------------------------------------------------------
# why a flow stops


def _csv_rows(state, tmp_path):
    path = tmp_path / "flow.csv"
    flow.write_flow_csv(state, path)
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _assert_reports_last_accepted_surface(result, tmp_path):
    state, rep = result.state, result.report
    rows = _csv_rows(state, tmp_path)
    assert rep["steps"] == len(rows) == state.step_index
    if rows:
        assert rep["final_area"] == float(rows[-1][2])
        assert rep["final_div_JH_l2"] == float(rows[-1][3])
    fresh = grid_ops.derived_geometry(immersions.LegendrianGraph(state.surface.h,
                                                                 state.surface.scheme))
    integrals = grid_ops.integral_report(fresh)
    for key in ("area", "W", "I1", "I2", "E", "Sigma_Simons"):
        assert rep["final_" + key] == integrals[key]
    assert rep["final_S_max_dev"] == float(np.max(np.abs(fresh.data.S - 2.0)))


@pytest.mark.parametrize("tau0", [np.nan, -1.0, 0.0, np.inf])
def test_start_flow_refuses_a_tau0_that_is_not_positive_and_finite(tau0):
    with pytest.raises(ValueError, match="tau0 must be positive and finite"):
        flow.start_flow(_stable_start(n=16), tau0=tau0)


def test_stop_reason_stalled_when_every_trial_underflows():
    rep = flow.run_flow(flow.start_flow(_stable_start(n=16), tau0=1e-13)).report
    assert rep["stalled"] and not rep["converged"]
    assert rep["stop_reason"] == "stalled" and rep["steps"] == 0


def test_non_finite_trial_is_halved_like_a_larger_area(monkeypatch):
    """A trial h that is not a graph is rejected and halved, not raised.

    The first trial gets 1.5 sin(u) added, so its h_u reaches 1.5 and
    LegendrianGraph refuses it, as it refuses a non-finite h.
    """
    graph, calls = flow.LegendrianGraph, []
    uu, _ = grids.grid_nodes(16)

    def no_graph_on_first_trial(h, scheme):
        calls.append(1)
        return graph(h + 1.5 * np.sin(uu) if len(calls) == 1 else h, scheme)

    plain = flow.start_flow(_stable_start(n=16))
    flow.flow_step(plain)
    state = flow.start_flow(_stable_start(n=16))
    monkeypatch.setattr(flow, "LegendrianGraph", no_graph_on_first_trial)
    flow.flow_step(state)
    assert state.step_index == 1 and not state.stalled
    assert state.halvings_history == [plain.halvings_history[0] + 1]
    assert np.all(np.isfinite(state.surface.positions))


def test_trial_whose_angle_leaves_its_branch_is_halved_like_a_non_graph(monkeypatch):
    """The first trial is a graph (min 1 - h_u = 0.01) whose Lagrangian angle is off its branch.

    Its |arg(-minor)| reads 2.82 against ANGLE_BRANCH_LIMIT = 3 pi / 4.  Its
    area is reported as 0, so only the angle guard can reject it.
    """
    graph, area, calls = flow.LegendrianGraph, flow.area_of_positions, []
    uu, vv = grids.grid_nodes(16)
    off_branch = 0.33 * (np.sin(3 * uu) + np.sin(3 * vv))
    with pytest.raises(ValueError, match="leaves its branch"):
        graph(off_branch, "spectral").lagrangian_angle

    def off_branch_on_first_trial(h, scheme):
        calls.append(1)
        return graph(off_branch if len(calls) == 1 else h, scheme)

    plain = flow.start_flow(_stable_start(n=16))
    flow.flow_step(plain)
    state = flow.start_flow(_stable_start(n=16))
    monkeypatch.setattr(flow, "LegendrianGraph", off_branch_on_first_trial)
    monkeypatch.setattr(flow, "area_of_positions",
                        lambda s: 0.0 if np.array_equal(s.h, off_branch) else area(s))
    flow.flow_step(state)
    assert state.step_index == 1 and not state.stalled
    assert state.halvings_history == [plain.halvings_history[0] + 1]
    assert state.area < state.area_history[0]


def test_accepted_surface_with_a_degenerate_metric_raises(monkeypatch):
    """det g below GRAM_DET_TOL raises, as in extrinsic_data, and keeps the last accepted state."""
    state = flow.start_flow(_stable_start(n=16))
    surface = state.surface
    monkeypatch.setattr(extrinsic, "GRAM_DET_TOL", 1.0)  # det g is ~1/3 on these tori
    with pytest.raises(ValueError, match="degenerate or non-finite induced metric"):
        flow.flow_step(state)
    assert state.surface is surface and state.step_index == 0
    with pytest.raises(ValueError, match="degenerate or non-finite induced metric"):
        flow.start_flow(surface)


@pytest.mark.parametrize("case", ["fd4", "spectral", "flowed"])
def test_flow_residuals_and_area_are_those_of_the_frame_and_the_report(case, flowed_geo):
    """Bit for bit: the flow's max |alpha(x_i)| and frame flag are adapted_frame's, its area
    integral_report's, on stable graphs and on a generic-frame surface."""
    surface = flowed_geo.surface if case == "flowed" else immersions.perturbed_torus(
        eps=0.02, n=32, scheme=case, seed=0, mode="stable")
    _, leg, frame = flow._residuals(surface, np.zeros((surface.n, surface.n)))
    adapted = extrinsic.adapted_frame(surface.jets())
    assert leg == float(np.max(adapted.legendrian_residual))
    assert frame == ("legendrian" if adapted.legendrian else "generic")
    assert (frame == "generic") == (case == "flowed")
    area = grid_ops.integral_report(grid_ops.derived_geometry(surface))["area"]
    assert flow.area_of_positions(surface) == area


def test_start_flow_sets_every_state_field():
    state = flow.start_flow(_stable_start(n=16))
    assert [f.name for f in dataclasses.fields(state) if getattr(state, f.name) is None] == []


def _band_l2s(state):
    """L2 norms of the raw div JH inside and outside the 2/3-rule passband."""
    n = state.surface.n
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    cut = (k[:, None] >= n / 3) | (k[None, :] >= n / 3)
    band = np.fft.ifft2(np.fft.fft2(state.div_JH) * cut).real
    *_, det = immersions.first_fundamental_form(*state.surface.first_derivatives)
    return [np.sqrt(np.sum(part**2 * np.sqrt(det)) * (2 * np.pi / n) ** 2)
            for part in (state.div_JH - band, band)]


def test_stop_reason_under_resolved_when_only_the_cut_band_misses_the_target(tmp_path):
    result = flow.run_flow(_stable_start(n=16))
    rep = result.report
    target = 1e-4 * rep["initial_div_JH_l2"]
    passband, band = _band_l2s(result.state)
    assert rep["stop_reason"] == "under-resolved"
    assert not rep["converged"] and not rep["stalled"]
    assert passband <= target < band
    assert rep["final_div_JH_band_l2"] == pytest.approx(band, rel=1e-12)
    _assert_reports_last_accepted_surface(result, tmp_path)


def test_stop_reason_under_resolved_when_the_line_search_stalls_on_the_band():
    result = flow.run_flow(_stable_start(n=16), tol=1e-9)
    rep = result.report
    passband, band = _band_l2s(result.state)
    assert rep["stop_reason"] == "under-resolved" and rep["stalled"]
    assert 1e-9 * rep["initial_div_JH_l2"] < passband <= band


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stop_reason_under_resolved_at_step_zero_when_the_band_holds_most_of_div_JH(seed):
    """An eps = 0.3 start at N = 32 is not stepped: its band part is 5.7-10 times its passband."""
    result = flow.run_flow(_stable_start(eps=0.3, seed=seed))
    rep = result.report
    passband, band = _band_l2s(result.state)
    assert rep["stop_reason"] == "under-resolved" and rep["steps"] == 0
    assert not rep["stalled"] and not rep["converged"]
    assert 1e-4 * rep["initial_div_JH_l2"] < passband <= band


def test_converged_flow_leaves_the_cut_band_below_the_target(converged_flow):
    rep = converged_flow.report
    assert rep["final_div_JH_band_l2"] < rep["final_div_JH_l2"] <= 1e-4 * rep["initial_div_JH_l2"]


def test_spectral_step_count_does_not_grow_with_resolution(converged_flow):
    fine = flow.run_flow(_stable_start(n=64), max_steps=5000, tol=1e-4).report
    assert fine["stop_reason"] == "converged"
    assert abs(fine["steps"] - converged_flow.report["steps"]) <= 2


def test_stop_reason_max_steps(tmp_path):
    result = flow.run_flow(_stable_start(n=16), max_steps=2)
    rep = result.report
    assert rep["stop_reason"] == "max_steps"
    assert not rep["stalled"] and not rep["converged"]
    _assert_reports_last_accepted_surface(result, tmp_path)
