import numpy as np
import pytest

from legendrian_lab import contact, extrinsic, flow, grid_ops, grids, immersions
from tests.conftest import A_CLIFFORD, A_TORUS, fit_convergence_order

REFINE = (16, 32, 64)


def laplace_beltrami(f, geo):
    """(1/sqrt g) d_i (sqrt g g^{ij} d_j f); negative spectrum.

    The scalar Laplacian is an oracle for the connection Laplacians: no
    command reports it.
    """
    sg = geo.data.sqrt_det_g
    fu, fv = geo.d(f, 0), geo.d(f, 1)
    flux_u = sg * (geo.data.ginv[..., 0, 0] * fu + geo.data.ginv[..., 0, 1] * fv)
    flux_v = sg * (geo.data.ginv[..., 1, 0] * fu + geo.data.ginv[..., 1, 1] * fv)
    return (geo.d(flux_u, 0) + geo.d(flux_v, 1)) / sg


def willmore_residual(geo):
    """Delta^nu H + Q(A°)H, the paper's Willmore equation, in flat indices and frame-free.

    Q(A°)H = sum_ij <A°_ij, H> A°_ij with A° = Bhat - delta H, so no normal
    frame is read and the oracle holds on non-Legendrian surfaces too.
    """
    bhat, hvec = geo.data.Bhat, geo.data.Hvec
    qvec = np.zeros_like(hvec)
    for i in range(2):
        for j in range(2):
            a = bhat[..., i, j, :] - (hvec if i == j else 0.0)
            qvec = qvec + contact.dot(a, hvec)[..., None] * a
    return grid_ops.normal_laplacian(hvec, geo) + qvec


def _fit(cache, op, scheme="fd4", mode="generic", eps=0.02, seed=0):
    """Sup-norm refinement fit of a residual operator over the triple."""
    values = []
    for n in REFINE:
        geo = cache("torus", n, scheme, eps=eps, seed=seed, mode=mode)
        values.append(op(geo))
    order = fit_convergence_order(REFINE, values)
    return values, order


# ---------------------------------------------------------------------------
# derived geometry


def test_torus_metric_and_christoffels(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert np.max(np.abs(geo.data.g - expected)) < 1e-12
    assert np.max(np.abs(geo.data.sqrt_det_g - 1 / np.sqrt(3))) < 1e-12
    assert np.max(np.abs(geo.gamma)) < 1e-12
    sym = geo.gamma - np.swapaxes(geo.gamma, -1, -2)
    assert np.max(np.abs(sym)) < 1e-13


def test_christoffel_symmetry_on_perturbed(geometry_cache):
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    sym = geo.gamma - np.swapaxes(geo.gamma, -1, -2)
    assert np.max(np.abs(sym)) < 1e-13


# ---------------------------------------------------------------------------
# quadrature and Laplace-Beltrami


def test_quadrature_areas(geometry_cache):
    assert grid_ops.quadrature(1.0, geometry_cache("torus", 32, "spectral")) == pytest.approx(
        A_TORUS, abs=1e-10
    )
    assert grid_ops.quadrature(1.0, geometry_cache("clifford", 32, "spectral")) == pytest.approx(
        A_CLIFFORD, abs=1e-10
    )


def test_quadrature_linearity(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    rng = np.random.default_rng(0)
    f = rng.standard_normal((16, 16))
    g = rng.standard_normal((16, 16))
    lhs = grid_ops.quadrature(2.5 * f - 1.5 * g, geo)
    rhs = 2.5 * grid_ops.quadrature(f, geo) - 1.5 * grid_ops.quadrature(g, geo)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_laplace_beltrami_constants_and_cosine(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    assert np.max(np.abs(laplace_beltrami(np.ones((32, 32)), geo))) < 1e-12
    uu, _ = grids.grid_nodes(32)
    lap = laplace_beltrami(np.cos(uu), geo)
    # g^{uu} = 2 on the torus, so Laplacian of cos u is -2 cos u
    assert np.max(np.abs(lap + 2 * np.cos(uu))) < 1e-12


def test_laplacian_integrates_to_zero_any_field(geometry_cache):
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((32, 32))
    assert abs(grid_ops.quadrature(laplace_beltrami(f, geo), geo)) < 1e-11


def test_divergence_integrates_to_zero(geometry_cache):
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    rng = np.random.default_rng(2)
    w = rng.standard_normal((32, 32, 2))
    assert abs(grid_ops.quadrature(grid_ops.divergence(w, geo), geo)) < 1e-11


# ---------------------------------------------------------------------------
# Gauss curvature from the metric


def test_intrinsic_curvature_flat_cases(geometry_cache):
    assert np.max(np.abs(grid_ops.intrinsic_gauss_curvature(
        geometry_cache("torus", 32, "fd4")))) < 1e-8
    assert np.max(np.abs(grid_ops.intrinsic_gauss_curvature(
        geometry_cache("clifford", 32, "fd4")))) < 1e-8


def test_intrinsic_matches_extrinsic_under_refinement(geometry_cache):
    values, order = _fit(
        geometry_cache,
        lambda geo: float(np.max(np.abs(
            grid_ops.intrinsic_gauss_curvature(geo) - geo.data.K))),
    )
    assert order > 3.5
    assert values[0] > values[1] > values[2]


def test_intrinsic_matches_extrinsic_fd2_order(geometry_cache):
    _, order = _fit(
        geometry_cache,
        lambda geo: float(np.max(np.abs(
            grid_ops.intrinsic_gauss_curvature(geo) - geo.data.K))),
        scheme="fd2",
    )
    assert order > 1.8


# ---------------------------------------------------------------------------
# normal Laplacian


def test_normal_laplacian_zero_and_minimal(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    zero = np.zeros((16, 16, 6))
    assert np.max(np.abs(grid_ops.normal_laplacian(zero, geo))) == 0.0
    # H vanishes on the minimal torus, hence so does its Laplacian
    lap = grid_ops.normal_laplacian(geo.data.Hvec, geo)
    assert np.max(contact.norm(lap)) < 1e-11


def test_normal_laplacian_output_is_normal_and_refines(geometry_cache):
    def field(geo):
        _, vv = grids.grid_nodes(geo.n)
        return grid_ops.ker_alpha_normal_field(geo, np.cos(vv), np.sin(vv))

    results = {}
    for n in (32, 64):
        geo = geometry_cache("torus", n, "fd4", eps=0.02)
        lap = grid_ops.normal_laplacian(field(geo), geo)
        dev = float(np.max(contact.norm(lap - geo.frame.normal_part(lap))))
        assert dev < 1e-7 * max(1.0, float(np.max(contact.norm(lap))))
        results[n] = lap
    # Richardson: compare the coarse evaluation on shared nodes
    coarse, fine = results[32], results[64][::2, ::2]
    diff = float(np.max(contact.norm(coarse - fine)))
    geo16 = geometry_cache("torus", 16, "fd4", eps=0.02)
    lap16 = grid_ops.normal_laplacian(field(geo16), geo16)
    diff16 = float(np.max(contact.norm(lap16 - results[32][::2, ::2])))
    assert np.log2(diff16 / diff) > 3.0


def test_normal_laplacian_rejects_tangent_field(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    with pytest.raises(ValueError):
        grid_ops.normal_laplacian(geo.surface.first_derivatives[0], geo)


# ---------------------------------------------------------------------------
# stationarity operators


def test_div_jh_vanishes_on_minimal_torus(geometry_cache):
    div = grid_ops.div_JH(geometry_cache("torus", 32, "spectral"))
    assert np.max(np.abs(div)) < 1e-10


def test_div_jh_mean_zero_on_perturbed(geometry_cache):
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    div = grid_ops.div_JH(geo)
    assert np.max(np.abs(div)) > 1e-3  # genuinely non-stationary
    assert abs(grid_ops.quadrature(div, geo)) < 1e-10


def test_div_jh_rejects_non_legendrian(geometry_cache):
    with pytest.raises(ValueError):
        grid_ops.div_JH(geometry_cache("clifford", 16, "spectral"))


def test_the_frame_flag_gates_every_legendrian_only_operator(flowed_geo):
    """One Legendrian predicate: adapted_frame's flag, at LEGENDRIAN_FRAME_TOL.

    One V_f step off a torus leaves a residual far below any scheme error
    yet above the frame tolerance, so the frame is generic; every
    Legendrian-only operator refuses the grid and the integral report
    gives None for every Legendrian entry.
    """
    res = float(np.max(flowed_geo.frame.legendrian_residual))
    assert extrinsic.LEGENDRIAN_FRAME_TOL < res <= 1e-6
    uu, _ = grids.grid_nodes(flowed_geo.n)
    operators = {
        "div_JH": grid_ops.div_JH,
        "el_residual": grid_ops.el_residual,
        "reeb_pairing_residual": grid_ops.reeb_pairing_residual,
        "mean_curvature_form_closedness": grid_ops.mean_curvature_form_closedness,
        "gradient_norm_decomposition": grid_ops.gradient_norm_decomposition,
        "first_variation_check": lambda geo: flow.first_variation_check(geo, np.cos(uu)),
    }
    for name, op in operators.items():
        with pytest.raises(ValueError, match=f"{name} requires a Legendrian"):
            op(flowed_geo)
    rep = grid_ops.integral_report(flowed_geo)
    assert rep["legendrian"] is False and rep["legendrian_residual"] == res
    for key in ("E", "Sigma_Simons", "li_margin_min", "grad_h_decomposition_res",
                "grad_H_decomposition_res"):
        assert rep[key] is None, key


def test_el_residual_zero_on_torus_nonzero_on_perturbed(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    assert np.max(contact.norm(grid_ops.el_residual(geo))) < 1e-9
    pert = geometry_cache("torus", 32, "spectral", eps=0.05, seed=0)
    assert np.max(contact.norm(grid_ops.el_residual(pert))) > 1e-3


def test_willmore_residual_minimal_surfaces(geometry_cache):
    assert np.max(contact.norm(willmore_residual(
        geometry_cache("torus", 32, "spectral")))) < 1e-9
    assert np.max(contact.norm(willmore_residual(
        geometry_cache("clifford", 32, "spectral")))) < 1e-9
    pert = geometry_cache("torus", 32, "spectral", eps=0.05)
    assert np.max(contact.norm(willmore_residual(pert))) > 1e-3


# ---------------------------------------------------------------------------
# one-form Laplacians


def test_codifferential_adjoint_to_d(geometry_cache):
    """int <df, theta> dmu = int f (delta theta) dmu.

    Central-difference and spectral first derivatives are skew-adjoint
    circulants, so the discrete pairing identity is exact to rounding
    even on curved perturbed metrics.
    """
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((32, 32))
    theta = rng.standard_normal((32, 32, 2))
    df = np.stack([geo.d(f, 0), geo.d(f, 1)], axis=-1)
    pairing = grid_ops.quadrature(
        np.einsum("...ij,...i,...j->...", geo.data.ginv, df, theta), geo
    )
    adjoint = grid_ops.quadrature(f * grid_ops.codifferential(theta, geo), geo)
    assert pairing == pytest.approx(adjoint, abs=1e-11)


def test_oneform_zero_input(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    rough, hodge, res = grid_ops.oneform_laplacians(np.zeros((16, 16, 2)), geo)
    assert np.max(np.abs(rough)) == 0.0
    assert np.max(np.abs(hodge)) == 0.0
    assert np.max(res) == 0.0


def test_hodge_on_exact_form_is_d_delta_d(geometry_cache):
    # d(df) = 0 discretely (axis operators commute), so Delta_h df = d(delta df)
    geo = geometry_cache("torus", 32, "spectral")
    uu, _ = grids.grid_nodes(32)
    f = np.cos(uu)
    df = np.stack([geo.d(f, 0), geo.d(f, 1)], axis=-1)
    curl = geo.d(df[..., 1], 0) - geo.d(df[..., 0], 1)
    assert np.max(np.abs(curl)) < 1e-12
    _, hodge, res = grid_ops.oneform_laplacians(df, geo)
    delta_df = grid_ops.codifferential(df, geo)
    d_delta = np.stack([geo.d(delta_df, 0), geo.d(delta_df, 1)], axis=-1)
    assert np.max(np.abs(hodge - d_delta)) < 1e-11
    # flat metric: Delta_h = -Delta, so the curvature residual vanishes
    assert np.max(res) < 1e-10


def test_weitzenbock_residual_refines(geometry_cache):
    def op(geo):
        uu, vv = grids.grid_nodes(geo.n)
        theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
        _, _, res = grid_ops.oneform_laplacians(theta, geo)
        return float(np.max(res))

    values, order = _fit(geometry_cache, op)
    assert order > 3.5
    assert values[0] > values[1] > values[2]


def test_rough_laplacian_commutes_with_d_modulo_curvature(geometry_cache):
    """Independent oracle for the rough Laplacian on one-forms.

    On a surface, rough(df) = d(Lap f) + K df; this check involves only
    the rough Laplacian, the scalar Laplacian and K, so it validates the
    covariant machinery without touching the Hodge codifferential path.
    """

    def op(geo):
        uu, vv = grids.grid_nodes(geo.n)
        f = np.cos(uu + vv) + 0.5 * np.sin(2 * vv - uu)
        df = np.stack([geo.d(f, 0), geo.d(f, 1)], axis=-1)
        rough = grid_ops.oneform_rough_laplacian(df, geo)
        lap = laplace_beltrami(f, geo)
        dlap = np.stack([geo.d(lap, 0), geo.d(lap, 1)], axis=-1)
        res = rough - dlap - geo.data.K[..., None] * df
        return float(np.max(grid_ops.oneform_norm(res, geo)))

    values, order = _fit(geometry_cache, op)
    assert order > 3.5
    assert values[0] > values[1] > values[2]


def test_weitzenbock_fd2_second_order(geometry_cache):
    def op(geo):
        uu, vv = grids.grid_nodes(geo.n)
        theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
        _, _, res = grid_ops.oneform_laplacians(theta, geo)
        return float(np.max(res))

    _, order = _fit(geometry_cache, op, scheme="fd2")
    assert order > 1.8


# ---------------------------------------------------------------------------
# Legendrian structure-identity residuals


def test_omega_commutation_exact_on_torus(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    _, vv = grids.grid_nodes(32)
    for c1, c2 in ((np.zeros((32, 32)), np.ones((32, 32))), (np.cos(vv), np.zeros((32, 32)))):
        w = grid_ops.ker_alpha_normal_field(geo, c1, c2)
        res = grid_ops.omega_commutation_residual(w, geo)
        assert np.max(grid_ops.oneform_norm(res, geo)) < 1e-11
    zero = np.zeros((32, 32, 6))
    res = grid_ops.omega_commutation_residual(zero, geo)
    assert np.max(np.abs(res)) == 0.0


def test_omega_commutation_refines(geometry_cache):
    def op(geo):
        _, vv = grids.grid_nodes(geo.n)
        w = grid_ops.ker_alpha_normal_field(geo, np.cos(vv), np.zeros((geo.n, geo.n)))
        res = grid_ops.omega_commutation_residual(w, geo)
        return float(np.max(grid_ops.oneform_norm(res, geo)))

    values, order = _fit(geometry_cache, op)
    assert order > 3.5
    assert values[0] > values[1] > values[2]


def test_omega_commutation_rejects_bad_input(geometry_cache):
    geo = geometry_cache("torus", 16, "spectral")
    reeb_field = contact.j_apply(geo.frame.p)  # normal but not in ker alpha
    with pytest.raises(ValueError):
        grid_ops.omega_commutation_residual(reeb_field, geo)


def test_reeb_pairing_zero_on_torus_and_refines(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    assert np.max(np.abs(grid_ops.reeb_pairing_residual(geo))) < 1e-9

    values, order = _fit(
        geometry_cache,
        lambda g: float(np.max(np.abs(grid_ops.reeb_pairing_residual(g)))),
    )
    assert order > 3.5
    assert values[0] > values[1] > values[2]


def test_reeb_pairing_rejects_clifford(geometry_cache):
    with pytest.raises(ValueError):
        grid_ops.reeb_pairing_residual(geometry_cache("clifford", 16, "spectral"))


def test_closedness_zero_on_torus_and_refines(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    assert np.max(np.abs(grid_ops.mean_curvature_form_closedness(geo))) < 1e-10

    values, order = _fit(
        geometry_cache,
        lambda g: float(np.max(np.abs(grid_ops.mean_curvature_form_closedness(g)))),
    )
    assert order > 3.5
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# covariant gradient norms


def test_gradient_norms_on_flat_torus(geometry_cache):
    geo = geometry_cache("torus", 32, "spectral")
    norms = grid_ops.gradient_norm_decomposition(geo)
    # parallel second fundamental form: tangential part zero, full norm = S = 2
    assert np.max(np.abs(norms.tangential_h2)) < 1e-8
    assert np.max(np.abs(norms.full_h2 - 2.0)) < 1e-8
    assert np.max(np.abs(norms.full_H2)) < 1e-10
    assert norms.residual_h_max < 1e-8
    assert norms.residual_H_max < 1e-10
    assert norms.li_margin_min > -1e-8


def test_decomposition_residuals_refine(geometry_cache):
    vals_h, order_h = _fit(
        geometry_cache, lambda g: grid_ops.gradient_norm_decomposition(g).residual_h_max
    )
    vals_H, order_H = _fit(
        geometry_cache, lambda g: grid_ops.gradient_norm_decomposition(g).residual_H_max
    )
    assert order_h > 3.5 and order_H > 3.5
    assert vals_h[0] > vals_h[1] > vals_h[2]
    assert vals_H[0] > vals_H[1] > vals_H[2]


def test_li_margin_nonnegative_on_legendrian_surfaces(geometry_cache):
    for eps, scheme in ((0.0, "spectral"), (0.02, "fd4"), (0.02, "spectral")):
        geo = geometry_cache("torus", 32, scheme, eps=eps)
        norms = grid_ops.gradient_norm_decomposition(geo)
        assert norms.li_margin_min > -1e-8


# ---------------------------------------------------------------------------
# integral report


def test_integral_report_torus_exact_values(geometry_cache):
    rep = grid_ops.integral_report(geometry_cache("torus", 32, "spectral"))
    assert rep["area"] == pytest.approx(A_TORUS, abs=1e-8)
    assert rep["W"] == pytest.approx(2 * A_TORUS, abs=1e-8)
    for key in ("I1", "I2", "I3", "I5"):
        assert abs(rep[key]) < 1e-8
    assert abs(rep["Sigma_Simons"]) < 1e-8
    assert abs(rep["E"]) < 1e-10
    assert rep["legendrian"] is True


def test_integral_report_clifford(geometry_cache):
    rep = grid_ops.integral_report(geometry_cache("clifford", 32, "spectral"))
    assert abs(rep["I3"]) < 1e-8
    assert rep["area"] == pytest.approx(A_CLIFFORD, abs=1e-8)
    assert rep["legendrian"] is False
    assert rep["Sigma_Simons"] is None and rep["E"] is None


def test_integrated_simons_identity_on_perturbed(geometry_cache):
    for n, bound in ((32, 1e-3), (64, 1e-4)):
        rep = grid_ops.integral_report(geometry_cache("torus", n, "spectral", eps=0.02))
        assert abs(rep["Sigma_Simons"]) < bound


def test_integral_report_takes_normal_gradient_of_H_once(monkeypatch):
    # a fresh geometry: a shared one may hold the norms an earlier test cached on it
    geo = grid_ops.derived_geometry(immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral",
                                                               seed=0, mode="generic"))
    assert geo.frame.legendrian
    calls = []  # nabla^nu H is taken by the frame-free route only
    inner = grid_ops._full_gradient_norms
    monkeypatch.setattr(grid_ops, "_full_gradient_norms", lambda g: calls.append(1) or inner(g))
    rep = grid_ops.integral_report(geo)
    assert len(calls) == 1
    assert rep["E"] is not None and rep["Sigma_Simons"] is not None


def test_veronese_pointwise_comparison_integrand():
    surf = immersions.catalog("veronese_s4")
    rng = np.random.default_rng(5)
    u = rng.uniform(0, 2 * np.pi, 200)
    v = rng.uniform(0.35, np.pi - 0.35, 200)
    jet = immersions.eval_jet2(surf, u, v)
    frame = extrinsic.adapted_frame(jet)
    data = extrinsic.extrinsic_data(jet, frame)
    integrand = data.S * (2.0 - 1.5 * data.S)
    assert np.max(np.abs(integrand)) < 1e-8
