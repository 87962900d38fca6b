import warnings

import numpy as np
import pytest

from legendrian_lab import contact, extrinsic, grid_ops, grids, immersions

SQRT3 = np.sqrt(3.0)
A_TORUS = 4 * np.pi**2 / np.sqrt(3)


# ---------------------------------------------------------------------------
# catalog values


def test_torus_value_and_first_jet_at_origin():
    t = immersions.catalog("legendrian_torus", theta=0.0)
    jet = immersions.eval_jet2(t, 0.0, 0.0)
    assert np.allclose(jet.value, np.array([1, 0, 1, 0, 1, 0]) / SQRT3, atol=1e-15)
    assert np.allclose(jet.du, np.array([0, 1, 0, 0, 0, -1]) / SQRT3, atol=1e-15)


def test_clifford_value_at_origin():
    c = immersions.catalog("clifford_s3")
    jet = immersions.eval_jet2(c, 0.0, 0.0)
    assert np.allclose(jet.value, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0, 0, 0])


def test_veronese_pole_hits_fifth_axis():
    # parameter (u, v=0) maps to (x, y, z) = (0, 0, sqrt3)
    v = immersions.catalog("veronese_s4")
    jet = v.evaluator(np.array(0.0), np.array(0.0))
    expected = np.zeros(6)
    expected[4] = -1.0
    assert np.allclose(jet.value, expected, atol=1e-15)


def test_unknown_surface_rejected_and_theta_normalized():
    with pytest.raises(ValueError):
        immersions.catalog("moebius")
    t = immersions.catalog("legendrian_torus", theta=2 * np.pi + 1.0)
    jet = immersions.eval_jet2(t, 0.3, 0.4)
    t2 = immersions.catalog("legendrian_torus", theta=1.0)
    jet2 = immersions.eval_jet2(t2, 0.3, 0.4)
    assert np.allclose(jet.value, jet2.value)


def test_jets_tangent_to_sphere_everywhere():
    rng = np.random.default_rng(0)
    for name in immersions.CATALOG_NAMES:
        surf = immersions.catalog(name)
        (u0, u1), (v0, v1) = surf.domain
        u = rng.uniform(u0, u1, 300)
        v = rng.uniform(v0 + 1e-3, v1 - 1e-3, 300)
        jet = immersions.eval_jet2(surf, u, v)
        assert np.max(np.abs(contact.dot(jet.du, jet.value))) < 1e-10
        assert np.max(np.abs(contact.dot(jet.dv, jet.value))) < 1e-10


def test_equatorial_sphere_real_locus():
    s = immersions.catalog("equatorial_legendrian_sphere")
    jet = immersions.eval_jet2(s, 1.0, 0.5)
    for arr in (jet.value, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv):
        assert np.max(np.abs(arr[..., 1::2])) == 0.0


def test_out_of_domain_rejected_for_charts():
    s = immersions.catalog("equatorial_legendrian_sphere")
    with pytest.raises(ValueError):
        immersions.eval_jet2(s, 0.0, 1.5)


# ---------------------------------------------------------------------------
# jet consistency (finite-difference oracle)


def jet_consistency_check(surface, u, v, h):
    """Max norm difference between analytic jets and central-difference jets.

    The finite-difference jets are built purely from the value function, so
    this is an independent oracle for the hand-coded derivatives; the
    residual is O(h^2).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    jet = surface.evaluator(u, v)
    val = lambda a, b: surface.evaluator(a, b).value
    du = (val(u + h, v) - val(u - h, v)) / (2 * h)
    dv = (val(u, v + h) - val(u, v - h)) / (2 * h)
    duu = (val(u + h, v) - 2 * jet.value + val(u - h, v)) / h**2
    dvv = (val(u, v + h) - 2 * jet.value + val(u, v - h)) / h**2
    duv = (val(u + h, v + h) - val(u + h, v - h) - val(u - h, v + h) + val(u - h, v - h)) / (
        4 * h**2
    )
    pairs = [(du, jet.du), (dv, jet.dv), (duu, jet.duu), (duv, jet.duv), (dvv, jet.dvv)]
    return max(float(np.max(contact.norm(a - b))) for a, b in pairs)


@pytest.mark.parametrize("name", immersions.CATALOG_NAMES)
def test_jet_consistency_at_h_1e4(name):
    surf = immersions.catalog(name)
    res = jet_consistency_check(surf, 0.9, 1.1, h=1e-4)
    assert res < 1e-6


def test_torus_jet_consistency_off_theta_zero():
    """The monomial 2-jet carries theta in the third phase only."""
    surf = immersions.catalog("legendrian_torus", theta=2.5)
    assert jet_consistency_check(surf, 0.9, 1.1, h=1e-4) < 1e-6


def test_jet_consistency_second_order_in_h():
    surf = immersions.catalog("legendrian_torus")
    r1 = jet_consistency_check(surf, 0.7, 0.3, h=1e-3)
    r2 = jet_consistency_check(surf, 0.7, 0.3, h=5e-4)
    assert 3.2 < r1 / r2 < 4.8


# ---------------------------------------------------------------------------
# Legendrian residuals of the catalog


def test_torus_strictly_legendrian_clifford_not():
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 2 * np.pi, 500)
    v = rng.uniform(0, 2 * np.pi, 500)
    for theta in (0.0, 1.0, np.pi):
        t = immersions.catalog("legendrian_torus", theta=theta)
        jet = immersions.eval_jet2(t, u, v)
        au = contact.contact_form(jet.value, jet.du)
        av = contact.contact_form(jet.value, jet.dv)
        assert max(np.max(np.abs(au)), np.max(np.abs(av))) < 1e-12
    c = immersions.catalog("clifford_s3")
    jet = immersions.eval_jet2(c, u, v)
    au = contact.contact_form(jet.value, jet.du)
    av = contact.contact_form(jet.value, jet.dv)
    assert np.max(np.abs(au - 0.5)) < 1e-12
    assert np.max(np.abs(av - 0.5)) < 1e-12


def test_equatorial_sphere_legendrian():
    s = immersions.catalog("equatorial_legendrian_sphere")
    rng = np.random.default_rng(2)
    u = rng.uniform(0, 2 * np.pi, 200)
    v = rng.uniform(-1.2, 1.2, 200)
    jet = immersions.eval_jet2(s, u, v)
    assert np.max(np.abs(contact.contact_form(jet.value, jet.du))) < 1e-12
    assert np.max(np.abs(contact.contact_form(jet.value, jet.dv))) < 1e-12


# ---------------------------------------------------------------------------
# grid resampling and differentiation schemes


def test_resample_requires_double_periodicity():
    s = immersions.catalog("equatorial_legendrian_sphere")
    with pytest.raises(ValueError):
        immersions.resample_to_grid(s, 16)
    with pytest.raises(ValueError):
        immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 15)
    with pytest.raises(ValueError):
        immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 6)


def _max_jet_error(grid, analytic):
    uu, vv = grids.grid_nodes(grid.n)
    exact = analytic.evaluator(uu, vv)
    fd = grid.jets()
    return max(
        float(np.max(contact.norm(getattr(fd, f) - getattr(exact, f))))
        for f in ("du", "dv", "duu", "duv", "dvv")
    )


def test_grid_jets_spectral_machine_accurate():
    t = immersions.catalog("legendrian_torus")
    g = immersions.resample_to_grid(t, 32, "spectral")
    assert _max_jet_error(g, t) < 1e-12


def test_grid_jets_fd4_accuracy_and_refinement():
    t = immersions.catalog("legendrian_torus")
    e32 = _max_jet_error(immersions.resample_to_grid(t, 32, "fd4"), t)
    assert e32 < 1e-4
    e64 = _max_jet_error(immersions.resample_to_grid(t, 64, "fd4"), t)
    order = np.log2(e32 / e64)
    assert order > 3.5


def test_grid_jets_fd2_second_order():
    t = immersions.catalog("legendrian_torus")
    e16 = _max_jet_error(immersions.resample_to_grid(t, 16, "fd2"), t)
    e32 = _max_jet_error(immersions.resample_to_grid(t, 32, "fd2"), t)
    assert 3.2 < e16 / e32 < 4.8


def test_grid_surface_rejects_nan_positions():
    g = immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 16, "fd4")
    pos = g.positions.copy()
    pos[3, 5, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        immersions.GridSurface(positions=pos, scheme="fd4")


# ---------------------------------------------------------------------------
# perturbations


def test_stable_mode_perturbation_increases_area():
    geo = grid_ops.derived_geometry(
        immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral", seed=0, mode="stable")
    )
    assert grid_ops.quadrature(1.0, geo) > A_TORUS + 1e-4


def test_euler_perturbation_along_stable_mode_increases_area():
    # cos(2u) sits above the stability threshold of the torus area Hessian,
    # so one explicit Euler step along V_f gives a strictly larger surface
    # (quadrature oracle)
    g = immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 32, "spectral")
    uu, _ = grids.grid_nodes(32)
    f = 0.02 * np.cos(2 * uu)
    df = (grids.deriv(f, 0, "spectral"), grids.deriv(f, 1, "spectral"))
    v = immersions.variation_field_on_positions(g, f, df)
    geo = grid_ops.derived_geometry(
        immersions.GridSurface(contact.normalize(g.positions + v), g.scheme))
    assert grid_ops.quadrature(1.0, geo) > A_TORUS + 1e-6


def test_ambient_perturbation_exactly_legendrian():
    for mode in ("stable", "generic"):
        g = immersions.perturbed_torus(eps=0.02, n=16, scheme="spectral", seed=1, mode=mode)
        jet = g.jets()
        residual = extrinsic.legendrian_residual(jet.value, jet.du, jet.dv)
        assert max(float(np.max(np.abs(a))) for a in residual) < 1e-10


def test_ambient_perturbation_scale_set_by_eps():
    m = immersions.random_contact_hamiltonian(0.05, seed=2)
    base = immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 32, "fd4")
    f = np.einsum("...i,ij,...j->...", base.positions, m, base.positions)
    assert np.max(np.abs(f)) == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("mode", ["stable", "generic"])
def test_hamiltonian_scale_from_torus_values_keeps_the_matrix_bits(mode):
    """M scaled from the torus values alone equals M scaled from the full fd4 grid surface.

    The basis forms and the reference torus are cached read-only tables, so
    no caller can write them, and a draw of other arguments between two
    identical draws leaves the second with the first's bits.
    """
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pairs = immersions._STABLE_PAIRS + (immersions._GENERIC_PAIRS if mode == "generic" else [])
        basis = [immersions._pair_quadratic(i, j, kind) for i, j in pairs for kind in ("re", "im")]
        m = sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis))
        reference = immersions.resample_to_grid(immersions.catalog("legendrian_torus"), 32,
                                                "fd4").positions
        scale = float(np.max(np.abs(np.einsum("...i,ij,...j->...", reference, m, reference))))
        first = immersions.random_contact_hamiltonian(0.02, seed=seed, mode=mode)
        assert np.array_equal(first, (0.02 / scale) * m)
        other = "generic" if mode == "stable" else "stable"
        immersions.random_contact_hamiltonian(0.5, seed=seed + 1, mode=other)
        second = immersions.random_contact_hamiltonian(0.02, seed=seed, mode=mode)
        assert np.array_equal(second.view(np.uint64), first.view(np.uint64))
    basis, reference = immersions._hamiltonian_tables()
    for table in (*basis, reference):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


# ---------------------------------------------------------------------------
# the closed-form ambient contact flow

J0 = contact.j_apply(np.eye(6)).T  # the matrix of the complex structure


def _project_contact_hyperplane(p, v):
    """Orthogonal projection of v onto ker(alpha) within T_p S^5.

    Removes the radial and Reeb components; idempotent because p and J0 p
    are orthonormal.
    """
    r = contact.j_apply(p)
    w = v - contact.dot(v, p)[..., None] * p
    return w - contact.dot(w, r)[..., None] * r


def test_projection_kills_radial_and_reeb_directions():
    rng = np.random.default_rng(3)
    p = contact.random_sphere_points(50, rng)
    assert np.max(contact.norm(_project_contact_hyperplane(p, p))) < 1e-14
    assert np.max(contact.norm(_project_contact_hyperplane(p, contact.j_apply(p)))) < 1e-14


def test_projection_idempotent_with_null_pairings():
    rng = np.random.default_rng(4)
    p = contact.random_sphere_points(200, rng)
    v = rng.standard_normal((200, 6))
    w = _project_contact_hyperplane(p, v)
    w2 = _project_contact_hyperplane(p, w)
    assert np.max(contact.norm(w - w2)) < 1e-12
    assert np.max(np.abs(contact.dot(w, p))) < 1e-12
    assert np.max(np.abs(contact.contact_form(p, w))) < 1e-12


def _rk4_contact_flow(positions, m, steps=40):
    """Classical RK4 over unit time of the contact field of f = q^T M q."""

    def field(q):
        f = np.einsum("...i,ij,...j->...", q, m, q)
        g_xi = _project_contact_hyperplane(q, 2.0 * q @ m)
        return f[..., None] * contact.j_apply(q) + 0.5 * contact.j_apply(g_xi)

    q, h = positions, 1.0 / steps
    for _ in range(steps):
        k1 = field(q)
        k2 = field(q + 0.5 * h * k1)
        k3 = field(q + 0.5 * h * k2)
        k4 = field(q + h * k3)
        q = q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return contact.normalize(q)


def _preimage_angle(block, angle):
    """arg(A^-1 e^{i angle}) for the 2x2 block A acting on one complex coordinate."""
    x, y = np.tensordot(np.linalg.inv(block), np.stack([np.cos(angle), np.sin(angle)]), 1)
    return np.arctan2(y, x)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("mode", ["stable", "generic"])
def test_perturbed_torus_matches_the_integrated_contact_field(n, mode):
    """A generic start moves the torus nodes.  A stable graph node (u, v) is the
    image of the torus point at (arg(A1^-1 e^{iu}), arg(A2^-1 e^{iv})): its
    phases are closed-form, and its moduli carry the spectral error of h_u and
    h_v (3.2e-11 at N=32, 2.4e-14 at N=128, the roundoff floor)."""
    uu, vv = grids.grid_nodes(n)
    m = immersions.random_contact_hamiltonian(0.02, seed=0, mode=mode)
    if mode == "stable":
        e = immersions.expm(J0 @ m)
        uu, vv = (_preimage_angle(e[2 * k:2 * k + 2, 2 * k:2 * k + 2], t)
                  for k, t in enumerate((uu, vv)))
    base = immersions.catalog("legendrian_torus").evaluator(uu, vv).value
    exact = immersions.perturbed_torus(eps=0.02, n=n, scheme="spectral", seed=0, mode=mode)
    flowed = _rk4_contact_flow(base, m)
    if mode == "generic":
        assert np.max(np.abs(exact.positions - flowed)) <= 1e-14
        return
    got, want = exact.positions.view(complex), flowed.view(complex)
    assert np.max(np.abs(np.angle(got / want))) <= 1e-14
    assert np.max(np.abs(np.abs(got) - np.abs(want))) <= {32: 1e-10, 128: 1e-13}[n]


@pytest.mark.parametrize("mode", ["stable", "generic"])
def test_contact_flow_matrix_is_symplectic(mode):
    for seed in range(3):
        e = immersions.expm(J0 @ immersions.random_contact_hamiltonian(0.02, seed=seed, mode=mode))
        assert np.max(np.abs(e.T @ J0 @ e - J0)) <= 1e-14


def test_hermitian_hamiltonian_flows_by_a_unitary_map():
    s = np.random.default_rng(0).standard_normal((6, 6))
    s = 0.1 * (s + s.T)
    m = s + J0.T @ s @ J0  # commutes with J0: q^T M q is Hermitian
    e = immersions.expm(J0 @ m)
    assert np.max(np.abs(e.T @ e - np.eye(6))) <= 1e-14
    assert np.max(np.abs(e @ J0 - J0 @ e)) <= 1e-14


def test_expm_scales_and_squares_a_rotation():
    # J0^2 = -1, so exp(t J0) = cos t + sin t J0; t = 10 takes five squarings
    for t in (0.0, 0.3, 10.0):
        rotation = np.cos(t) * np.eye(6) + np.sin(t) * J0
        assert np.max(np.abs(immersions.expm(t * J0) - rotation)) <= 1e-13


# ---------------------------------------------------------------------------
# the Legendrian graph arg z3 = h - u - v


def test_spectral_graph_jets_match_differentiated_positions():
    graph = immersions.perturbed_torus(eps=0.02, n=64, scheme="spectral", seed=0)
    jet, p = graph.jets(), graph.positions
    du, dv = (grids.deriv(p, axis, "spectral") for axis in (0, 1))
    expected = {"du": du, "dv": dv, "duu": grids.deriv(p, 0, "spectral", order=2),
                "duv": grids.deriv(du, 1, "spectral"), "dvv": grids.deriv(p, 1, "spectral", order=2)}
    for key, value in expected.items():
        assert np.max(np.abs(getattr(jet, key) - value)) <= 1e-12, key


@pytest.mark.parametrize("scheme", grids.SCHEMES)
def test_graph_is_legendrian_to_rounding_in_every_scheme(scheme):
    jet = immersions.perturbed_torus(eps=0.02, n=32, scheme=scheme, seed=0).jets()
    reeb = contact.j_apply(jet.value)
    for tangent in extrinsic.legendrian_residual(jet.value, jet.du, jet.dv):
        assert np.max(np.abs(tangent)) <= 1e-14
    for second in (jet.duu, jet.duv, jet.dvv):
        assert np.max(np.abs(contact.dot(second, reeb))) <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi, 5.0])
def test_constant_graph_is_the_flat_torus(theta):
    graph = immersions.LegendrianGraph(np.full((16, 16), theta), "fd4")
    torus = immersions.resample_to_grid(immersions.catalog("legendrian_torus", theta=theta),
                                        16, "fd4")
    assert np.max(np.abs(graph.positions - torus.positions)) <= 1e-15
    assert np.array_equal(immersions.perturbed_torus(theta=theta, eps=0.0, n=16).h,
                          np.full((16, 16), theta))


@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi])
@pytest.mark.parametrize("seed", [0, 3])
def test_stable_graph_has_the_area_of_the_moved_torus_nodes(seed, theta):
    """The graph and the expm image of the torus nodes sample one surface."""
    m = immersions.random_contact_hamiltonian(0.02, seed=seed, mode="stable")
    base = immersions.resample_to_grid(immersions.catalog("legendrian_torus", theta=theta), 64,
                                       "spectral")
    moved = immersions.GridSurface(contact.normalize(base.positions @ immersions.expm(J0 @ m).T),
                                   base.scheme)
    graph = immersions.perturbed_torus(theta=theta, eps=0.02, n=64, scheme="spectral", seed=seed)
    areas = [grid_ops.quadrature(1.0, grid_ops.derived_geometry(s)) for s in (graph, moved)]
    assert abs(areas[0] - areas[1]) <= 1e-13


def test_perturbed_torus_names_an_overflowing_image_norm():
    """At epsilon 500 exp(J0 M) is finite but |E q|^2 is not: the error says so, warning-free."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float warning fails the test
        with pytest.raises(ValueError, match=r"\|E q\|\^2 of exp\(J0 M\) .* 5\.000e\+02 over"):
            immersions.perturbed_torus(eps=500.0, n=16, scheme="spectral", mode="generic")
