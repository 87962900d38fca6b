"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines; every tolerance and budget is fixed here, nothing is deferred.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from legendrian_lab import cli, contact, extrinsic, flow, grid_ops, grids, immersions
from tests.conftest import A_TORUS, fit_convergence_order


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _sample(surface, n, seed):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = surface.domain
    margin = 0.0 if surface.periodic[1] else 0.05 * (v1 - v0)
    u = rng.uniform(u0, u1, n)
    v = rng.uniform(v0 + margin, v1 - margin, n)
    jet = immersions.eval_jet2(surface, u, v)
    frame = extrinsic.adapted_frame(jet)
    return jet, frame, extrinsic.extrinsic_data(jet, frame)


def test_criterion_1_catalog_pointwise_values():
    with criterion(1, "catalog pointwise values, 1000 points each, < 1 s"):
        start = time.perf_counter()
        for theta in (0.0, 1.0, np.pi):
            surf = immersions.catalog("legendrian_torus", theta=theta)
            _, _, data = _sample(surf, 1000, seed=10)
            assert np.max(np.abs(data.S - 2.0)) <= 1e-9
            assert np.max(np.sqrt(data.H2)) <= 1e-9
            assert np.max(np.abs(data.K)) <= 1e-9
            assert np.max(data.frame.legendrian_residual) <= 1e-12
        _, _, sph = _sample(immersions.catalog("equatorial_legendrian_sphere"), 1000, 11)
        assert np.max(sph.S) <= 1e-10
        assert np.max(np.abs(sph.K - 1.0)) <= 1e-9
        _, _, ver = _sample(immersions.catalog("veronese_s4"), 1000, 12)
        assert np.max(np.abs(ver.S - 4.0 / 3.0)) <= 1e-9
        assert np.max(np.sqrt(ver.H2)) <= 1e-9
        jet, _, cli_data = _sample(immersions.catalog("clifford_s3"), 1000, 13)
        assert np.max(np.abs(cli_data.S - 2.0)) <= 1e-9
        au, _ = extrinsic.legendrian_residual(jet.value, jet.du, jet.dv)
        assert np.max(np.abs(au - 0.5)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"pointwise suite took {elapsed:.2f} s"


def test_criterion_2_structure_identity_suite():
    with criterion(2, "Sasakian identities and second-form symmetry"):
        rng = np.random.default_rng(20)
        p = contact.random_sphere_points(1000, rng)
        x = contact.random_tangent(p, rng)
        y = contact.random_tangent(p, rng)
        r1, r2 = contact.sasakian_identity_residuals(p, x, y)
        assert np.max(r1) <= 1e-10
        assert np.max(r2) <= 1e-10

        # Legendrian surfaces: analytic catalog plus an ambient-perturbed grid
        for theta in (0.0, 1.0, np.pi):
            _, _, data = _sample(
                immersions.catalog("legendrian_torus", theta=theta), 1000, 21
            )
            ident = extrinsic.pointwise_identity_residuals(data)
            assert ident.h3_max <= 1e-7
            assert ident.sym3_max <= 1e-7
        _, _, data = _sample(
            immersions.catalog("equatorial_legendrian_sphere"), 1000, 22
        )
        ident = extrinsic.pointwise_identity_residuals(data)
        assert ident.h3_max <= 1e-7 and ident.sym3_max <= 1e-7

        geo = grid_ops.derived_geometry(
            immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral", seed=0,
                                       mode="generic")
        )
        ident = extrinsic.pointwise_identity_residuals(geo.data)
        assert ident.h3_max <= 1e-7
        assert ident.sym3_max <= 1e-7


def test_criterion_3_lemma_grid_convergence(geometry_cache):
    with criterion(3, "structure-identity residual convergence, order >= 3.5, < 2 min"):
        start = time.perf_counter()
        ns = (16, 32, 64)

        def pack(geo):
            n = geo.n
            uu, vv = grids.grid_nodes(n)
            out = {}
            out["reeb_pairing"] = float(np.max(np.abs(
                grid_ops.reeb_pairing_residual(geo))))
            w = grid_ops.ker_alpha_normal_field(geo, np.cos(vv), np.sin(uu))
            res = grid_ops.omega_commutation_residual(w, geo)
            out["omega_commutation"] = float(np.max(grid_ops.oneform_norm(res, geo)))
            theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
            _, _, wres = grid_ops.oneform_laplacians(theta, geo)
            out["weitzenbock"] = float(np.max(wres))
            out["closedness"] = float(np.max(np.abs(
                grid_ops.mean_curvature_form_closedness(geo))))
            norms = grid_ops.gradient_norm_decomposition(geo)
            out["decomposition_h"] = norms.residual_h_max
            out["decomposition_H"] = norms.residual_H_max
            return out

        packs = [pack(geometry_cache("torus", n, "fd4", eps=0.02, mode="generic"))
                 for n in ns]
        for key in packs[0]:
            vals = [p[key] for p in packs]
            assert vals[0] > vals[1] > vals[2], f"{key} not monotone: {vals}"
            order = fit_convergence_order(ns, vals)
            assert order >= 3.5, f"{key} fitted order {order:.2f} < 3.5"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"convergence suite took {elapsed:.1f} s"


def test_criterion_4_integrated_simons_identity(geometry_cache):
    with criterion(4, "integrated Simons identity"):
        rep32 = grid_ops.integral_report(
            geometry_cache("torus", 32, "spectral", eps=0.02, mode="generic"))
        assert abs(rep32["Sigma_Simons"]) <= 1e-3
        rep64 = grid_ops.integral_report(
            geometry_cache("torus", 64, "spectral", eps=0.02, mode="generic"))
        assert abs(rep64["Sigma_Simons"]) <= 1e-4
        exact = grid_ops.integral_report(geometry_cache("torus", 32, "spectral"))
        assert abs(exact["Sigma_Simons"]) <= 1e-8


def test_criterion_5_integral_values(geometry_cache):
    with criterion(5, "integral values and Li margin"):
        for theta in (0.0, 1.0, np.pi):
            geo = grid_ops.derived_geometry(immersions.resample_to_grid(
                immersions.catalog("legendrian_torus", theta=theta), 32, "spectral"))
            rep = grid_ops.integral_report(geo)
            assert abs(rep["area"] - A_TORUS) <= 1e-8
            assert abs(rep["W"] - 2 * A_TORUS) <= 1e-8
            assert abs(rep["I1"]) <= 1e-8
            assert rep["li_margin_min"] >= -1e-8
        rep0 = grid_ops.integral_report(geometry_cache("torus", 32, "spectral"))
        assert abs(rep0["I2"]) <= 1e-8
        repc = grid_ops.integral_report(geometry_cache("clifford", 32, "spectral"))
        assert abs(repc["I3"]) <= 1e-8
        for eps, scheme in ((0.02, "fd4"), (0.02, "spectral")):
            geo = geometry_cache("torus", 32, scheme, eps=eps, mode="generic")
            norms = grid_ops.gradient_norm_decomposition(geo)
            assert norms.li_margin_min >= -1e-8


def test_criterion_6_first_variation_agreement(geometry_cache):
    with criterion(6, "first-variation three-way agreement, 1e-6 relative"):
        geo = geometry_cache("torus", 32, "spectral", eps=0.02, mode="generic")
        f = grid_ops.div_JH(geo)
        a, b, c = flow.first_variation_check(geo, f, eps=1e-3)
        scale = max(abs(a), abs(b), abs(c))
        assert abs(a - c) / scale <= 1e-6
        assert abs(b - c) / scale <= 1e-6
        assert abs(a - b) / scale <= 1e-6


def test_criterion_7_flow_certification():
    with criterion(7, "area flow converges and certifies stationarity, < 1 min"):
        start = time.perf_counter()
        surface = immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral",
                                             seed=0, mode="stable")
        result = flow.run_flow(surface, max_steps=5000, tol=1e-4)
        elapsed = time.perf_counter() - start
        rep = result.report
        areas = result.state.area_history
        assert all(areas[i + 1] < areas[i] for i in range(len(areas) - 1))
        assert result.converged and rep["steps"] <= 5000
        assert rep["final_div_JH_l2"] <= 1e-4 * rep["initial_div_JH_l2"]
        assert abs(rep["final_area"] - A_TORUS) <= 1e-4
        assert rep["final_el_residual_sup"] <= 1e-3
        assert rep["max_legendrian_residual"] <= 1e-4
        assert rep["final_I1"] <= 1e-3
        assert abs(rep["final_E"]) <= 1e-3
        assert elapsed < 60.0, f"flow took {elapsed:.1f} s"


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion(8, "byte-identical reports for identical configuration"):
        for args in (
            ["integrals", "--surface", "legendrian-torus", "--epsilon", "0.02",
             "--seed", "0", "--grid", "16"],
            ["verify", "--surface", "clifford-s3", "--grid", "16"],
        ):
            out1 = tmp_path / ("a" + args[0])
            out2 = tmp_path / ("b" + args[0])
            assert cli.main(args + ["--out", str(out1)]) == 0
            assert cli.main(args + ["--out", str(out2)]) == 0
            b1 = (out1 / "report.json").read_bytes()
            b2 = (out2 / "report.json").read_bytes()
            assert b1 == b2
            json.loads(b1)  # well-formed
