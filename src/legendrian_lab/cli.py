"""Command-line front end: verification suites, integral reports, flows.

Three subcommands, all writing report.json and report.txt (and flow.csv
for the flow) into --out:

  verify     pointwise curvature/identity suite plus, for periodic
             Legendrian surfaces, the grid residual suite: spectral grids
             are judged at N against per-entry roundoff floors, fd grids
             by convergence-order fits on (N/2, N) from N = 64 up where
             N/2 is even, else on (N, 2N); exit 0 iff all assertions pass.
  integrals  area, Willmore energy, comparison integrals and integral
             identities; exit 0 iff the applicable identities hold.
  flow       Legendrian-constrained area descent; exit 0 iff converged.

Exit codes: 0 success, 1 assertion/convergence failure, 2 usage error.
A start that cannot be built is a failure, start_error, with a report.
Reports are byte-identical across runs with identical configuration.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import extrinsic, flow, grid_ops, grids, immersions
from .contact import random_sphere_points, random_tangent, sasakian_identity_residuals
from .report import Report

SURFACES = tuple(name.replace("_", "-") for name in immersions.CATALOG_NAMES)

# assertion tolerances by scheme for integrals of catalog data; the fd
# constants are calibrated to ~5x the measured discretization error on
# the torus at N = 32 (fd schemes certify convergence order, not the
# 1e-8 identities -- those need the spectral scheme)
_INTEGRAL_TOL = {
    "spectral": lambda n: 1e-8,
    "fd4": lambda n: max(1e-8, 25.0 * (2 * np.pi / n) ** 4),
    "fd2": lambda n: max(1e-8, 100.0 * (2 * np.pi / n) ** 2),
}
_MIN_ORDER = {"fd2": 1.8, "fd4": 3.5}
# From this N up an fd order is fitted on (N/2, N), below it on (N, 2N):
# on (32, 64) the lowest order of seeds 0-31 is 3.83 for fd4 and 1.87 for
# fd2, while (16, 32) gives 3.46 for fd4 seed 2 and N = 8 trips div_JH's
# JH tangency guard.  An odd N/2 is no grid, so N = 66, 70, ... keep 2N.
_HALF_N_FROM = 64
_FLOOR = 1e-9  # fd residual pairs below this are "converged at floor"
# A resolved spectral residual is roundoff amplified by about N^k, k the
# derivatives the entry takes of the positions x (Trefethen, Spectral
# Methods in MATLAB, 2000, ch. 3), so a spectral grid is judged at N alone:
# an entry fails above c * eps_mach * N^k * max|x|; the test fields of
# omega_commutation and weitzenbock have unit amplitude.  Each c is 10x,
# rounded up, the largest residual / (eps_mach N^k max|x|) measured on the
# torus family at epsilon <= 0.02: N = 32-256 on seeds 0-31, N = 32 on
# seeds 0-255 (CHANGES.md has the table).
_SPECTRAL_FLOOR = {  # key: (c, k)
    "reeb_pairing": (20.0, 4),            # Delta^nu of H, H from d^2 x
    "closedness": (4.0, 3),               # d of <H, J0 dx>
    "omega_commutation": (30.0, 3),       # Laplacians of w (from dx) with Gamma (d^2 x)
    "weitzenbock": (100.0, 3),            # d delta theta reads d^2 g = d^3 x
    "grad_h_decomposition": (20.0, 3),    # nabla B
    "grad_H_decomposition": (0.5, 3),     # nabla H
    "gauss_consistency": (7.0, 3),        # Brioschi: d^2 g
}


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _validate(args):
    if args.grid % 2 != 0 or not 8 <= args.grid <= 512:
        _usage_error(f"--grid must be even and in [8, 512], got {args.grid}")
    for name in ("tol", "tau0", "epsilon", "theta"):
        if not np.isfinite(getattr(args, name, 0.0)):
            _usage_error(f"--{name} must be finite, got {getattr(args, name)}")
    for name in ("tol", "tau0"):
        if getattr(args, name, 1.0) <= 0:
            _usage_error(f"--{name} must be positive")
    if args.epsilon < 0:
        _usage_error("--epsilon must be nonnegative")
    if args.seed < 0:
        _usage_error(f"--seed must be nonnegative, got {args.seed}")
    if args.surface != "legendrian-torus":
        for name in ("epsilon", "theta"):
            if getattr(args, name) != 0.0:
                _usage_error(f"--{name} applies to the legendrian-torus family only")
    if getattr(args, "max_steps", 1) < 1:
        _usage_error("--max-steps must be at least 1")
    if args.command == "flow" and args.surface != "legendrian-torus":
        _usage_error("flow runs on the legendrian-torus family only")
    if args.command == "integrals" and not all(immersions.catalog(args.surface).periodic):
        _usage_error(f"integrals needs a doubly periodic surface: {args.surface} is not a torus")
    try:  # before any work, so an unusable --out costs nothing
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        _usage_error(f"--out {args.out!r} is not a usable directory: {exc.strerror}")


def _build_grid(args, n=None, mode="generic"):
    n = n or args.grid
    if args.surface != "legendrian-torus":
        surf = immersions.catalog(args.surface)
        return immersions.resample_to_grid(surf, n, args.scheme)
    return immersions.perturbed_torus(
        theta=args.theta, eps=args.epsilon, n=n, scheme=args.scheme,
        seed=args.seed, mode=mode,
    )


def _start(args, rep, failures, mode="generic"):
    """The command's start: the flow's FlowState, or verify's and integrals' derived geometry.

    A start that cannot be built (exp(J0 M) or its image overflows, the
    induced metric degenerates, a flow start is not a Legendrian graph or
    its Lagrangian angle leaves its branch) prints one error line and is
    recorded as the failure start_error, so the command still writes its
    report and exits 1; None is returned.
    """
    try:
        grid = _build_grid(args, mode=mode)
        if mode == "stable":
            return flow.start_flow(grid, tau0=args.tau0)
        return grid_ops.derived_geometry(grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _record(rep, failures, "start_error", str(exc), False)
        return None


def _record(rep, failures, key, value, ok):
    rep.set(key, value)
    if not ok:
        failures.append(key)


def _set_run_keys(rep, args):
    for key in ("command", "surface", "scheme", "grid", "seed"):
        rep.set(key, getattr(args, key))


def _finish(rep, failures, out):
    """Record the verdict, write the reports and return the exit code."""
    rep.set("failed", ",".join(failures) if failures else "none")
    rep.set("passed", not failures)
    rep.write(out)
    return 1 if failures else 0


_POINTWISE_EXPECT = {
    # surface -> (S, K, legendrian); None means not asserted
    "legendrian-torus": (2.0, 0.0, True),
    "equatorial-legendrian-sphere": (0.0, 1.0, True),
    "clifford-s3": (2.0, 0.0, False),
    "veronese-s4": (4.0 / 3.0, 1.0 / 3.0, False),
}


def _pointwise_suite(args, rep, failures):
    """Analytic-jet suite at seeded random parameter points."""
    surf = immersions.catalog(args.surface, theta=args.theta)
    rng = np.random.default_rng(args.seed)
    (u0, u1), (v0, v1) = surf.domain
    margin = 0.0 if surf.periodic[1] else 0.05 * (v1 - v0)
    u = rng.uniform(u0, u1, 1000)
    v = rng.uniform(v0 + margin, v1 - margin, 1000)
    jet = immersions.eval_jet2(surf, u, v)
    frame = extrinsic.adapted_frame(jet)
    data = extrinsic.extrinsic_data(jet, frame)
    ident = extrinsic.pointwise_identity_residuals(data)

    s_exp, k_exp, leg_exp = _POINTWISE_EXPECT[args.surface]
    s_dev = float(np.max(np.abs(data.S - s_exp)))
    k_dev = float(np.max(np.abs(data.K - k_exp)))
    h_max = float(np.max(np.sqrt(data.H2)))
    leg_res = float(np.max(frame.legendrian_residual))
    orth = frame.orthonormality_residual()

    _record(rep, failures, "S_max_dev", s_dev, s_dev <= 1e-9)
    _record(rep, failures, "K_max_dev", k_dev, k_dev <= 1e-9)
    _record(rep, failures, "H_max", h_max, h_max <= 1e-9)
    _record(rep, failures, "frame_orthonormality", orth, orth <= 1e-12)
    _record(rep, failures, "gauss_identity_max", ident.gauss_identity_max,
            ident.gauss_identity_max <= 1e-10)
    rep.set("legendrian", bool(frame.legendrian))
    rep.set("legendrian_residual_max", leg_res)
    if leg_exp:
        _record(rep, failures, "legendrian_ok", leg_res,
                frame.legendrian and leg_res <= 1e-12)
        _record(rep, failures, "h3_max", ident.h3_max, ident.h3_max <= 1e-7)
        _record(rep, failures, "sym3_max", ident.sym3_max, ident.sym3_max <= 1e-7)
    if args.surface == "clifford-s3":
        au = float(np.max(np.abs(
            np.abs(extrinsic.legendrian_residual(jet.value, jet.du, jet.dv)[0]) - 0.5)))
        _record(rep, failures, "alpha_u_dev", au, au <= 1e-12)

    # structure identities of the ambient sphere at random points
    p = random_sphere_points(1000, rng)
    x = random_tangent(p, rng)
    y = random_tangent(p, rng)
    r1, r2 = sasakian_identity_residuals(p, x, y)
    worst = float(max(np.max(r1), np.max(r2)))
    _record(rep, failures, "sasakian_residual_max", worst, worst <= 1e-10)


def _residual_pack(geo):
    """Sup-norms of the Legendrian structure-identity residuals on one grid."""
    n = geo.n
    uu, vv = grids.grid_nodes(n)
    out = {}
    out["reeb_pairing"] = float(np.max(np.abs(grid_ops.reeb_pairing_residual(geo))))
    out["closedness"] = float(np.max(np.abs(grid_ops.mean_curvature_form_closedness(geo))))
    w = grid_ops.ker_alpha_normal_field(geo, np.cos(vv), np.sin(uu))
    resform = grid_ops.omega_commutation_residual(w, geo)
    out["omega_commutation"] = float(np.max(grid_ops.oneform_norm(resform, geo)))
    theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
    _, _, wres = grid_ops.oneform_laplacians(theta, geo)
    out["weitzenbock"] = float(np.max(wres))
    for table in ("gamma", "gamma_trace"):  # dropped from the cache after their last reader
        vars(geo).pop(table, None)
    norms = grid_ops.gradient_norm_decomposition(geo)
    out["grad_h_decomposition"] = norms.residual_h_max
    out["grad_H_decomposition"] = norms.residual_H_max
    out["gauss_consistency"] = _gauss_consistency(geo)
    return out


def _gauss_consistency(geo):
    """Sup-norm of the gap between the Brioschi and the extrinsic Gauss curvature."""
    return float(np.max(np.abs(grid_ops.intrinsic_gauss_curvature(geo) - geo.data.K)))


def _grid_suite(args, rep, failures):
    """Residual suite of a doubly periodic grid.

    Legendrian grids run the structure-identity residual pack: spectral
    at N against _SPECTRAL_FLOOR, fd schemes at N and a partner grid,
    N/2 (key _res_halfN) from N = _HALF_N_FROM up where N/2 is even, else
    2N (_res_2N), whose order fit log2(coarse / fine) must reach
    _MIN_ORDER; a pack that raises (div_JH's JH tangency guard on an
    under-resolved grid) fails as residual_pack_error, its message.
    Other grids check the Gauss curvature consistency.
    """
    geo = _start(args, rep, failures)
    if geo is None:
        return
    if not geo.frame.legendrian:
        kdev = _gauss_consistency(geo)
        rep.set("gauss_consistency_res_N", kdev)
        _record(rep, failures, "gauss_consistency_ok", kdev,
                kdev <= max(1e-8, 100.0 * args.grid ** -2.0))
        return
    rep.set("frame_orthonormality_N", geo.frame.orthonormality_residual())
    x_max = float(np.max(np.abs(geo.frame.p)))
    halve = args.grid >= _HALF_N_FROM and args.grid % 4 == 0
    partner = args.grid // 2 if halve else 2 * args.grid
    try:
        r1 = _residual_pack(geo)
        if args.scheme != "spectral":
            del geo  # freed before the partner grid is built
            r2 = _residual_pack(grid_ops.derived_geometry(_build_grid(args, n=partner)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _record(rep, failures, "residual_pack_error", str(exc), False)
        return
    if args.scheme == "spectral":
        for key, value in r1.items():
            c, k = _SPECTRAL_FLOOR[key]
            floor = c * np.finfo(float).eps * args.grid**k * x_max
            _record(rep, failures, f"{key}_res_N", value, value <= floor)
            rep.set(f"{key}_floor", floor)
        return
    for key in r1:
        coarse, fine = (r2[key], r1[key]) if halve else (r1[key], r2[key])
        rep.set(f"{key}_res_N", r1[key])
        rep.set(f"{key}_res_{'halfN' if halve else '2N'}", r2[key])
        if max(coarse, fine) <= _FLOOR:
            rep.set(f"{key}_order", "floor")
            continue
        order = float(np.log2(coarse / fine)) if fine > 0 else np.inf
        _record(rep, failures, f"{key}_order", order, order >= _MIN_ORDER[args.scheme])


def cmd_verify(args):
    _validate(args)
    rep = Report()
    _set_run_keys(rep, args)
    failures = []
    if args.epsilon == 0.0:
        _pointwise_suite(args, rep, failures)
    if all(immersions.catalog(args.surface, theta=args.theta).periodic):
        _grid_suite(args, rep, failures)
    return _finish(rep, failures, args.out)


def cmd_integrals(args):
    _validate(args)
    failures, refused = [], Report()
    geo = _start(args, refused, failures)
    rep = refused if geo is None else grid_ops.integral_report(geo)
    _set_run_keys(rep, args)
    if geo is None:
        return _finish(rep, failures, args.out)
    tol = _INTEGRAL_TOL[args.scheme](args.grid)
    rep.set("assert_tol", tol)

    if args.surface == "legendrian-torus" and args.epsilon == 0.0:
        a0 = 4 * np.pi**2 / np.sqrt(3)
        for key, expect in (("area", a0), ("W", 2 * a0), ("I1", 0.0), ("I2", 0.0)):
            dev = abs(rep[key] - expect)
            _record(rep, failures, f"{key}_dev", dev, dev <= tol)
        dev = abs(rep["Sigma_Simons"])
        _record(rep, failures, "Sigma_Simons_dev", dev, dev <= tol)
    elif args.surface == "legendrian-torus" and args.epsilon > 0.0:
        # identities that hold for every Legendrian surface
        dev = abs(rep["Sigma_Simons"])
        _record(rep, failures, "Sigma_Simons_dev", dev,
                dev <= max(tol, 1e-3 * (32.0 / args.grid) ** 4))
        li = rep["li_margin_min"]
        _record(rep, failures, "li_margin_ok", li, li >= -1e-8)
    elif args.surface == "clifford-s3":
        a0 = 2 * np.pi**2
        for key, expect in (("area", a0), ("I3", 0.0)):
            dev = abs(rep[key] - expect)
            _record(rep, failures, f"{key}_dev", dev, dev <= tol)
    return _finish(rep, failures, args.out)


def cmd_flow(args):
    _validate(args)
    refused = Report().set("converged", False)
    start = _start(args, refused, [], mode="stable")
    result = None if start is None else flow.run_flow(start, max_steps=args.max_steps,
                                                      tol=args.tol)
    rep = refused if result is None else result.report
    _set_run_keys(rep, args)
    rep.set("epsilon", args.epsilon)
    rep.set("tau0", args.tau0)
    rep.set("tol", args.tol)
    rep.write(args.out)
    if result is None:
        return 1
    flow.write_flow_csv(result.state, os.path.join(args.out, "flow.csv"))
    return 0 if result.converged else 1


@functools.cache
def build_parser():
    """The leglab parser, built once per process: argparse formats on every add_argument.

    Its defaults (flow.DEFAULT_TAU0, DEFAULT_MAX_STEPS, DEFAULT_TOL) are read
    on that first call, so a test that patches them later does not reach the
    CLI's defaults.  Each parse_args returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="leglab",
        description="Verification suites, integral reports and area flows "
        "for Legendrian surface geometry in the unit 5-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--surface", default="legendrian-torus", choices=SURFACES)
        p.add_argument("--theta", type=float, default=0.0,
                       help="torus angle parameter (normalized mod 2pi), torus family only")
        p.add_argument("--epsilon", type=float, default=0.0,
                       help="perturbation amplitude for the torus family")
        p.add_argument("--seed", type=int, default=0, help="perturbation seed")
        p.add_argument("--grid", type=int, default=32, help="grid resolution N (even, 8..512)")
        p.add_argument("--scheme", default="spectral", choices=grids.SCHEMES)
        p.add_argument("--out", default=".", help="output directory for reports")

    pv = sub.add_parser("verify", help="pointwise and grid residual suites")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("integrals", help="integral report and identities")
    common(pi)
    pi.set_defaults(func=cmd_integrals)

    pf = sub.add_parser("flow", help="Legendrian-constrained area descent")
    common(pf)
    pf.add_argument("--tau0", type=float, default=flow.DEFAULT_TAU0)
    pf.add_argument("--max-steps", type=int, default=flow.DEFAULT_MAX_STEPS)
    pf.add_argument("--tol", type=float, default=flow.DEFAULT_TOL,
                    help="target ||div JH||_2 relative to the start")
    pf.set_defaults(func=cmd_flow)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
