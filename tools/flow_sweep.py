"""Run `run_flow` over seeds, schemes and resolutions and print one line per flow.

Each flow starts from `perturbed_torus(eps, n, scheme, seed, mode="stable")`
with the default tau0 (1, the full preconditioned step), tol (1e-4) and
step cap (`flow.STEP_CAP` = 1e-2), as `leglab flow --epsilon EPS` does.
The default sweep is seeds 0-7 at fd4 and spectral, N = 32 and 64,
plus fd4 N = 16 (which stops `under-resolved`) and fd2 N = 32.  A line
gives the stop reason, the accepted steps, the halvings, the final area,
`final_el_residual_sup`, `final_S_max_dev` (max |S - 2| on the final
surface), `final_div_JH_operator_dev` (largest gap between the flow's
-(1/2) Delta_g beta and `grid_ops.div_JH` on the final surface),
`max_legendrian_residual` and whether `final_Sigma_Simons` is reported.
BLAS and OpenMP run one thread, as in the benchmark.

    python3 tools/flow_sweep.py [--seeds 0 1 2 3 4 5 6 7] [--cases fd4:32 spectral:64]
        [--epsilon 0.02] [--json out.json]
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from legendrian_lab import flow, immersions  # noqa: E402

CASES = ("fd4:32", "spectral:32", "fd4:64", "spectral:64", "fd4:16", "fd2:32")


def sweep_row(scheme, n, seed, eps):
    start = immersions.perturbed_torus(eps=eps, n=n, scheme=scheme, seed=seed, mode="stable")
    result = flow.run_flow(start)
    rep = result.report
    return {
        "scheme": scheme, "n": n, "seed": seed,
        "stop_reason": rep["stop_reason"],
        "steps": rep["steps"],
        "halvings": sum(result.state.halvings_history),
        "final_area": rep["final_area"],
        "final_el_residual_sup": rep["final_el_residual_sup"],
        "final_S_max_dev": rep["final_S_max_dev"],
        "final_div_JH_operator_dev": rep["final_div_JH_operator_dev"],
        "max_legendrian_residual": rep["max_legendrian_residual"],
        "sigma_reported": rep["final_Sigma_Simons"] is not None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    parser.add_argument("--cases", nargs="+", default=list(CASES),
                        help="scheme:N pairs, e.g. fd4:32 spectral:64")
    parser.add_argument("--epsilon", type=float, default=0.02)
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'scheme':>8} {'n':>4} {'seed':>4} {'stop_reason':>14} {'steps':>5} {'halv':>4}"
          f" {'final_area':>18} {'el_sup':>9} {'S_dev':>9} {'op_dev':>9} {'leg_res':>9} sigma")
    for case in args.cases:
        scheme, n = case.split(":")
        for seed in args.seeds:
            row = sweep_row(scheme, int(n), seed, args.epsilon)
            rows.append(row)
            print(f"{scheme:>8} {n:>4} {seed:>4} {row['stop_reason']:>14} {row['steps']:>5}"
                  f" {row['halvings']:>4} {row['final_area']:>18.12f}"
                  f" {row['final_el_residual_sup']:>9.2e} {row['final_S_max_dev']:>9.2e}"
                  f" {row['final_div_JH_operator_dev']:>9.2e}"
                  f" {row['max_legendrian_residual']:>9.2e} {row['sigma_reported']}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
