"""Time one grid derivative by matrix product against the direct path.

For every scheme, order (1, 2), axis (0, 1) and n, one derivative of a
random (n, n, 6) field -- an ambient vector field, the commonest input of
`grids.deriv` -- is taken by `grids._matrix_deriv` (one GEMM with the
cached circulant matrix) and by `grids._direct_deriv` (the rfft pair or
the shifted stencil).  Each time is the fastest of `--repeat` rounds of
`--number` calls, in microseconds.  BLAS and OpenMP run one thread, as in
the benchmark.  The last lines give, for each n, the smallest speed-up
(direct time / matrix time) over all rows: `grids._MATRIX_MAX_N` is the
largest n at which it stays near 1 or above.

    python3 tools/deriv_timings.py --sizes 32 64 128 256 512 [--json out.json]
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from legendrian_lab import grids  # noqa: E402


def best_us(fn, number, repeat):
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128, 256, 512])
    parser.add_argument("--number", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'n':>4} {'scheme':>8} {'order':>5} {'axis':>4} {'direct_us':>10} {'matrix_us':>10}"
          f" {'speedup':>7}")
    for n in args.sizes:
        f = np.random.default_rng(n).standard_normal((n, n, 6))
        for scheme in grids.SCHEMES:
            for order in (1, 2):
                grids._diff_matrix(n, scheme, order)  # built outside the timing
                for axis in (0, 1):
                    direct = best_us(lambda: grids._direct_deriv(f, axis, scheme, order),
                                     args.number, args.repeat)
                    matrix = best_us(lambda: grids._matrix_deriv(f, axis, scheme, order),
                                     args.number, args.repeat)
                    rows.append({"n": n, "scheme": scheme, "order": order, "axis": axis,
                                 "direct_us": round(direct, 1), "matrix_us": round(matrix, 1)})
                    print(f"{n:>4} {scheme:>8} {order:>5} {axis:>4} {direct:>10.1f}"
                          f" {matrix:>10.1f} {direct / matrix:>7.2f}", flush=True)
        grids._diff_matrix.cache_clear()
    for n in args.sizes:
        worst = min((r["direct_us"] / r["matrix_us"], r["scheme"], r["order"], r["axis"])
                    for r in rows if r["n"] == n)
        print(f"n = {n}: smallest speed-up {worst[0]:.2f} ({worst[1]}, order {worst[2]},"
              f" axis {worst[3]})")
    if args.json:
        args.json.write_text(json.dumps({"field": "(n, n, 6)", "threads": 1, "rows": rows},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
