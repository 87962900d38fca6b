"""Count the kernel calls of every benchmark op in two source trees.

For each op of the benchmark workloads (perfbench/workloads.py, read
only), a child interpreter per tree imports the library from
<tree>/src, wraps `grids.deriv`, `extrinsic.AdaptedFrame.normal_part`,
`extrinsic.AdaptedFrame.normals`, `grid_ops.gradient_norm_decomposition`
(the one function that takes the frame-component, or tangential, route
of the gradient norms), `extrinsic.pointwise_identity_residuals` (the h^3
and symmetry checks), every transform of `numpy.fft` (one `numpy.fft`
counter for all of them) and `numpy.einsum` (which `contact.dot`,
`contact.contact_form` and `ExtrinsicData.S` look up at call time, so every
pointwise contraction is counted, one per call whatever its size) with
counters, and runs the op
through `legendrian_lab.cli.main` with OMP/OPENBLAS/MKL threads set to 1:
once to fill the caches the op reads (differentiation matrices, node
tables), then, after a full garbage collection, once counted and under
`tracemalloc`, whose peak (`traced_peak_bytes`, the most memory the op's
Python and numpy allocations held at once) repeats to about 100 bytes.
Without the collection the peak also depends on where the cyclic
collector stood after the ops run before it: between two trees it moved
by up to 8 kB where the arrays held at the peak were the same, and by
2 kB on an op that runs none of the code that differs.  One line per op
gives each count as `first -> second`; the counts are deterministic, so
one counted run per tree is enough.  Exits 0, 2 on a usage error, or 3
when a child imports the library from another tree.

    python3 tools/kernel_counts.py ../leglab-parent . [--seed 0] [--json counts.json]

Standard library only; each child imports the library as tools/source_trees.py says.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from source_trees import CHILD_IMPORT, child_env, library_sources, load_workloads

COUNTERS = ("grids.deriv", "AdaptedFrame.normal_part", "AdaptedFrame.normals",
            "gradient_norm_decomposition", "pointwise_identity_residuals", "numpy.fft",
            "numpy.einsum")
KEYS = ("exit", *COUNTERS, "traced_peak_bytes")  # one row per op
CHILD = CHILD_IMPORT + """
import gc, json, tempfile, tracemalloc
import numpy, numpy.fft
from legendrian_lab import cli, extrinsic, grid_ops, grids

counts = {}

def counted(owner, name, label):
    wrapped = getattr(owner, name)
    counts.setdefault(label, 0)
    def call(*args, **kwargs):
        counts[label] += 1
        return wrapped(*args, **kwargs)
    setattr(owner, name, call)

counted(grids, "deriv", "grids.deriv")
counted(extrinsic.AdaptedFrame, "normal_part", "AdaptedFrame.normal_part")
counted(extrinsic.AdaptedFrame, "normals", "AdaptedFrame.normals")
counted(grid_ops, "gradient_norm_decomposition", "gradient_norm_decomposition")
counted(extrinsic, "pointwise_identity_residuals", "pointwise_identity_residuals")
for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
    counted(numpy.fft, name, "numpy.fft")
counted(numpy, "einsum", "numpy.einsum")
rows = []
for argv in json.loads(sys.argv[2]):
    with tempfile.TemporaryDirectory() as out:
        cli.main(argv + ["--out", out])
        counts.update(dict.fromkeys(counts, 0))
        gc.collect()
        tracemalloc.start()
        code = cli.main(argv + ["--out", out])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    rows.append({"exit": code, **counts, "traced_peak_bytes": peak})
print(json.dumps(rows))
"""


def count_ops(src, argvs):
    """One row of counts (and the exit code) per argv, from one child interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argvs)],
                          env=child_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(proc.returncode)  # the child has said why on stderr
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="root of the first source tree")
    parser.add_argument("second", type=Path, help="root of the second source tree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write the counts to this file")
    args = parser.parse_args(argv)
    srcs = library_sources(parser, (args.first, args.second))

    workloads = load_workloads()
    result = {}
    for name, entries in workloads.WORKLOADS.items():
        ops = list(dict.fromkeys((kind, op_args) for kind, op_args, _ in entries))
        argvs = [[kind, *op_args, "--seed", str(args.seed)] for kind, op_args in ops]
        first, second = (count_ops(src, argvs) for src in srcs)
        print(f"workload {name} (seed {args.seed}); each count first -> second")
        result[name] = {}
        for (kind, op_args), a, b in zip(ops, first, second):
            label = workloads.op_label(kind, op_args)
            result[name][label] = {key: {"first": a[key], "second": b[key]}
                                   for key in KEYS}
            print(f"  {label}: " + "; ".join(f"{key} {a[key]} -> {b[key]}"
                                             for key in KEYS))
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
