"""Count the kernel calls of every benchmark op in two source trees.

For each op of the benchmark workloads (perfbench/workloads.py, read
only), a child interpreter per tree imports the library from
<tree>/src, wraps `grids.deriv`, `extrinsic.AdaptedFrame.normal_part`,
`extrinsic.AdaptedFrame.normals` and every transform of `numpy.fft`
(one `numpy.fft` counter for all of them) with counters, and runs the op
once through `legendrian_lab.cli.main` with OMP/OPENBLAS/MKL threads set
to 1.  One line per op gives each count as `first -> second`; the counts
are deterministic, so a single run per tree is enough.  Exits 0, or 2
on a usage error.

    python3 tools/kernel_counts.py ../leglab-parent . [--seed 0] [--json counts.json]

Standard library only; the library itself is imported from
<tree>/src inside each child, never from this interpreter.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
COUNTERS = ("grids.deriv", "AdaptedFrame.normal_part", "AdaptedFrame.normals", "numpy.fft")
CHILD = """
import json, sys, tempfile
import numpy.fft
sys.path.insert(0, sys.argv[1])
from legendrian_lab import cli, extrinsic, grids

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
for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
    counted(numpy.fft, name, "numpy.fft")
rows = []
for argv in json.loads(sys.argv[2]):
    counts.update(dict.fromkeys(counts, 0))
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(argv + ["--out", out])
    rows.append({"exit": code, **counts})
print(json.dumps(rows))
"""


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def count_ops(src, argvs):
    """One row of counts (and the exit code) per argv, from one child interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argvs)],
                          env=child_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="root of the first source tree")
    parser.add_argument("second", type=Path, help="root of the second source tree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write the counts to this file")
    args = parser.parse_args(argv)
    srcs = [tree.resolve() / "src" for tree in (args.first, args.second)]
    for src in srcs:
        if not (src / "legendrian_lab" / "cli.py").is_file():
            parser.error(f"no library source at {src}")

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
                                   for key in ("exit", *COUNTERS)}
            print(f"  {label}: " + "; ".join(f"{key} {a[key]} -> {b[key]}"
                                             for key in ("exit", *COUNTERS)))
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
