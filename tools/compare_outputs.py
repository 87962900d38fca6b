"""Compare the `leglab` outputs of two source trees byte for byte.

Runs every op of the benchmark workloads (perfbench/workloads.py, read
only) plus a few extra ops against the library of each tree, one child
interpreter at a time with OMP/OPENBLAS/MKL threads set to 1, and
compares the exit code and report.json, report.txt and flow.csv of each
op.  When report.json differs, each differing key is printed with both
values and, for two numbers, their relative difference.  After the
per-op lines come two summaries: the largest relative difference of each
differing report.json key over all ops and seeds, and the ops whose exit
code, `steps` or `stop_reason` changed.  Exits 0 when every op agrees,
1 naming each op that differs, 2 on a usage error.

    git worktree add ../leglab-parent HEAD~1
    python3 tools/compare_outputs.py ../leglab-parent . --seeds 0 1 2

Standard library only; each child imports the library as tools/source_trees.py says.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from source_trees import CHILD_IMPORT, child_env, library_sources, load_workloads

OUTPUTS = ("report.json", "report.txt", "flow.csv")
# ops outside the workloads: the fd2 flow; the fd4 N=16 flow, which stops
# under-resolved; a flow from a large perturbation, under-resolved at
# N = 32 from step 0, where the flow's potential and div_JH differ most;
# two non-Legendrian-frame ops, on the integrals and non-torus verify
# paths; the integrals of a theta-shifted torus; the equatorial sphere,
# the one catalog surface no other op runs; a flow with a non-default
# tau0 (a twentieth of the preconditioned step) that stops at max_steps;
# a spectral verify whose N = 256 grid is above grids._MATRIX_MAX_N, so it
# compares the direct (rfft) derivative path too; an fd2 N=8 verify that trips
# div_JH's JH tangency guard (exit 1; its report names residual_pack_error
# in failed), so losing the guard is an exit-code difference; a spectral
# N=16 verify at epsilon 0.3, which trips the same guard on seed 1 and
# fails seven _res_N floors on seed 0; the fd4 N=16 verify of the CLI tests,
# whose weitzenbock_order (3.61) sits closest to the fd4 _MIN_ORDER gate
# of 3.5, so a change that moves the fd4 orders shows there first; and a
# spectral N=16 flow at epsilon 0.3, whose seed-0 start is not a graph on
# the grid (exit 1; its report holds start_error and no flow.csv is
# written), while seeds 1 and 2 start and stop; the integrals of the
# equatorial sphere, which is not doubly periodic, so no grid operator
# applies (a usage error, exit 2); and a flow at epsilon 1e308, whose
# contact Hamiltonian overflows (exit 1; its start_error names the
# overflow), and a verify at epsilon 1e308, which overflows the same way
# and writes its report with start_error as its one failure; and an fd2
# N=64 verify, whose orders are fitted on (32, 64) with the thinnest
# margin of any fd pair (lowest order 1.88 on seeds 0-2, 1.87 on seeds
# 0-31, against the fd2 gate of 1.8); and two fd2 flows whose seed-0 start is
# a graph that start_flow refuses, its Lagrangian angle off its branch
# (epsilon 2, N = 32) or its det g degenerate (epsilon 5, N = 16): each
# exits 1 with start_error in its report and no flow.csv
EXTRA_OPS = (
    ("flow", ("--epsilon", "0.02", "--tol", "1e-4", "--grid", "32", "--scheme", "fd2")),
    ("flow", ("--epsilon", "0.02", "--grid", "16", "--scheme", "fd4")),
    ("flow", ("--epsilon", "0.3", "--grid", "32")),
    ("integrals", ("--surface", "clifford-s3", "--grid", "32")),
    ("verify", ("--surface", "veronese-s4", "--grid", "32")),
    ("integrals", ("--epsilon", "0.02", "--theta", "1.0")),
    ("verify", ("--surface", "equatorial-legendrian-sphere", "--grid", "32")),
    ("flow", ("--epsilon", "0.02", "--grid", "16", "--tau0", "0.05", "--max-steps", "3")),
    ("verify", ("--epsilon", "0.02", "--grid", "256")),
    ("verify", ("--epsilon", "0.02", "--grid", "8", "--scheme", "fd2")),
    ("verify", ("--epsilon", "0.3", "--grid", "16")),
    ("verify", ("--epsilon", "0.02", "--grid", "16", "--scheme", "fd4")),
    ("flow", ("--epsilon", "0.3", "--grid", "16")),
    ("integrals", ("--surface", "equatorial-legendrian-sphere", "--grid", "32")),
    ("flow", ("--epsilon", "1e308")),
    ("verify", ("--epsilon", "1e308")),
    ("verify", ("--epsilon", "0.02", "--grid", "64", "--scheme", "fd2")),
    ("flow", ("--epsilon", "2", "--grid", "32", "--scheme", "fd2")),
    ("flow", ("--epsilon", "5", "--grid", "16", "--scheme", "fd2")),
)
CHILD = CHILD_IMPORT + """
from legendrian_lab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def distinct_ops(workloads):
    ops = []
    for entries in workloads.WORKLOADS.values():
        for kind, args, _ in entries:
            if (kind, args) not in ops:
                ops.append((kind, args))
    return ops + [op for op in EXTRA_OPS if op not in ops]


def run_op(src, argv):
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                          env=child_env(), capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode


def differences(code_a, dir_a, code_b, dir_b):
    diffs = [] if code_a == code_b else [f"exit {code_a} != {code_b}"]
    for name in OUTPUTS:
        a, b = dir_a / name, dir_b / name
        if a.exists() != b.exists():
            diffs.append(f"{name} only in {'first' if a.exists() else 'second'} tree")
        elif a.exists() and not filecmp.cmp(a, b, shallow=False):
            diffs.append(f"{name} differs")
    return diffs


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_reports(dir_a, dir_b):
    return [json.loads((d / "report.json").read_text()) if (d / "report.json").exists() else {}
            for d in (dir_a, dir_b)]


def report_key_differences(first, second):
    """(key, first value, second value, relative difference or None) per differing key."""
    out = []
    for key in sorted(first.keys() | second.keys()):
        a, b = first.get(key, "<absent>"), second.get(key, "<absent>")
        if repr(a) == repr(b):  # repr: NaN equals NaN, 1 differs from 1.0
            continue
        rel = None
        if _is_number(a) and _is_number(b) and max(abs(a), abs(b)) > 0:  # 0 vs -0.0: no ratio
            rel = abs(a - b) / max(abs(a), abs(b))
        out.append((key, a, b, rel))
    return out


def summary_lines(key_diffs, outcome_changes):
    """Largest relative difference per report key over all ops, then the changed outcomes."""
    worst = {}  # key -> (relative difference, larger |value| of that pair), or None
    for key, a, b, rel in key_diffs:
        previous = worst.get(key, (0.0, 0.0))
        if rel is None or previous is None:
            worst[key] = None
        elif rel >= previous[0]:
            worst[key] = (rel, max(abs(a), abs(b)))
    lines = [f"{len(worst)} report key(s) differ; largest relative difference over all ops:"]
    lines += [f"  {key}: " + ("non-numeric change" if pair is None
                              else f"{pair[0]:.2e} at |value| {pair[1]:.2e}")
              for key, pair in sorted(worst.items())]
    lines.append(f"{len(outcome_changes)} op(s) changed exit code, steps or stop_reason"
                 + (":" if outcome_changes else ""))
    lines += [f"  {label}: {change}" for label, change in outcome_changes]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="root of the first source tree")
    parser.add_argument("second", type=Path, help="root of the second source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    srcs = library_sources(parser, (args.first, args.second))

    workloads = load_workloads()
    differing, key_diffs, outcome_changes = [], [], []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for seed in args.seeds:
            for index, (kind, op_args) in enumerate(distinct_ops(workloads)):
                label = f"seed {seed}: {workloads.op_label(kind, op_args)}"
                runs = []
                for side, src in enumerate(srcs):
                    out = Path(tmp) / f"{seed}_{index}_{side}"
                    out.mkdir()
                    runs += [run_op(src, workloads.op_argv(kind, op_args, seed, str(out))), out]
                diffs = differences(*runs)  # exit code and directory of each side
                print(f"{'DIFF' if diffs else 'same'}  {label}"
                      + (f"  ({'; '.join(diffs)})" if diffs else ""), flush=True)
                first, second = load_reports(runs[1], runs[3])
                op_diffs = report_key_differences(first, second)
                for key, a, b, rel in op_diffs:
                    print(f"    {key}: {a!r} -> {b!r}"
                          + ("" if rel is None else f"  (relative difference {rel:.2e})"),
                          flush=True)
                key_diffs += op_diffs
                changed = [f"exit {runs[0]} -> {runs[2]}"] if runs[0] != runs[2] else []
                changed += [f"{key} {a!r} -> {b!r}" for key, a, b, _ in op_diffs
                            if key in ("steps", "stop_reason")]
                if changed:
                    outcome_changes.append((label, "; ".join(changed)))
                if diffs:
                    differing.append(label)
    print(*summary_lines(key_diffs, outcome_changes), sep="\n")
    if differing:
        print(f"{len(differing)} op(s) differ:", *differing, sep="\n  ")
        return 1
    print("all ops byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
