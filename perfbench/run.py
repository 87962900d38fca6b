"""End-to-end and per-layer benchmark of the `leglab` commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 0 --seconds 50 --trace 0

Each run starts fresh, single-threaded child interpreters one at a time
(never more than this process and one child).  The child imports the
library from `src/`, runs the workload's ops through
`legendrian_lab.cli.main([...])` in passes until `--seconds` is used up,
and checks every op's output.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs every op
untraced and then again with spans around every public function of the
library (see spans.py), for `--seconds` but at least two whole passes,
and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import COUNT_SUFFIXES  # noqa: E402
from workloads import KINDS, WORKLOADS, grid_sizes  # noqa: E402
from yardstick import NOMINAL_S  # noqa: E402

SETUP_SAMPLES = 17  # setup-only interpreter starts per run
TRACE_PASSES = 2  # whole passes of a traced run, whatever --seconds says
RUN_DEADLINE = 170.0  # seconds; the whole run must end within 180


class BenchError(RuntimeError):
    """The benchmark could not run: no library, or a child crashed."""


def child_env():
    env = dict(os.environ)
    env.pop("LEGLAB_THREADS", None)  # a no-op in the library; the caps below are real
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, timeout):
    """Run child.py to completion; return its JSON result and set-up time."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child exceeded {exc.timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - launched


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the full record that main() prints."""
    if not (ROOT / "src" / "legendrian_lab" / "__init__.py").is_file():
        raise BenchError(f"no library source under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def workload_child(min_passes, traced):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--min-passes", str(min_passes), "--work", str(work)]
        return spawn(args + (["--trace"] if traced else []), deadline - time.monotonic())

    def setup_samples(count):
        samples = []
        for _ in range(count):
            result, setup = spawn(["--setup-only"], deadline - time.monotonic())
            # rescaled by the yardstick calls the child makes right after
            # its import (see README.md, "Host speed")
            samples.append(setup * NOMINAL_S / statistics.fmean(result["yardsticks"]))
        return samples

    try:
        if trace:
            # at least two whole passes, so that counts can be compared
            # between traced passes
            child, _ = workload_child(TRACE_PASSES, True)
            shutil.move(work / "spans.jsonl", HERE / ".work" / f"spans-{workload}.jsonl")
        else:
            # set-up samples before and after the workload, so that they
            # span the run rather than one moment of it
            setups = setup_samples(SETUP_SAMPLES // 2)
            child, _ = workload_child(1, False)
            setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = child["ops"]
    # op times are rescaled to the host speed at which the yardstick takes
    # NOMINAL_S (see README.md, "Host speed")
    scale = NOMINAL_S / statistics.fmean(child["yardsticks"])
    problems = [f"{op['label']}: {p}" for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if not op["ok"] or op["problems"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "passes": child["passes"], "ops": ops, "stamp": child["stamp"],
        "attempted": len(ops), "failed": failed, "host_speed": scale,
    }
    if trace:
        layers = child["layers"]
        for key in layers[0]:
            if key.endswith(COUNT_SUFFIXES) and len({p[key] for p in layers}) > 1:
                problems.append(f"count {key} differs between traced passes")
        metrics = {key: (statistics.median(p[key] for p in layers)
                         if key.endswith((".s", ".self_s")) else layers[0][key])
                   for key in layers[0]}
        # mean traced against mean untraced sample of each op, rescaled as
        # the end-to-end times are
        metrics["trace.overhead_s"] = scale * sum(
            statistics.fmean(op["traced_times"]) - statistics.fmean(op["times"]) for op in ops)
        metrics["failed_frac"] = failed / len(ops)
        record["traced_passes"] = child["traced_passes"]
    else:
        metrics = {"setup_s": statistics.median(setups)}
        record["setup_samples"] = len(setups)
        for kind in KINDS:
            metrics[f"{kind}_s"] = scale * sum(statistics.fmean(op["times"])
                                               for op in ops if op["kind"] == kind)
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
    record["metrics"] = metrics
    record["problems"] = problems
    record["correct"] = not problems
    return record


# -- printing ------------------------------------------------------------------

UNITS = {"setup_s": "s", "verify_s": "s", "integrals_s": "s", "flow_s": "s",
         "peak_rss_mb": "MB", "trace.overhead_s": "s"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_ratio", "_per_step")):
        return "ratio"
    return "count"


def _size_bytes(text):
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def size_lines(workload, stamp):
    """Computed array sizes of the workload's grids next to the last-level cache."""
    l3 = _size_bytes(stamp["caches"]["L3"]) if "L3" in stamp["caches"] else None
    lines, largest = [], 0
    for n in grid_sizes(workload):
        field, btensor = n * n * 6 * 8, n * n * 2 * 2 * 6 * 8
        largest = max(largest, btensor)
        lines.append(f"  N={n}: (N,N,6) field {field / 1e6:.3f} MB, "
                     f"B (N,N,2,2,6) {btensor / 1e6:.3f} MB (computed)")
    if l3:
        verdict = ("every array fits in it, so no figure here is a bandwidth measurement"
                   if largest < l3 else "some arrays exceed it")
        lines.append(f"  largest array {largest / 1e6:.1f} MB against L3 {l3 / 1e6:.1f} MB: "
                     f"{verdict}")
    return lines


def report_lines(rec):
    stamp = rec["stamp"]
    lines = [f"leglab benchmark: workload={rec['workload']} seed={rec['seed']} "
             f"seconds={rec['seconds']} trace={int(rec['trace'])}",
             f"closed loop, one caller, one op at a time; {len(rec['passes'])} untraced "
             f"passes of {rec['attempted']} ops in one fresh child (pass s: "
             + " ".join(f"{p:.3f}" for p in rec["passes"]) + ")",
             f"host speed: the yardstick ran {1 / rec['host_speed']:.3f} x its nominal "
             f"{NOMINAL_S} s; op times below are raw, metrics are rescaled by "
             f"{rec['host_speed']:.4f}"]
    if rec["trace"]:
        lines.append("traced passes, each op next to its untraced runs (s): "
                     + " ".join(f"{p:.3f}" for p in rec["traced_passes"]))
    for op in rec["ops"]:
        line = (f"  {op['label']}: mean {statistics.fmean(op['times']):.4f} s, fastest "
                f"{min(op['times']):.4f} s of {len(op['times'])}, "
                f"exit {op['codes'][0]}")
        info = op["info"]
        if info:
            line += (f", steps={info['steps']} stalled={str(info['stalled']).lower()} "
                     f"final/initial div JH={info['div_ratio']:.3e} (tol {info['tol']:g})")
        if not op["ok"]:
            line += "  FAILED"
        lines.append(line)
    for problem in rec["problems"]:
        lines.append(f"  WRONG OUTPUT: {problem}")
    metrics = rec["metrics"]
    lines.append("per-layer metrics (traced run):" if rec["trace"] else "end-to-end metrics:")
    for name, value in metrics.items():
        if name == "failed_frac":
            continue
        note = ""
        if name == "setup_s":
            note = (f"  (median of {rec['setup_samples']} starts: interpreter to "
                    "`import legendrian_lab.cli`)")
        lines.append(f"  {name} = {value!r} {unit_of(name)}{note}")
    lines.append(f"  failed_frac = {rec['failed'] / rec['attempted']!r} ratio "
                 f"({rec['failed']} failed of {rec['attempted']} attempted ops)")
    caches = " ".join(f"{k}={v}" for k, v in stamp["caches"].items())
    threads = " ".join(f"{k}={v}" for k, v in stamp["thread_env"].items())
    lines.append(f"machine: nproc={stamp['nproc']} cpu={stamp['cpu_model']!r} {caches} "
                 f"python={stamp['python']} numpy={stamp['numpy']} blas={stamp['blas']!r} "
                 f"{threads}")
    lines.extend(size_lines(rec["workload"], stamp))
    return lines


def result_line(rec):
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in rec["metrics"].items()}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rec = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(rec)))
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
