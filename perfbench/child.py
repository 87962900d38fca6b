"""One workload run inside a fresh interpreter; started by run.py.

The parent sets the thread caps in this process's environment before it
starts, so numpy's import below already sees them.  The first statements
import the library and note the clock, which gives the set-up time.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload W --seed S --seconds T --min-passes P --work DIR [--trace]

The last line of standard output is one JSON object with the results.
"""

import time

import legendrian_lab.cli  # noqa: E402  (timed: interpreter start to here)

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, op_argv, op_label  # noqa: E402
from yardstick import BURST, HostSampler, yardstick  # noqa: E402

STATIONARY_FLOOR = 1e-10  # run_flow's absolute stationarity floor
TORUS_AREA = 4 * math.pi**2 / math.sqrt(3)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LEGLAB_THREADS")


def _outputs_digest(outdir):
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_op(kind, args, code, outdir):
    """Compare an op's exit code with its report and recompute its verdicts.

    Returns (ok, problems, info): ok is False when the op did not pass or
    converge; problems lists outputs that contradict each other or the
    known values, i.e. wrong outputs; info is what the summary prints.
    """
    problems = []
    if code not in (0, 1):
        return False, [f"exit status {code}"], {}
    try:
        rep = json.loads((Path(outdir) / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return False, [f"unreadable report.json: {exc}"], {}
    info = {}
    if kind == "flow":
        tol = float(args[args.index("--tol") + 1]) if "--tol" in args else 1e-4
        initial, final = rep["initial_div_JH_l2"], rep["final_div_JH_l2"]
        converged = final <= max(tol * initial, STATIONARY_FLOOR)
        info = {"steps": rep["steps"], "stalled": rep["stalled"],
                "converged": rep["converged"], "div_ratio": final / initial if initial else 0.0,
                "tol": tol}
        ok = bool(rep["converged"])
        if converged != ok:
            problems.append(f"converged={ok} but final/initial div JH = {final / initial:.3e}")
        if rep["stalled"] and ok:
            problems.append("stalled and converged at once")
        if rep["final_area"] > rep["initial_area"]:
            problems.append("area grew under the descent flow")
        rows = (Path(outdir) / "flow.csv").read_text().count("\n")
        if rows != rep["steps"] + 1:
            problems.append(f"flow.csv has {rows} lines for {rep['steps']} steps")
    else:
        ok = rep["passed"] is True
        if (rep["failed"] == "none") != ok:
            problems.append(f"passed={rep['passed']} but failed={rep['failed']!r}")
        if not ok:
            problems.append(f"certificate missing: {rep['failed']}")
        if kind == "integrals" and "--epsilon" not in args and "--surface" not in args:
            if not abs(rep["area"] - TORUS_AREA) <= 1e-8:
                problems.append(f"torus area {rep['area']!r} != 4 pi^2 / sqrt(3)")
    if (code == 0) != ok:
        problems.append(f"exit code {code} does not match the report")
    return ok, problems, info


def run_op(argv, sampler=None):
    """Run one op in this process; returns (exit status, wall seconds).

    The time `sampler` spent in yardstick calls during the op is taken out.
    """
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        code = legendrian_lab.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a crash fails this op; the run goes on
        traceback.print_exc()
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, elapsed - ((sampler.spent if sampler else 0.0) - spent)


def layer_metrics(spans, counters, op_kinds):
    """Per-layer metrics of one pass from its spans and counters."""
    stats = summarize(spans)
    flow_ops = {op for op, kind in enumerate(op_kinds) if kind == "flow"}
    flow_geo = sum(1 for s in spans if s[0] == "grid_ops.derived_geometry" and s[4] in flow_ops)

    def stat(name, field):
        return stats.get(name, {}).get(field, 0)

    out = {}
    for name in ("grids.deriv", "immersions.jets", "immersions.perturbed_torus",
                 "immersions.variation_field_on_positions", "extrinsic.adapted_frame",
                 "grid_ops.derived_geometry", "grid_ops.integral_report",
                 "grid_ops.normal_laplacian", "grid_ops.div_JH", "flow.flow_step"):
        out[f"{name}.calls"] = stat(name, "calls")
    for name in ("grids.deriv", "immersions.jets", "immersions.perturbed_torus",
                 "immersions.variation_field_on_positions", "extrinsic.adapted_frame",
                 "extrinsic.extrinsic_data", "grid_ops.integral_report",
                 "grid_ops.normal_laplacian", "grid_ops.div_JH",
                 "grid_ops.gradient_norm_decomposition", "cli.residual_pack",
                 "cli.pointwise_suite", "flow.descent_potential", "report.write"):
        out[f"{name}.s"] = stat(name, "s")
    for name in ("grid_ops.derived_geometry", "flow.flow_step"):
        out[f"{name}.self_s"] = stat(name, "self_s")
    frames = stat("extrinsic.adapted_frame", "calls")
    accepted = counters.get("flow.accepted_steps", 0)
    trials = stat("flow.area_of_positions", "calls")
    out.update({
        "grids.deriv.bytes": counters.get("grids.deriv.bytes", 0),
        "numpy.fft.calls": counters.get("numpy.fft.calls", 0),
        "extrinsic.adapted_frame.generic_frac":
            counters.get("extrinsic.adapted_frame.generic", 0) / frames if frames else 0.0,
        "flow.accepted_steps": accepted,
        "flow.area_trials": trials,
        "flow.accept_ratio": accepted / trials if trials else 0.0,
        "flow.derived_geometry_per_step": flow_geo / accepted if accepted else 0.0,
        "report.write.bytes": counters.get("report.write.bytes", 0),
    })
    return dict(sorted(out.items()))


def machine_stamp():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError) as exc:  # numpy < 1.25: no mode="dicts"
        blas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(workload, seed, seconds, min_passes, work, traced):
    """Run the workload's ops in passes until `seconds` are used up.

    An op listed more than once in the workload is one op: its samples
    and checks are pooled.  With `traced`, each op runs its repeats
    untraced and again under the tracer, one right after the other, so
    that every traced time has an untraced twin measured on the same host
    conditions.  The host sampler runs throughout, paused while the tracer
    is installed.
    """
    ops = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    records = {}
    for kind, args, _ in ops:
        records.setdefault(op_label(kind, args), {
            "kind": kind, "label": op_label(kind, args), "times": [], "traced_times": [],
            "codes": [], "digests": [], "ok": True, "problems": [], "info": {}})
    last = [0.0] * len(ops)  # seconds each entry of `ops` took in the last pass
    passes, traced_passes, layers = [], [], []
    sampler = HostSampler()
    order = ((False, True), (True, False)) if tracer else ((False,), (False,))
    start = time.monotonic()

    def sample(op, kind, args, rec):
        outdir = tempfile.mkdtemp(prefix=f"op{op}-", dir=work)
        code, elapsed = run_op(op_argv(kind, args, seed, outdir), sampler)
        ok, problems, info = check_op(kind, args, code, outdir)
        rec["codes"].append(code)
        rec["digests"].append(_outputs_digest(outdir))
        rec["ok"] &= ok
        rec["problems"] += [p for p in problems if p not in rec["problems"]]
        rec["info"] = info
        shutil.rmtree(outdir)
        return elapsed

    sampler.start()
    try:
        while True:
            spent = {False: 0.0, True: 0.0}
            whole_pass = True
            for op, (kind, args, repeat) in enumerate(ops):
                rec = records[op_label(kind, args)]
                # after `min_passes` whole passes, start an op only while the
                # time it took in the last pass still fits
                if len(passes) >= min_passes and time.monotonic() - start + last[op] > seconds:
                    whole_pass = False
                    break
                op_start = time.monotonic()
                # untraced first on even passes, traced first on odd ones, so
                # that warm caches favour neither side of the overhead
                for under_trace in order[len(passes) % 2]:
                    for _ in range(repeat):
                        sampler.paused = under_trace
                        sampler.burst()
                        if under_trace:
                            tracer.install()
                            tracer.op = op
                        try:
                            elapsed = sample(op, kind, args, rec)
                        finally:
                            if under_trace:
                                tracer.uninstall()
                        spent[under_trace] += elapsed
                        rec["traced_times" if under_trace else "times"].append(elapsed)
                last[op] = time.monotonic() - op_start
            if not whole_pass:
                break
            passes.append(spent[False])
            if tracer:  # per-layer metrics come from whole passes only
                traced_passes.append(spent[True])
                spans, counters = tracer.take()
                layers.append(layer_metrics(spans, counters, [op[0] for op in ops]))
                Tracer.dump(spans, Path(work) / "spans.jsonl")
    finally:
        sampler.stop()
    for rec in records.values():
        if len(set(rec["digests"])) > 1:
            rec["problems"].append("outputs differ between repeats of the op"
                                   + (", traced or not" if tracer else ""))
        del rec["digests"]
    return {
        "ready": READY,
        "passes": passes,
        "traced_passes": traced_passes,
        "ops": list(records.values()),
        "layers": layers,
        "yardsticks": sampler.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stamp": machine_stamp(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--work")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        yardstick()  # the first call in a process plans its FFTs
        result = {"ready": READY, "yardsticks": [yardstick() for _ in range(BURST)]}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.min_passes,
                              args.work, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
