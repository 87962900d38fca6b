"""Deterministic work counts of the traced run.

    python3 -m pytest -q perfbench/test_spans.py

Runs in-process, with the wrappers installed only inside each test.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from child import layer_metrics, run_op  # noqa: E402
from spans import COUNT_SUFFIXES, Tracer  # noqa: E402
from workloads import WORKLOADS, op_argv  # noqa: E402

from legendrian_lab import flow, grids  # noqa: E402

SPECTRAL_32_FLOW = [("flow", ("--epsilon", "0.02", "--tol", "1e-4", "--grid", "32",
                              "--scheme", "spectral"), 1)]


def traced_pass(ops, seed, out):
    with Tracer() as tracer:
        for op, (kind, args, repeat) in enumerate(ops):
            tracer.op = op
            for i in range(repeat):
                code, _ = run_op(op_argv(kind, args, seed, str(out / f"op{op}-{i}")))
                assert code in (0, 1)
        spans, counters = tracer.take()
    return layer_metrics(spans, counters, [op[0] for op in ops])


def counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def test_spectral_32_flow_counts_repeat_and_match_seed_0(tmp_path):
    first = traced_pass(SPECTRAL_32_FLOW, 0, tmp_path / "a")
    second = traced_pass(SPECTRAL_32_FLOW, 0, tmp_path / "b")
    assert counts(first) == counts(second)
    assert first["numpy.fft.calls"] == second["numpy.fft.calls"] > 0
    assert first["flow.accepted_steps"] == 111
    assert first["grid_ops.derived_geometry.calls"] == 224
    assert first["flow.area_trials"] == 119
    assert first["grids.deriv.calls"] == 4072
    # flow imports this name from immersions, so it is patched in flow's namespace
    assert first["immersions.variation_field_on_positions.calls"] > 0


def test_certify_counts_repeat(tmp_path):
    first = traced_pass(WORKLOADS["certify"], 0, tmp_path / "a")
    second = traced_pass(WORKLOADS["certify"], 0, tmp_path / "b")
    assert counts(first) == counts(second)
    assert first["flow.accepted_steps"] == 0


def test_uninstall_restores_the_library():
    deriv, step, var = grids.deriv, flow.flow_step, flow.variation_field_on_positions
    with Tracer():
        assert grids.deriv is not deriv and flow.variation_field_on_positions is not var
    assert (grids.deriv, flow.flow_step, flow.variation_field_on_positions) == (deriv, step, var)
