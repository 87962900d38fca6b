"""Spans around the public functions of legendrian_lab, from outside it.

`Tracer.install()` replaces each traced function with a wrapper in every
namespace of the package that holds it, so names imported with
`from .x import f` are covered as well as attribute lookups `x.f`.
`Tracer.uninstall()` puts the originals back.  The `contact` module is
not traced: `dot` alone runs ~24k times per flow and its wrapper would
swamp the trace.

A span is (name, start, end, parent span index, op id).  Spans stay in
memory; `dump` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("grids", "immersions", "extrinsic", "grid_ops", "flow", "cli", "report")
# methods and private functions traced besides each module's public functions
EXTRA = {
    "immersions": {"jets": ("GridSurface", "jets")},
    "report": {"write": ("Report", "write")},
    "cli": {"residual_pack": (None, "_residual_pack"),
            "pointwise_suite": (None, "_pointwise_suite")},
}
# per-layer metrics that are work counts, so repeat exactly between passes
COUNT_SUFFIXES = (".calls", ".bytes", "accepted_steps", "area_trials")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _deriv_bytes(args, kwargs):
    field = args[0] if args else kwargs["f"]
    return lambda out: getattr(field, "nbytes", 0) + out.nbytes


def _generic_frame(args, kwargs):
    return lambda frame: int(not frame.legendrian)


def _accepted_step(args, kwargs):
    state = args[0] if args else kwargs["state"]
    before = state.step_index
    return lambda out: out.step_index - before


def _report_bytes(args, kwargs):
    return lambda path: path.stat().st_size + path.with_suffix(".txt").stat().st_size


# span name -> (counter name, observer); an observer sees the call's
# arguments before it runs and returns a function of its result
OBSERVERS = {
    "grids.deriv": ("grids.deriv.bytes", _deriv_bytes),
    "extrinsic.adapted_frame": ("extrinsic.adapted_frame.generic", _generic_frame),
    "flow.flow_step": ("flow.accepted_steps", _accepted_step),
    "report.write": ("report.write.bytes", _report_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = {}
        self.op = None
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observer = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            post = observer[1](args, kwargs) if observer else None
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if post is not None:
                key = observer[0]
                self.counters[key] = self.counters.get(key, 0) + post(out)
            return out

        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, namespace, attribute, new):
        self._patches.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, new)

    def _targets(self):
        """(span name, owner, attribute) for every traced callable."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"legendrian_lab.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    out.append((f"{layer}.{attr}", module, attr))
            for short, (cls, attr) in EXTRA.get(layer, {}).items():
                owner = getattr(module, cls) if cls else module
                out.append((f"{layer}.{short}", owner, attr))
        return out

    def install(self):
        import numpy.fft

        import legendrian_lab.cli  # noqa: F401  (loads every layer)

        package = [m for name, m in sys.modules.items()
                   if name == "legendrian_lab" or name.startswith("legendrian_lab.")]
        for name, owner, attr in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for attr in FFT_NAMES:
            self._patch(numpy.fft, attr, self._count("numpy.fft.calls", getattr(numpy.fft, attr)))
        return self

    def uninstall(self):
        for namespace, attribute, original in reversed(self._patches):
            setattr(namespace, attribute, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def take(self):
        """Hand over and reset the spans and counters recorded so far."""
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    @staticmethod
    def dump(spans, path):
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only outermost spans of a name, so a name nested in
    itself is not counted twice; self time subtracts the direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        calls, busy, self_s = stats.get(name, (0, 0.0, 0.0))
        nested = False
        ancestor = parent
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        stats[name] = (calls + 1, busy + (0.0 if nested else end - start),
                       self_s + (end - start) - child_time[index])
    return {name: {"calls": c, "s": b, "self_s": s} for name, (c, b, s) in stats.items()}
