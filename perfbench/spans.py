"""Span tracing from outside the program.

The tracer wraps chosen ap3 functions at every module attribute that holds
them, so calls made through names imported with ``from .x import y`` are
seen too.  Each wrapped call is a span on its thread's stack; a layer's
self time is its spans' duration minus the duration of spans opened inside
them on the same thread.  Nothing under ``src/`` is changed: ``install``
patches attributes and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

MODULES = (
    "ap3",
    "ap3.bounds",
    "ap3.cli",
    "ap3.experiment",
    "ap3.field",
    "ap3.finder",
    "ap3.functions",
    "ap3.lambda3",
    "ap3.midpoint",
    "ap3.spectral",
)

# (layer, module, attribute).  Only layer boundaries are wrapped: wrapping a
# helper such as translate_scores would move select_translate's self time
# into it.  A dotted attribute names a method or classmethod on a class.
TARGETS = (
    ("field.rref", "ap3.field", "rref"),
    ("field.coset_representatives", "ap3.field", "Subspace.coset_representatives"),
    ("field.sample_uniform_subspace", "ap3.field", "sample_uniform_subspace"),
    ("spectral.dft", "ap3.spectral", "dft"),
    ("spectral.io", "ap3.spectral", "DenseFunction.from_json"),
    ("spectral.io", "ap3.spectral", "DenseFunction.to_json"),
    ("spectral.io", "ap3.spectral", "DenseFunction.from_csv"),
    ("spectral.io", "ap3.spectral", "DenseFunction.to_csv"),
    ("spectral.io", "ap3.spectral", "Spectrum.to_csv"),
    ("lambda3.brute", "ap3.lambda3", "lambda3_brute"),
    ("lambda3.spectral", "ap3.lambda3", "lambda3_spectral"),
    ("lambda3.pair_count", "ap3.lambda3", "midpoint_pair_count"),
    ("lambda3.pair_count", "ap3.lambda3", "endpoint_pair_count"),
    ("finder.find", "ap3.finder", "find_good_subspace"),
    ("finder.estimate", "ap3.finder", "estimate_condition_probabilities"),
    ("finder.estimate", "ap3.finder", "chebyshev_moments"),
    ("midpoint.select_translate", "ap3.midpoint", "select_translate"),
    ("midpoint.frame_build", "ap3.midpoint", "SubspaceFrame.build"),
    ("midpoint.run_depletion", "ap3.midpoint", "run_depletion"),
    ("experiment.run_experiment", "ap3.experiment", "run_experiment"),
    ("experiment.run_config", "ap3.experiment", "run_config"),
    ("cli.estimate_row", "ap3.cli", "_estimate_row"),
)


class Tracer:
    """Aggregates spans and counters for the units run while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.top_spans: list = []  # (start, end) of spans opened on an empty stack
        self.step_gaps_s: list = []

    # Hooks that turn arguments or results into work counts.
    def _before(self, layer: str, args, kwargs) -> None:
        if layer == "midpoint.run_depletion":
            self._local.last_pair = None
        elif layer == "lambda3.pair_count":
            now = time.perf_counter()
            last = getattr(self._local, "last_pair", None)
            if last is not None:
                with self._lock:
                    self.step_gaps_s.append(now - last)
            self._local.last_pair = now

    def _after(self, layer: str, args, kwargs, result) -> None:
        with self._lock:
            if layer == "midpoint.select_translate":
                translates = kwargs["translates"] if "translates" in kwargs else args[2]
                self.counts["midpoint.translates_scored"] += int(translates.size)
            elif layer == "finder.find":
                self.counts["finder.attempts"] += int(result.attempts)
            elif layer == "lambda3.brute":
                self.counts["lambda3.brute.ops"] += int(args[0].params.F) ** 2

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            tracer._before(layer, args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inner = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.calls[layer] += 1
                    tracer.total_s[layer] += duration
                    tracer.self_s[layer] += duration - inner
                    if not stack:
                        tracer.top_spans.append((start, end))
            tracer._after(layer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(layer, raw.__func__))
                else:
                    patched = self._wrap(layer, raw)
                setattr(cls, meth, patched)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._undo.append((module, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo = []

    def covered_s(self) -> float:
        """Wall time during which some thread was inside a wrapped span."""
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(self.top_spans):
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered
