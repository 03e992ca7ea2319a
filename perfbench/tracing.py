"""Per-module tracing of scenario runs, installed from outside the package.

The tracer wraps the public layer functions wherever a shadowbench
module has bound them (``from .measurement import run_plan`` gives
``shadowbench.experiments`` its own name for it), records one span per
call in memory, and counts the work those calls did. Self time is a
span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy.linalg

PACKAGE = "shadowbench"

# (module, function) pairs whose calls become spans; the stage each one
# belongs to is listed in perfbench/README.md.
LAYER_FUNCTIONS = (
    ("ensembles", "sample_unitary"),
    ("measurement", "run_plan"),
    ("core", "born_probabilities"),
    ("measurement", "sample_counts"),
    ("measurement", "adjoint_map"),
    ("estimators", "povm_operator_columns"),
    ("experiments", "run_scenario"),
    ("estimators", "FrameOperator.eigensystem"),
    ("estimators", "FrameOperator.ridge_apply"),
    ("estimators", "FrameOperator.pinv_apply"),
    ("core", "log_likelihood"),
    ("core", "project_physical"),
    ("core", "eigenvalue_split"),
    ("core", "frobenius_error"),
    ("core", "expectation"),
    ("theory", "mse_theorem1"),
    ("theory", "empirical_mse"),
    ("experiments", "emit_csv"),
)
LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYER_FUNCTIONS)

# Counters computed exactly from what the traced calls return or build.
COUNTER_UNITS = {
    "computed.records_sampled": "count",
    "computed.frames_built": "count",
    "computed.frame_order": "rows",
    "computed.frame_bytes": "B",
    "computed.frame_accumulate_flops": "flop",
    "computed.eigh_calls": "count",
    "core.log_likelihood.floored_terms": "count",
}


def _count_records(counters, records):
    counters["computed.records_sampled"] += len(records)


def _count_frame_gemm(counters, columns):
    # columns is (D^2, D); the frame update columns @ columns^H is a
    # complex GEMM of D^2 * D^2 * D multiply-adds, 8 real flops each.
    rows, cols = columns.shape
    counters["computed.frame_accumulate_flops"] += 8 * rows * rows * cols


def _count_floored(counters, result):
    counters["core.log_likelihood.floored_terms"] += result.floored_terms


RESULT_HOOKS = {
    "measurement.run_plan": _count_records,
    "estimators.povm_operator_columns": _count_frame_gemm,
    "core.log_likelihood": _count_floored,
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Spans are (span_id, parent_id, name, start, end) tuples. A span
    opened on a thread with no open span of its own (a worker-pool
    thread) takes the outermost open span as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._root = None
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, function in LAYER_FUNCTIONS:
            name = f"{module_name}.{function}"
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in function:
                class_name, attribute = function.split(".")
                cls = getattr(owner, class_name)
                wrapper = self._wrap(name, cls.__dict__[attribute], RESULT_HOOKS.get(name))
                self._patch(cls, attribute, wrapper)
                continue
            original = getattr(owner, function)
            wrapper = self._wrap(name, original, RESULT_HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        frame_class = importlib.import_module(f"{PACKAGE}.estimators").FrameOperator
        self._patch(frame_class, "__post_init__", self._count_frames(frame_class.__post_init__))
        for attribute in ("eigh", "eigvalsh"):
            self._patch(numpy.linalg, attribute, self._count_eigh(getattr(numpy.linalg, attribute)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _wrap(self, name: str, func, hook):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            outermost = parent is None
            if outermost:
                tracer._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if outermost:
                    tracer._root = None
                tracer.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counters, result)
            return result

        return traced

    def _count_frames(self, post_init):
        tracer = self

        @functools.wraps(post_init)
        def counted(frame):
            post_init(frame)
            order = frame.entries.shape[0]
            with tracer._lock:
                counters = tracer.counters
                counters["computed.frames_built"] += 1
                counters["computed.frame_order"] = max(counters["computed.frame_order"], order)
                counters["computed.frame_bytes"] += 16 * order * order

        return counted

    def _count_eigh(self, eigh):
        tracer = self

        @functools.wraps(eigh)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counters["computed.eigh_calls"] += 1
            return eigh(*args, **kwargs)

        return counted


def self_times(spans) -> dict[str, tuple[int, float]]:
    """(calls, total self seconds) per span name.

    Children of one span may run on several threads and overlap, so the
    covered part is the union of their intervals.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, tuple[int, float]] = {}
    for span_id, _, name, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            if child_end > reach:
                covered += child_end - max(child_start, reach)
                reach = child_end
        calls, total = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, total + (end - start - covered))
    return totals
