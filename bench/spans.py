"""Span recorder for the traced run.

``Tracer.install`` replaces the program's public functions, at run time and
in this process only, by wrappers that record a span around each call:
name, start, end, parent span and operation id. The source files are never
touched, and ``uninstall`` puts every original back. A function imported by
name into several modules is replaced wherever that exact object is bound,
so calls between the program's own modules are seen too.

Spans stay in memory; ``layer_totals`` folds them into per-layer time, self
time (duration minus the time covered by child spans) and calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


def _det_bits(args, result) -> int:
    return result.numerator.bit_length() + result.denominator.bit_length()


def _rref_dim(args, result) -> int:
    return max(args[0].rows, args[0].cols)


def _entries(args, result) -> int:
    return result.rows * result.cols


def _zeon_power_name(args, kwargs) -> str:
    k = kwargs.get("k", args[1] if len(args) > 1 else None)
    return "zeon.psi2" if k == 2 else "zeon.power"


@dataclass(frozen=True)
class Layer:
    name: str
    owner: str  # module path, or "module:Class" for methods
    attrs: tuple
    measure: Optional[Callable] = None  # (args, result) -> int, summed per layer
    namer: Optional[Callable] = None  # (args, kwargs) -> span name


LAYERS = (
    Layer("linalg.det", "zeonmarkov.linalg:Matrix", ("det",), _det_bits),
    Layer("linalg.rref", "zeonmarkov.linalg:Matrix", ("rref",), _rref_dim),
    Layer("linalg.matmul", "zeonmarkov.linalg:Matrix", ("__mul__",)),
    Layer("zeon.psi2", "zeonmarkov.zeon", ("zeon_power",), _entries, _zeon_power_name),
    Layer("zeon.permanent", "zeonmarkov.zeon", ("permanent",)),
    Layer("degree2.actions", "zeonmarkov.degree2",
          ("left_action", "right_action", "left_action_components", "right_action_components")),
    Layer("degree2.identities", "zeonmarkov.degree2",
          ("integration_by_parts", "general_bp_identities", "trace_identity_left",
           "trace_identity_right", "trace_identity_left_stochastic",
           "diag_correction_plus", "diag_correction_minus")),
    Layer("markov.chain_structure", "zeonmarkov.markov", ("chain_structure",)),
    Layer("markov.invariant", "zeonmarkov.markov", ("invariant_distributions",)),
    Layer("markov.limit", "zeonmarkov.markov", ("ergodic_limit",)),
    Layer("markov.quasi_positive", "zeonmarkov.markov", ("is_quasi_positive",)),
    Layer("markov.determinant", "zeonmarkov.markov", ("criterion_determinant",)),
    Layer("markov.zeon_criterion", "zeonmarkov.markov", ("zeon_criterion",)),
    Layer("markov.check_equivalence", "zeonmarkov.markov", ("check_equivalence",)),
    Layer("documents.parse", "zeonmarkov.documents", ("parse_matrix_text",)),
    Layer("documents.serialize", "zeonmarkov.documents",
          ("report_to_dict", "matrix_digest", "matrix_to_rows", "vector_to_dict")),
    Layer("documents.serialize", "zeonmarkov.documents:AnalysisReportDocument", ("to_dict",)),
    Layer("cli.main", "zeonmarkov.cli", ("main",)),
)

LAYER_NAMES = tuple(dict.fromkeys([layer.name for layer in LAYERS] + ["zeon.power"]))


@dataclass
class Tracer:
    """Records spans; ``op`` is the id of the operation now running."""

    spans: list = field(default_factory=list)  # [name, start, end, parent, op, value]
    op: Optional[str] = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, layer: Layer) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure, namer = layer.measure, layer.namer

        def traced(*args, **kwargs):
            record = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                      stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                record[5] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "zeonmarkov" or key.startswith("zeonmarkov.")]
        for layer in LAYERS:
            module_name, _, class_name = layer.owner.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            for attr in layer.attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer.name, original, layer)
                if class_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


@dataclass
class LayerTotals:
    seconds: float = 0.0  # outermost spans of the layer only
    self_seconds: float = 0.0
    calls: int = 0
    value: int = 0  # sum of the layer's measure, e.g. determinant bits
    peak: int = 0  # largest single measure, e.g. the largest rref


def layer_totals(spans: list) -> dict:
    """Per-layer totals. A layer's time counts only its outermost spans, so
    a layer calling itself is not counted twice; self time is each span's
    duration minus the time of its direct children."""
    child_time = defaultdict(float)
    for name, start, end, parent, _op, _value in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(LayerTotals)
    for idx, (name, start, end, parent, _op, value) in enumerate(spans):
        t = totals[name]
        t.calls += 1
        t.self_seconds += (end - start) - child_time[idx]
        if value is not None:
            t.value += value
            t.peak = max(t.peak, value)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            t.seconds += end - start
    return dict(totals)
