"""Span tracing from outside the program, for the per-layer numbers.

The benchmark times each layer by wrapping the public function at the
layer boundary, patched where its caller looks it up (a module attribute
or a class attribute).  Each call records a span -- name, start, end,
parent, operation id -- in memory; :meth:`Tracer.dump` writes them out
when the run ends, and :func:`self_times` derives every layer's self time
(its span minus the part its child spans cover) from that list alone.

The program's own instrumentation (:mod:`repro.obs`) stays off: these
spans are the benchmark's, and uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name).  An attribute path of two parts
#: patches a class attribute (a method); every lookup site of one
#: function is listed, because ``from x import f`` copies the binding.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    # litho
    ("repro.litho.simulator", "LithoSimulator.aerial_image", "litho.image"),
    ("repro.litho.imaging", "SOCSEngine.image", "litho.socs"),
    ("repro.litho.imaging", "SOCSEngine.kernel_set", "litho.kernel_set"),
    ("repro.litho.masks", "MaskSpec.field", "litho.raster"),
    ("repro.litho.resist", "ThresholdResist.latent_image", "litho.resist"),
    ("repro.litho.simulator", "edge_offsets_batch", "litho.epe_gather"),
    # opc
    ("repro.opc.tiling", "model_opc", "opc.model"),
    ("repro.opc.model_opc", "fragment_region", "opc.fragment"),
    ("repro.opc.rule_opc", "fragment_region", "opc.fragment"),
    ("repro.opc.model_opc", "apply_biases", "opc.apply_biases"),
    ("repro.opc.rule_opc", "apply_biases", "opc.apply_biases"),
    ("repro.flow.correct", "rule_opc", "opc.rule"),
    ("repro.flow.tapeout", "repair_mask", "opc.repair"),
    ("repro.opc", "repair_mask", "opc.repair"),
    ("repro.flow.tapeout", "check_mask", "opc.check_mask"),
    # verify
    ("repro.flow.tapeout", "run_orc", "verify.orc"),
    ("repro.opc.mrc", "check_mask_region", "verify.mrc"),
    ("repro.lint.rules_mask", "check_mask_region", "verify.mrc"),
    # lint
    ("repro.flow.tapeout", "preflight_tapeout", "lint.preflight"),
    # geometry
    ("repro.geometry.region", "Region.__and__", "geometry.boolean"),
    ("repro.geometry.region", "Region.__or__", "geometry.boolean"),
    ("repro.geometry.region", "Region.__sub__", "geometry.boolean"),
    ("repro.geometry.region", "Region.__xor__", "geometry.boolean"),
    ("repro.geometry.region", "Region.merged", "geometry.boolean"),
    ("repro.flow.tapeout", "smooth_jogs", "geometry.smooth"),
    # mask
    ("repro.flow.tapeout", "mask_data_stats", "mask.stats"),
    ("repro.flow.correct", "mask_data_stats", "mask.stats"),
)

#: Work counted from a boundary's return value: span name -> function
#: yielding (counter, amount) pairs.
COUNTERS: Dict[str, Callable] = {
    "opc.model": lambda result: (
        ("opc.iterations", len(result.history)),
        ("opc.tiles", 1),
        ("opc.converged", int(result.converged)),
    ),
    "opc.fragment": lambda loops: (
        ("opc.fragments", sum(len(fragments) for fragments in loops)),
    ),
}

#: The root span of one operation: the benchmark's own call into the flow.
ROOT = "flow"

Span = Tuple[str, float, float, int, object]


class Tracer:
    """Patches the layer boundaries and records one span per call."""

    def __init__(self):
        #: (name, start, end, parent index or -1, operation id)
        self.spans: List[Span] = []
        #: Work counts per operation id, from :data:`COUNTERS`.
        self.counts: Dict[object, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.op_id: object = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary (idempotent per install/uninstall pair)."""
        if self._saved:
            return
        for module_name, path, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` recording a ``name`` span per call."""
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children see it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                value = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                tally = counts[self.op_id]
                for key, amount in counter(value):
                    tally[key] += amount
            return value

        return traced

    def call(self, op_id: object, function: Callable, *args, **kwargs):
        """Run one operation under a root ``flow`` span tagged ``op_id``."""
        self.op_id = op_id
        try:
            return self.wrap(function, ROOT)(*args, **kwargs)
        finally:
            self.op_id = None

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines of name/start/end/parent/op."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                )
                handle.write("\n")


def self_times(spans: Sequence[Span], ops: Optional[set] = None) -> Dict[str, float]:
    """Total self time per span name, over spans of the given operations.

    A span's self time is its duration minus the durations of its direct
    children; calls nest strictly (one thread), so that is exactly the
    part of its interval no child covers.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_total[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, op_id) in enumerate(spans):
        if ops is None or op_id in ops:
            totals[name] += (end - start) - child_total[index]
    return dict(totals)


def call_counts(spans: Sequence[Span], ops: Optional[set] = None) -> Dict[str, int]:
    """Number of spans per name, over spans of the given operations."""
    counts: Dict[str, int] = defaultdict(int)
    for name, _start, _end, _parent, op_id in spans:
        if ops is None or op_id in ops:
            counts[name] += 1
    return dict(counts)


def root_time(spans: Sequence[Span], ops: set) -> float:
    """Summed duration of the root spans of the given operations."""
    return sum(
        end - start
        for name, start, end, parent, op_id in spans
        if name == ROOT and parent < 0 and op_id in ops
    )
