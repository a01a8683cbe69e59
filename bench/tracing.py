"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each scatterlab layer from the
outside: every module attribute (and the two ``PairFunction`` class
attributes) bound to a listed function is replaced by a wrapper for the
duration of the traced run and restored afterwards.  Replacing every
binding matters because several modules import functions by name, so
patching only the defining module would miss their calls.

Each wrapped call is a span with a name, start, end and parent.  Self time
is the span's duration minus the part covered by its child spans, so the
self times of all spans plus the root's self time add up to the root's
duration exactly.  Aggregates are kept per segment of a pass (a ``props``
invocation or a benchmark-driven block); the first ``SPAN_CAP`` raw spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

ROOT = "bench.pass"
SPAN_CAP = 200_000  # raw spans kept in memory and written out

# Layer name -> (defining module, attribute).  Several functions may share a
# layer name; their calls and self times are reported together.
FUNCTIONS: list[tuple[str, str, str]] = [
    ("universe.random_pair_function", "universe", "random_pair_function"),
    ("universe.pair_closure", "universe", "pair_closure"),
    ("universe.good_pair_violations", "universe", "good_pair_violations"),
    ("poset.restrict", "poset", "restrict"),
    ("poset.validate_condition", "poset", "validate_condition"),
    ("poset.leq", "poset", "leq"),
    ("poset.leq_restricted", "poset", "leq_restricted"),
    ("poset.precedes", "poset", "precedes"),
    ("poset.extend", "poset", "extend_with_point"),
    ("poset.extend", "poset", "extend_into_neighbourhood"),
    ("sampling.iter_conditions", "sampling", "iter_conditions"),
    ("sampling.random_condition", "sampling", "random_condition"),
    ("sampling.good_twin_pair", "sampling", "good_twin_pair"),
    ("sampling.insertion_instance", "sampling", "insertion_instance"),
    ("sampling.random_space", "sampling", "random_space"),
    ("amalgam.good_twin_violations", "amalgam", "good_twin_violations"),
    ("amalgam.amalgamate", "amalgam", "amalgamate"),
    ("amalgam.verify_membership_equiv", "amalgam", "verify_membership_equiv"),
    ("amalgam.insertion_construction", "amalgam", "insertion_construction"),
    ("amalgam.delta_xi", "amalgam", "delta_xi"),
    ("generic.sample_filter", "generic", "sample_filter"),
    ("generic.assemble_space", "generic", "assemble_space"),
    ("generic.space_checks", "generic", "max_invariant_violations"),
    ("generic.space_checks", "generic", "check_star_containment"),
    ("generic.space_checks", "generic", "check_loc_comp_hypothesis"),
    ("generic.space_checks", "generic", "compactness_by_subbase"),
    ("generic.space_checks", "generic", "is_coherent"),
    ("generic.closure", "generic", "closure"),
    ("generic.is_free_sequence", "generic", "is_free_sequence"),
    ("generic.cantor_bendixson", "generic", "cantor_bendixson"),
    ("generic.minimal_nbhd", "generic", "minimal_nbhd"),
    ("generic.fu_leq", "generic", "fu_leq"),
    ("generic.fu_meet", "generic", "fu_meet"),
    ("generic.fu_simulate", "generic", "fu_simulate"),
    ("suites.run_suite", "suites", "run_suite"),
    ("cli.main", "cli", "main"),
    ("formats.to_text", "formats", "to_text"),
]

# Methods on PairFunction: (layer name, attribute, is a staticmethod).
METHODS: list[tuple[str, str, bool]] = [
    ("universe.build", "build", True),
    ("universe.updated", "updated", False),
]

LAYERS: list[str] = list(dict.fromkeys([n for n, _, _ in FUNCTIONS] + [n for n, _, _ in METHODS]))

EXTRA_METRICS: list[tuple[str, str]] = [
    ("universe.build.entries", "count"),
    ("universe.pair_closure.rounds", "count"),
    ("sampling.iter_conditions.yielded", "count"),
    ("amalgam.delta_xi.calls_per_point", "ratio"),
    ("generic.minimal_nbhd.calls_per_point", "ratio"),
    ("suites.checks", "count"),
    ("formats.report_bytes", "bytes"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("bench.checks_per_pass", "count"),
    ("bench.instances_per_pass", "count"),
]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


class _Segment:
    """Aggregates of one segment: per-layer calls and self time."""

    def __init__(self, n: int) -> None:
        self.calls = [0] * n
        self.self_s = [0.0] * n


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT] + LAYERS
        self.ids = {name: k for k, name in enumerate(self.names)}
        self.segments: dict[str, _Segment] = {}
        self.seg = self._segment("")
        self.by_parent: Counter = Counter()  # (layer id, parent layer id) -> calls
        self.counters: Counter = Counter()
        self.spaces: dict[int, object] = {}  # id -> SpaceModel seen by minimal_nbhd
        self.spans: list[tuple] = []  # (span id, layer id, start, end, parent span id, pass)
        self.dropped = 0
        self.pass_index = -1
        self.root_self: list[float] = []
        self.top_level_s: list[float] = []  # per pass: summed durations of the root's children
        self.open_after_pass: list[int] = []  # per pass: spans still open when it ended
        self._next_id = 0
        self._stack: list[list] = []  # frames: [layer id, span id, child time]
        self._patches: list[tuple[object, str, object]] = []

    def _segment(self, label: str) -> _Segment:
        if label not in self.segments:
            self.segments[label] = _Segment(len(self.names))
        return self.segments[label]

    # ---- recording -------------------------------------------------------

    def _enter(self, nid: int) -> list:
        frame = [nid, self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float, count: bool = True) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        nid = frame[0]
        seg = self.seg
        seg.self_s[nid] += dur - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if count:
            seg.calls[nid] += 1
            self.by_parent[(nid, parent[0] if parent else -1)] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], nid, t0, t1, parent[1] if parent else -1, self.pass_index))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = self.ids[name]
        clock = time.perf_counter
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, t0, clock())
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A call counts once; each ``next()`` is a span of the layer."""
        nid = self.ids[name]
        clock = time.perf_counter
        enter, exit_ = self._enter, self._exit
        counters = self.counters

        def iterate(gen):
            while True:
                frame = enter(nid)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame, t0, clock(), count=False)
                counters[name + ".yielded"] += 1
                yield item

        def traced(*args, **kwargs):
            self.seg.calls[nid] += 1
            return iterate(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def set_segment(self, label: str) -> None:
        self.seg = self._segment(label)

    def run_pass(self, body: Callable[[], None]) -> float:
        """Run one pass under the root span; returns its duration."""
        self.pass_index += 1
        self.seg = self._segment("")
        frame = self._enter(self.ids[ROOT])
        t0 = time.perf_counter()
        try:
            body()
        finally:
            t1 = time.perf_counter()
            root_children = frame[2]
            self.seg = self._segment("")
            self._exit(frame, t0, t1)
        self.root_self.append(t1 - t0 - root_children)
        self.top_level_s.append(root_children)
        self.open_after_pass.append(len(self._stack))
        return t1 - t0

    # ---- installing ------------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if not (modname == "scatterlab" or modname.startswith("scatterlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from scatterlab import universe

        counters = self.counters
        spaces = self.spaces

        def count_entries(args, result):
            entries = args[1] if len(args) > 1 else None
            counters["universe.build.entries"] += len(entries or ())

        def count_rounds(args, result):
            counters["universe.pair_closure.rounds"] += result.iterations + 1

        def count_points(args, result):
            counters["amalgam.amalgamate.points"] += len(result.a)

        def note_space(args, result):
            spaces.setdefault(id(args[0]), args[0])

        def count_bytes(args, result):
            counters["formats.report_bytes"] += len(result.encode())

        hooks = {
            "universe.pair_closure": count_rounds,
            "amalgam.amalgamate": count_points,
            "generic.minimal_nbhd": note_space,
            "formats.to_text": count_bytes,
        }
        for name, modname, attr in FUNCTIONS:
            module = sys.modules[f"scatterlab.{modname}"]
            original = getattr(module, attr)
            if name == "sampling.iter_conditions":
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, hooks.get(name))
            self._replace_everywhere(original, wrapper)

        cls = universe.PairFunction
        for name, attr, static in METHODS:
            raw = cls.__dict__[attr]
            fn = raw.__func__ if static else raw
            wrapper = self.wrap(name, fn, count_entries if name == "universe.build" else None)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self.spaces.clear()

    # ---- reporting -------------------------------------------------------

    def layer_totals(self, segments: Optional[set[str]] = None) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per layer, summed over the chosen segments
        (all when ``None``) and over every traced pass."""
        calls: dict[str, int] = {n: 0 for n in self.names}
        self_s: dict[str, float] = {n: 0.0 for n in self.names}
        for label, seg in self.segments.items():
            if segments is not None and label not in segments:
                continue
            for k, name in enumerate(self.names):
                calls[name] += seg.calls[k]
                self_s[name] += seg.self_s[k]
        return calls, self_s

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "fields": ["id", "layer", "start", "end", "parent", "pass"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with path.open("w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
