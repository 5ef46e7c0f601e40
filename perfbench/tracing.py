"""Spans around the calls into each layer of ``cousr``, recorded from outside.

A :class:`Tracer` replaces module attributes such as
``cousr.rulecore.scan_rule_pairs`` with timing wrappers. ``cousr.miner.mine``
looks these names up at call time, so the wrappers see every call without any
change to the package. A target that no longer exists is recorded as absent;
its metrics are then reported as absent, never as zero.

Each span records its name, start, end and parent, the growth of the
resident-set high-water mark across it, the current RSS at both ends and
the size of the wrapped call's return value. Spans stay in memory until the
run writes them out. Cyclic-GC pauses are timed through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import resource
import time
from dataclasses import asdict, dataclass

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    """High-water mark of this process's resident set, in MiB.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces.
    ``ru_maxrss`` (the fallback) survives ``exec``, so in a child it starts
    at the parent's resident set and would hide the child's own peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_rss_mib() -> float | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_MIB
    except OSError:
        return None


def _rows(ul) -> int:
    return len(ul.rows)


def _first_len(pair) -> int:
    return len(pair[0])


# (module, attribute, span name, size of the return value)
TARGETS = (
    ("cousr.seqdb", "load_database", "seqdb.load_database", None),
    ("cousr.seqdb", "parse_database", "seqdb.parse_database", None),
    ("cousr.seqdb", "parse_utility_table", "seqdb.parse_utility_table", None),
    ("cousr.miner", "filter_unpromising_items", "miner.filter_unpromising_items", _first_len),
    ("cousr.measures", "build_item_bitvectors", "measures.build_item_bitvectors", len),
    ("cousr.rulecore", "build_bond_matrix", "rulecore.build_bond_matrix", len),
    ("cousr.rulecore", "scan_rule_pairs", "rulecore.scan_rule_pairs", len),
    ("cousr.rulecore", "build_utility_list", "rulecore.build_utility_list", _rows),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    peak_growth_mib: float = 0.0
    rss_start_mib: float | None = None
    rss_end_mib: float | None = None
    size: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    def install(self) -> None:
        for module_name, attribute, span_name, size in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attribute, None)
            if not callable(original):
                self.absent.append(span_name)
                continue
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self.wrap(span_name, original, size))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def wrap(self, name: str, function, size=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.call(name, function, *args, size=size, **kwargs)

        return traced

    def call(self, name: str, function, *args, size=None, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.rss_start_mib = current_rss_mib()
        peak_before = peak_rss_mib()
        span.start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.peak_growth_mib = peak_rss_mib() - peak_before
            span.rss_end_mib = current_rss_mib()
            self._stack.pop()
        if size is not None:
            try:
                span.size = size(result)
            except (AttributeError, TypeError, IndexError):
                span.size = None
        return result

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed sizes and RSS growth.

        Self time is a span's duration minus that of its direct children; the
        same holds for the self growth of the RSS high-water mark.
        """
        child_s = [0.0] * len(self.spans)
        child_rss = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.seconds
                child_rss[span.parent] += span.peak_growth_mib
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(
                span.name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_mib": 0.0,
                 "self_rss_mib": 0.0, "size": 0},
            )
            entry["calls"] += 1
            entry["total_s"] += span.seconds
            entry["self_s"] += span.seconds - child_s[index]
            entry["rss_mib"] += span.peak_growth_mib
            entry["self_rss_mib"] += span.peak_growth_mib - child_rss[index]
            if entry["size"] is not None:
                entry["size"] = None if span.size is None else entry["size"] + span.size
        return out

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
