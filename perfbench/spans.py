"""Span recorder for the traced benchmark run.

The recorder replaces module-level names that lfisensor's callers look up
(for example ``lfisensor.pipeline.frame_spectrum``) with wrappers that
record one span per call: name, start, end, parent span and cycle id.
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

import json
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """The recorded spans are not properly nested."""


class Recorder:
    """In-memory span list plus the wrappers that fill it.

    ``cycle_span`` names the span that opens a cycle; spans inside it carry
    that cycle's id (0, 1, ... in call order), all others carry -1.
    """

    def __init__(self, cycle_span: str):
        self.spans = []  # (name, start_ns, end_ns, parent id, cycle id)
        self.missing = []
        self._stack = []
        self._cycle = -1
        self._cycles = 0
        self._cycle_span = cycle_span
        self._patched = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(cycle, args, kwargs, result)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        opens_cycle = name == self._cycle_span

        def wrapper(*args, **kwargs):
            sid = len(spans)
            if opens_cycle:
                self._cycle, self._cycles = self._cycles, self._cycles + 1
            cycle = self._cycle
            parent = stack[-1] if stack else -1
            spans.append(None)  # the slot keeps spans in start order
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of atoms, which the garbage collector stops tracking.
                spans[sid] = (name, start, clock(), parent, cycle)
                stack.pop()
                if opens_cycle:
                    self._cycle = -1
            if on_result is not None:
                on_result(cycle, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by its wrapper until :meth:`uninstall`.

        A name the module no longer has is listed in ``missing``; its
        metrics then read 0.
        """
        if not hasattr(module, attr):
            if f"{module.__name__}.{attr}" not in self.missing:
                self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list:
        """Self time of every span, in ns; raises if a child leaves its parent."""
        spans = self.spans
        covered = [0] * len(spans)
        frontier = {}  # parent id -> end of the union of its children so far
        # Spans are appended when they start, so each parent's children
        # arrive in start order and their union is a running merge.
        for name, start, end, parent, _ in spans:
            if parent < 0:
                continue
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                raise TraceError(f"span {name} leaves its parent {spans[parent][0]}")
            reach = frontier.get(parent, p_start)
            covered[parent] += max(0, end - max(start, reach))
            frontier[parent] = max(reach, end)
        return [s[2] - s[1] - c for s, c in zip(spans, covered)]

    def summary(self, selfs, in_cycles: bool, scale=None) -> dict:
        """name -> [calls, inclusive ns, self ns] over spans inside or outside cycles.

        ``scale[cycle]``, when given, multiplies the times of that cycle's spans.
        """
        out = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _, cycle), own in zip(self.spans, selfs):
            if (cycle >= 0) == in_cycles:
                f = scale[cycle] if scale is not None and cycle >= 0 else 1.0
                row = out[name]
                row[0] += 1
                row[1] += (end - start) * f
                row[2] += own * f
        return out

    def check_accounting(self, selfs) -> int:
        """Largest gap, in ns, between a cycle's duration and its spans' self times."""
        total = defaultdict(int)
        root = {}
        for (name, start, end, parent, cycle), own in zip(self.spans, selfs):
            if cycle >= 0:
                total[cycle] += own
                if name == self._cycle_span:
                    root[cycle] = end - start
        return max((abs(total[c] - d) for c, d in root.items()), default=0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "cycle"],
                       "missing": self.missing, "spans": self.spans}, fh)
