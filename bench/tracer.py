"""In-memory span tracer that wraps sidephase's public functions from outside.

The program under test is not edited.  `Tracer.install` replaces a function
with a timing wrapper in every `sidephase.*` module namespace that holds it
(and on the class, for methods), so each lookup the program makes at call
time reaches the wrapper.  `Tracer.uninstall` puts the originals back.

Each span records its name, start, end, parent span, invocation id and
thread id.  Worker threads of the Monte Carlo pool start with an empty
stack; their spans take the main thread's innermost open span as parent.
Self time is a span's duration minus the part of its interval covered by
its children: same-thread children never overlap, so their durations add;
children on other threads may overlap each other, so their intervals are
merged first.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Collects spans and per-name totals while installed.

    `totals[name]` is [calls, inclusive seconds, self seconds] since the last
    `reset_totals`; `counts` holds counters that result hooks add to.  At
    most `max_spans` spans are kept for writing out; later ones only feed
    the totals, and `dropped` counts them.
    """

    def __init__(self, max_spans: int) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.invocation = 0
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset_totals(self) -> None:
        with self._lock:
            self.totals = {}
            self.counts = {}

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = value

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, func, on_result):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            same_thread = True
            if stack:
                parent = stack[-1]
            else:
                same_thread = False
                main = tracer._main_stack
                try:
                    parent = main[-1] if stack is not main else None
                except IndexError:
                    parent = None
            # frame: [span id, same-thread child seconds, cross-thread child intervals]
            frame = [next(tracer._ids), 0.0, []]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(name, frame, parent, same_thread, start, end)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def _close(self, name, frame, parent, same_thread, start, end) -> None:
        duration = end - start
        with self._lock:
            covered = frame[1] + covered_length(frame[2], start, end)
            if parent is not None:
                if same_thread:
                    parent[1] += duration
                else:
                    parent[2].append((start, end))
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - covered
            if len(self.spans) < self.max_spans:
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else 0,
                        self.invocation,
                        threading.get_ident(),
                        name,
                        start,
                        end,
                    )
                )
            else:
                self.dropped += 1

    def install(self, targets) -> None:
        """Wrap each (span name, owner, attribute, result hook) target.

        `owner` is the defining module for a function or the class for a
        method.  A result hook is called as hook(tracer, args, result).
        """
        for name, owner, attr, on_result in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, on_result)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "sidephase" and not mod_name.startswith("sidephase."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """CSV of the kept spans, times in seconds from the first span."""
        origin = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,invocation,thread,name,start_s,end_s\n")
            for span_id, parent_id, inv, thread, name, start, end in self.spans:
                fh.write(
                    f"{span_id},{parent_id},{inv},{thread},{name},"
                    f"{start - origin:.9f},{end - origin:.9f}\n"
                )
