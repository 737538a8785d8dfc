"""Span tracer that instruments the program from outside.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
attribute or a class method, wherever the caller looks it up) with a
wrapper that records a span ``(name, start, end, parent, traj_id)`` per
call; ``Tracer.restore()`` puts every original back. Spans stay in memory
until a traced phase has been analysed; ``flush()`` then appends them to
the span file (one JSON list per line) and starts the next phase empty.

Self time of a span is its duration minus the time its child spans cover.
Calls are synchronous and single-threaded, so children never overlap and
that is a plain subtraction.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, path: str | None = None):
        self.path = path
        if path:
            open(path, "w").close()
        self.spans: list[list] = []  # [name, start, end, parent, traj_id]
        self.counts: dict[str, float] = defaultdict(float)
        self.traj_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- instrumentation ---------------------------------------------------
    def _patch(self, owner, attr, wrapper) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of ``owner.attr``. ``after`` is
        called as ``after(tracer, args, kwargs, result)`` once the call
        returns, to update counters at the same boundary."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.traj_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str, after=None) -> None:
        """Count calls of ``owner.attr`` without a span, for hot
        constructors such as ``Tensor.__init__`` and for calls whose time
        belongs to their caller. ``after`` works as in :meth:`wrap`."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def root(self, name: str, traj_id: int):
        """Context manager for a benchmark-level root span (one direct call)."""
        return _Root(self, name, traj_id)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self, root: str) -> tuple[dict[str, float], float, int]:
        """Per-name self-time sums over the subtrees of ``root`` spans.

        Returns ``(self_s by name, root wall s, n roots)``.
        """
        selfs = self.self_times()
        under = [False] * len(self.spans)
        wall, n_roots = 0.0, 0
        for i, s in enumerate(self.spans):
            if s[0] == root and s[3] < 0:
                under[i] = True
                wall += s[2] - s[1]
                n_roots += 1
            elif s[3] >= 0 and under[s[3]]:
                under[i] = True
        by_self: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if under[i]:
                by_self[s[0]] += selfs[i]
        return by_self, wall, n_roots

    def flush(self) -> None:
        if self.path:
            with open(self.path, "a") as f:
                for s in self.spans:
                    f.write(json.dumps(s) + "\n")
        self.spans.clear()
        self.counts.clear()


class _Root:
    def __init__(self, tracer: Tracer, name: str, traj_id: int):
        self.t, self.name, self.traj_id = tracer, name, traj_id

    def __enter__(self):
        t = self.t
        t.traj_id = self.traj_id
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, -1, self.traj_id])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.t
        t._stack.pop()
        t.spans[self.idx][2] = time.perf_counter()
        t.traj_id = -1
        return False
