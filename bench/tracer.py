"""In-memory span tracer that wraps hbmsort's public functions from outside.

A span is (name, start, end, parent, op): the op id is shared by every span
that descends from one root span, so a benchmark operation's spans group
together.  Spans live in memory and are summarised when the run ends.

Functions are wrapped at module-attribute level.  A module that imported a
name directly (``from .engine import plan_sort``) holds its own reference,
so the name must be wrapped in that module too.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._ops = 0
        self._thread = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent]["op"]
        rec = {"name": name, "parent": parent, "op": op, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` by a version that records a span per call.

        Calls from other threads (worker pools) run untraced, so spans of
        one op always nest on one stack.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return orig(*args, **kwargs)
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def ops(self) -> list[tuple[int, dict, list[int]]]:
        """(root index, root span, indices of all spans of that op)."""
        members: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            members.setdefault(s["op"], []).append(i)
        return [(idx[0], self.spans[idx[0]], idx) for idx in members.values()]

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, selfs):
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_s
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))
