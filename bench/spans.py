"""Harness-side span recorder.

The traced run records a span at each layer boundary without touching
``src/``: :meth:`Recorder.wrap` replaces a callable *in the namespace
its caller looks it up in* (a class attribute, or a module-level name
another module imported) with a timing wrapper, and :meth:`restore` puts
the originals back.  Each span keeps its name, start, end, the span that
was open on the same thread when it started (its parent), the thread,
and a request id (pass number, plan case, ladder rung ...).  Spans stay
in memory; :meth:`write_jsonl` dumps them when the workload ends.

A layer's *self time* is its spans' duration minus the part covered by
their child spans.  Worker threads of the pipelined runtime open their
own span stacks, so :meth:`coverage` measures the share of a root span's
interval during which a span was open on *any* thread — what is left is
the workload's ``unattributed_share``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder"]


class Recorder:
    """In-memory span log plus the monkeypatches that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: [id, parent id, name, start, end, thread id, request id]
        self.spans: list[list] = []
        self.rid: object = None  # request id stamped on new spans
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._totals: tuple[int, dict] | None = None

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                [sid, parent, name, t0, t1, threading.get_ident(), self.rid]
            )

    def wrap(self, owner: object, attr: str, name: str) -> bool:
        """Time every call of ``owner.attr`` as a span called ``name``.

        Returns ``False`` (and patches nothing) when the attribute does
        not exist, so a renamed internal shows up as unattributed time
        instead of breaking the benchmark.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, attr, None)
        if raw is None:
            return False
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        stack_of, ids, spans, rec = self._stack, self._ids, self.spans, self

        def timed(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(
                    [sid, parent, name, t0, t1, threading.get_ident(), rec.rid]
                )

        timed.__name__ = getattr(func, "__name__", attr)
        timed.__wrapped__ = func
        if isinstance(raw, classmethod):
            new: object = classmethod(timed)
        elif isinstance(raw, staticmethod):
            new = staticmethod(timed)
        else:
            new = timed
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total`` seconds, ``self`` seconds."""
        if self._totals is not None and self._totals[0] == len(self.spans):
            return self._totals[1]
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, t0, t1, _tid, _rid in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, t0, t1, _tid, _rid in self.spans:
            row = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            row["count"] += 1
            row["total"] += t1 - t0
            row["self"] += (t1 - t0) - child_time.get(sid, 0.0)
        self._totals = (len(self.spans), out)
        return out

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans."""
        tot = self.totals()
        return sum(tot[n]["self"] for n in names if n in tot)

    def total_s(self, *names: str) -> float:
        """Summed inclusive time of the named spans."""
        tot = self.totals()
        return sum(tot[n]["total"] for n in names if n in tot)

    def count(self, *names: str) -> int:
        tot = self.totals()
        return int(sum(tot[n]["count"] for n in names if n in tot))

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def per_thread_total(self, *names: str) -> dict[int, float]:
        """Inclusive seconds of the named spans, keyed by thread."""
        out: dict[int, float] = defaultdict(float)
        wanted = set(names)
        for _sid, _parent, name, t0, t1, tid, _rid in self.spans:
            if name in wanted:
                out[tid] += t1 - t0
        return dict(out)

    def coverage(self, root: str, containers: set[str]) -> tuple[float, float]:
        """``(root seconds, seconds of it covered by a layer span)``.

        Interval union across threads, clipped to the root spans.
        ``containers`` names spans that only group others (and spans
        that only wait): their own time counts as not covered."""
        skip = containers | {root}
        roots = sorted((s[3], s[4]) for s in self.spans if s[2] == root)
        others = sorted((s[3], s[4]) for s in self.spans if s[2] not in skip)
        root_s = sum(b - a for a, b in roots)
        covered = 0.0
        for ra, rb in roots:
            cur_a = cur_b = None
            for a, b in others:
                if b <= ra or a >= rb:
                    continue
                a, b = max(a, ra), min(b, rb)
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                elif b > cur_b:
                    cur_b = b
            if cur_b is not None:
                covered += cur_b - cur_a
        return root_s, covered

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in end-time order."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, tid, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid, "parent": parent, "name": name,
                            "start": t0, "end": t1, "thread": tid,
                            "workload": self.workload, "request": rid,
                        }
                    )
                )
                fh.write("\n")
