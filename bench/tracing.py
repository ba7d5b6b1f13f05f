"""Span tracer that wraps the program's functions from outside.

The benchmark never edits ``src/``.  A traced run replaces functions by
attribute assignment, in every namespace that looks them up (``replab``
imports the ``linalg`` helpers by name, and ``RatMatrix`` methods live on
the class), and :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, op, leaf_s]``: ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (-1 for an op root)
and ``leaf_s`` is the time spent in hot leaf calls, which are timed in
aggregate instead of getting a span each.  Spans stay in memory until the
run ends; :func:`self_times` turns them into per-name self time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, LEAF = range(6)
ROOT = "op"


def self_times(spans) -> dict[str, list]:
    """Per-name ``[calls, self seconds]``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover, minus the leaf time recorded on it.
    """
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]].append((span[START], span[END]))
    out: dict[str, list] = {}
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        inside = 0.0
        reach = start
        for s, e in sorted(covered.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                inside += e - s
                reach = e
        entry = out.setdefault(span[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - inside - span[LEAF]
    return out


class Tracer:
    """In-memory spans, leaf timers and counters for one process."""

    def __init__(self):
        self.ops = 0
        self._in_leaf = False
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- ops -------------------------------------------------------------

    def begin_op(self) -> None:
        self.ops += 1
        self.stack = []
        self._open(ROOT)

    def end_op(self) -> None:
        """Close every span still open, including any an exception unwound."""
        now = perf_counter()
        while self.stack:
            self.spans[self.stack.pop()][END] = now

    def reset(self) -> None:
        """Drop recorded data but keep the patches.

        A forked pool worker calls this before each op: it starts from a
        copy of the parent's state and reports each op on its own.
        """
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.ops, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        # an exception may have unwound inner spans without closing them
        while self.stack and self.stack[-1] != idx:
            self.spans[self.stack.pop()][END] = self.spans[idx][END]
        if self.stack:
            self.stack.pop()

    # -- recording helpers used by the wrappers -----------------------------

    def count(self, name: str, n: int = 1) -> None:
        if self.stack:
            self.counters[name] += n

    def observe_max(self, name: str, value: float) -> None:
        if self.stack and value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def exclude(self, seconds: float) -> None:
        """Charge bookkeeping time to no layer: it counts as leaf time of the
        enclosing span and as ``trace.bookkeeping``."""
        if self.stack:
            self.spans[self.stack[-1]][LEAF] += seconds
            self.leaf_s["trace.bookkeeping"] += seconds

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args) runs untimed, after(result) too."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if before is not None:
                t0 = perf_counter()
                before(args)
                tracer.exclude(perf_counter() - t0)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                t0 = perf_counter()
                after(result)
                tracer.exclude(perf_counter() - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn):
        """Count and time fn in aggregate; its time is charged to no span.

        A leaf called inside another leaf is not timed again.
        """
        tracer = self

        def timed(*args, **kwargs):
            if tracer._in_leaf or not tracer.stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                tracer.spans[tracer.stack[-1]][LEAF] += dt
                tracer.leaf_calls[name] += 1
                tracer.leaf_s[name] += dt

        timed.__wrapped__ = fn
        return timed

    def patch(self, owners, attr: str, wrapper) -> None:
        """Set attr to wrapper on each owner (module or class)."""
        for owner in owners:
            # vars() keeps a classmethod a classmethod when it is restored
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates of everything recorded so far, in JSON-ready form."""
        ops = [s for s in self.spans if s[NAME] == ROOT]
        return {
            "self": self_times(self.spans),
            "leaf": {k: [self.leaf_calls[k], self.leaf_s[k]] for k in self.leaf_s},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "op_s": sum(s[END] - s[START] for s in ops),
        }


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (pool workers send theirs per op)."""
    for key in ("self", "leaf"):
        dest = total.setdefault(key, {})
        for name, (calls, secs) in part[key].items():
            entry = dest.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += secs
    counters = total.setdefault("counters", {})
    for name, n in part["counters"].items():
        counters[name] = counters.get(name, 0) + n
    maxima = total.setdefault("maxima", {})
    for name, v in part["maxima"].items():
        maxima[name] = max(v, maxima.get(name, v))
    total["op_s"] = total.get("op_s", 0.0) + part["op_s"]
    return total
