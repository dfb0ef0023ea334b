"""Outside-in tracer: wraps library functions from the benchmark's own files.

Every call of a wrapped function is timed on a stack, so that each call's
self time is its duration minus the time its traced children took.  Hot
kernels keep only aggregates (calls, inclusive time, self time); coarse
calls also keep a span (name, start, end, parent span, self time).  All of
it stays in memory until the traced run ends.

Run ``python3 perfbench/tracer.py`` to check the self-time arithmetic.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.spans = []  # (name, start, end, parent index or -1, self seconds)
        self._child_time = []  # one accumulator per open traced call
        self._open_spans = []  # indices into self.spans

    def wrap(self, name, fn, span=False, observe=None):
        """A traced stand-in for ``fn``; ``observe(args, kwargs, result)``
        runs after the timed interval to derive counters from the call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = self.clock
        child_time = self._child_time
        spans = self.spans
        open_spans = self._open_spans

        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                own = duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if span:
                    open_spans.pop()
                    spans[index] = (name, start, end, parent, own)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)


def rebind(modules, original, replacement):
    """Replace every module-level binding of ``original``; return the count."""
    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def wrap_method(tracer, cls, attr, name, span=False, observe=None):
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, span, observe)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, span, observe))


def self_time_from_spans(spans):
    """Self time per span: its duration minus the time covered by its child
    spans (the union of their intervals, clipped to the parent)."""
    children = {}
    for index, (_, start, end, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, [])):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def self_test():
    """Check self time = duration - time covered by child spans on a nested
    call tree timed by a fake clock, both online and from the spans."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap("leaf", lambda: None, span=True)
    hot = tracer.wrap("hot", lambda: None)

    def middle_body():
        leaf()
        hot()

    middle = tracer.wrap("middle", middle_body, span=True)

    def root_body():
        middle()
        leaf()

    root = tracer.wrap("root", root_body, span=True)
    root()
    # clock reads, in order: root 0, middle 1, leaf 2-3, hot 4-5, middle 6,
    # leaf 7-8, root 9
    expected = {"root": (9.0, 3.0), "middle": (5.0, 3.0), "leaf": (2.0, 2.0),
                "hot": (1.0, 1.0)}
    for name, (inclusive, own) in expected.items():
        calls, got_inclusive, got_own = tracer.stats[name]
        if (got_inclusive, got_own) != (inclusive, own):
            raise AssertionError(
                f"{name}: inclusive/self {got_inclusive}/{got_own}, "
                f"expected {inclusive}/{own}"
            )
    online = [s[4] for s in tracer.spans]
    # "hot" keeps no span, so the span-only computation sees its second as
    # middle's own; everything else must agree exactly.
    offline = self_time_from_spans(tracer.spans)
    names = [s[0] for s in tracer.spans]
    for name, on, off in zip(names, online, offline):
        want = on + 1.0 if name == "middle" else on
        if off != want:
            raise AssertionError(f"{name}: span self time {off}, expected {want}")
    parents = [names[s[3]] if s[3] >= 0 else None for s in tracer.spans]
    if parents != [None, "root", "middle", "root"]:
        raise AssertionError(f"span parents {parents}")


if __name__ == "__main__":
    self_test()
    print("tracer self-test passed")
