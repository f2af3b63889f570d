"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end in ns, a parent (the index of the
enclosing span, -1 for a root) and ``m``, the set count of the instance it
worked on (0 when the span is not about one instance).  Spans are kept in
flat per-field lists, which the cyclic garbage collector does not have to
walk span by span, and are only written out after the timed run ends.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


def no_span(name: str, m: int = 0):
    """The untraced stand-in for ``Tracer.__call__``: records nothing."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ms: list[int] = []
        self._open = -1

    def __call__(self, name: str, m: int = 0) -> "_Span":
        return _Span(self, name, m)

    def spans(self):
        """``(name, start_ns, end_ns, parent, m)`` for every span, in start order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ms)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        The run is single-threaded, so children never overlap one another
        and always lie inside their parent.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def wall_ns(self) -> int:
        """Total duration of the root spans."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def summary(self) -> dict[tuple[str, int], list[int]]:
        """``(name, m) -> [span count, total self ns, total duration ns]``."""
        out: dict[tuple[str, int], list[int]] = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _, m), own in zip(self.spans(), self.self_ns()):
            entry = out[(name, m)]
            entry[0] += 1
            entry[1] += own
            entry[2] += end - start
        return dict(out)

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _, _ in self.spans() if n == name]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "m"))
            for i, span in enumerate(self.spans()):
                writer.writerow((i, *span))


class _Span:
    __slots__ = ("tracer", "name", "m", "index", "parent")

    def __init__(self, tracer: Tracer, name: str, m: int):
        self.tracer = tracer
        self.name = name
        self.m = m

    def __enter__(self) -> None:
        tracer = self.tracer
        self.parent = tracer._open
        self.index = tracer._open = len(tracer.names)
        tracer.names.append(self.name)
        tracer.parents.append(self.parent)
        tracer.ms.append(self.m)
        tracer.ends.append(0)
        tracer.starts.append(perf_counter_ns())

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        tracer = self.tracer
        tracer.ends[self.index] = end
        tracer._open = self.parent
