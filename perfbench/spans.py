"""In-memory span recorder for traced benchmark runs.

A span is one call the benchmark makes into a layer: its name, start and
end, the span that caused it, the operation (episode, pass, regeneration)
it belongs to, and the Spark jobs and tasks that ran inside it. Spans
are held in memory and written out once, when the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover. A child covers ``[start, closed]``: ``closed`` is
taken after the recorder's own bookkeeping at the child's exit, so that
bookkeeping is billed to neither the child nor the parent.
"""
from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol


class GroupCounter(Protocol):
    """Assigns a job group to each open span and counts its jobs later."""

    def push(self) -> str: ...

    def pop(self) -> None: ...

    def count(self, group: str) -> tuple[int, int]: ...


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = math.nan
    closed: float = math.nan
    group: str | None = None
    #: Jobs and tasks of this span and all its descendants.
    jobs: int = 0
    tasks: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; optionally counts Spark jobs per span.

    Args:
        jobs: job-group counter (``None`` when the workload runs no Spark).
        clock: monotonic clock in seconds.
    """

    def __init__(
        self,
        jobs: GroupCounter | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.spans: list[Span] = []
        self._jobs = jobs
        self._clock = clock
        self._stack: list[int] = []
        self._counted = 0

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        s = Span(name, op, parent, self._clock())
        self.spans.append(s)
        self._stack.append(idx)
        if self._jobs is not None:
            s.group = self._jobs.push()
        try:
            yield s
        finally:
            s.end = self._clock()
            if self._jobs is not None:
                self._jobs.pop()
            self._stack.pop()
            s.closed = self._clock()

    def count_jobs(self) -> None:
        """Read job and task counts of every span closed since the last call.

        Call it right after each measured operation, outside its timing:
        the job groups are then still within Spark's retained-job window.
        Children always follow their parent in ``spans``, so a reverse
        pass rolls each child's inclusive count into its parent.
        """
        if self._stack:
            raise RuntimeError("count_jobs() called inside an open span")
        new = range(len(self.spans) - 1, self._counted - 1, -1)
        if self._jobs is not None:
            for i in new:
                s = self.spans[i]
                own_jobs, own_tasks = self._jobs.count(s.group)
                s.jobs += own_jobs
                s.tasks += own_tasks
                if s.parent is not None:
                    self.spans[s.parent].jobs += s.jobs
                    self.spans[s.parent].tasks += s.tasks
        self._counted = len(self.spans)

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def covered(self, idx: int) -> float:
        """Length of the union of the children's intervals inside span ``idx``."""
        s = self.spans[idx]
        ivs = sorted(
            (max(c.start, s.start), min(c.closed, s.end)) for c in self.children(idx)
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def self_time(self, idx: int) -> float:
        return self.spans[idx].duration - self.covered(idx)

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self_s": self.self_time(i),
                            "jobs": s.jobs,
                            "tasks": s.tasks,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )
