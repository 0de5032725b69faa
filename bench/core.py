"""Pieces shared by the workloads: operations, their outcomes, and statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Outcome:
    """What one operation did: its timed seconds, failed checks, and counts."""

    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Op:
    """One benchmark operation.  ``kind`` names it across passes; ``run``
    takes a tracer and an Outcome to fill."""

    kind: str
    run: Callable


def timed(tr, out: Outcome, name: str, fn, *args, items: int = 1, **kwargs):
    """Call ``fn`` inside span ``name`` and add its wall time to the op."""
    t = time.perf_counter()
    with tr.span(name, items):
        result = fn(*args, **kwargs)
    out.seconds += time.perf_counter() - t
    return result


def probe(tr, name: str, fn, *args, items: int = 1, **kwargs):
    """Call ``fn`` inside span ``name`` as an untimed correctness check."""
    with tr.span(name, items):
        return fn(*args, **kwargs)


def tail(values, beyond: int = 10) -> tuple[float, float] | None:
    """The highest sample with at least ``beyond`` samples above it, and
    its percentile; None when there are too few samples."""
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        return None
    return s[n - 1 - beyond], 100 * (n - beyond) / n


def pass_counts(passes, key: str) -> list[float]:
    """Sum of one Outcome count per pass."""
    return [sum(out.counts.get(key, 0) for _, out in p.results) for p in passes]


def calibrate(n: int = 8000) -> int:
    """A fixed piece of pure-Python work (integer, list and dict churn)."""
    acc, x = 0, 1
    seen: dict[int, int] = {}
    pairs = []
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc += (x & -x).bit_length()
        seen[x & 1023] = i
        pairs.append((x, i))
    pairs.sort()
    return acc + len(seen)
