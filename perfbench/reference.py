"""A fixed pure-Python reference task, timed beside the jobs to track the machine's speed.

On a shared machine the speed of a core swings by up to a factor of two
for minutes at a time, and the jobs slow down with it.  The reference
task does the same kinds of work as the package in miniature (tuples and
sets of faces, dict counting, GF(2) elimination on Python ints) and calls
nothing of the package, so its time moves with the machine and never with
the program.  Dividing a job's time by the reference time cancels most of
the machine's swings while every change in the program's own work shows.
"""

from __future__ import annotations

from itertools import combinations
from time import perf_counter

FACETS = [tuple(sorted((i * 7 + j * 3) % 40 for j in range(4))) for i in range(40)]


def _work() -> int:
    faces = set()
    for f in FACETS:
        for k in range(1, 5):
            faces.update(combinations(f, k))
    index = {f: i for i, f in enumerate(sorted(faces))}
    pivots: dict = {}
    for f in FACETS:
        row = sum(1 << index[c] for c in combinations(f, 3))
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    counts: dict = {}
    for i in range(3000):
        counts[i & 511] = counts.get(i & 511, 0) + i
    return len(pivots)


RANK = _work()


def timed() -> float:
    """Seconds one run of the reference task takes now."""
    t0 = perf_counter()
    if _work() != RANK:
        raise AssertionError("reference task gave a different answer")
    return perf_counter() - t0
