"""The package's one parallel map: fixed lanes, with the caller in lane 0.

``parallel_map(fn, items, jobs)`` returns ``[fn(x) for x in items]``.  With
more than one job it deals the items into ``min(jobs, len(items))`` lanes in
snake order (lanes 0, 1, ..., L-1, then L-1, ..., 1, 0, and so on), so a
list sorted heaviest first spreads its weight evenly over the lanes.  The
calling process runs lane 0 itself, under the same function names a
profiler sees in a serial run, and one forked worker per other lane runs
the rest.  Workers inherit ``fn`` and ``items`` through the fork, so only
lane indices and results cross a pipe: no corpus is pickled and no worker
imports numpy afresh.  The pool forks before it starts any thread of its own.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

_work: tuple = ()  # (fn, items) inside a worker, inherited through the fork


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def snake_lanes(n_items: int, jobs: int) -> list[list[int]]:
    """Item indices dealt into ``min(jobs, n_items)`` lanes (at least one) in
    snake order; each lane lists its indices in increasing order."""
    n = max(1, min(jobs, n_items))
    lanes: list[list[int]] = [[] for _ in range(n)]
    for i in range(n_items):
        k = i % (2 * n)
        lanes[k if k < n else 2 * n - 1 - k].append(i)
    return lanes


def _inherit(fn, items) -> None:
    global _work
    _work = (fn, items)


def _run_lane(lane: list[int]):
    return _apply(*_work, lane)


def _apply(fn, items, lane):
    """``fn`` over ``lane``'s items in order: the results up to the first
    failure, and that failure as (index, error), or None."""
    results = []
    for i in lane:
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, run in ``min(jobs, len(items))`` processes,
    this one included.  Results keep the order of ``items``; if any call
    raises, the error of the lowest-index failing item is raised."""
    items = list(items)
    lanes = snake_lanes(len(items), jobs)
    if len(lanes) == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        len(lanes) - 1, multiprocessing.get_context("fork"), initializer=_inherit,
        initargs=(fn, items),
    ) as pool:
        futures = [pool.submit(_run_lane, lane) for lane in lanes[1:]]
        outcomes = [_apply(fn, items, lanes[0])] + [f.result() for f in futures]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for lane, (done, _) in zip(lanes, outcomes):
        for i, result in zip(lane, done):
            results[i] = result
    return results
