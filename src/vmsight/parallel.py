"""The package's one parallel map: fixed lanes, with the caller in lane 0.

``parallel_map(fn, items, jobs)`` returns ``[fn(x) for x in items]``.  With
more than one job it deals the items round-robin into ``min(jobs,
len(items))`` lanes, item i to lane i mod L, so a run of long items in a row
is shared among the lanes.  The calling process runs lane 0 itself, under
the same function names a profiler sees in a serial run, and one forked
worker per other lane runs the rest.  Workers inherit ``fn`` and ``items``
through the fork, so only lane indices and results cross a pipe: no corpus
is pickled and no worker imports numpy afresh.  The pool forks before it
starts any thread of its own.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

_work: tuple = ()  # (fn, items) inside a worker, inherited through the fork


def _inherit(fn, items) -> None:
    global _work
    _work = (fn, items)


def _run_lane(lane: range):
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
    n_lanes = max(1, min(jobs, len(items)))
    if n_lanes == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    lanes = [range(k, len(items), n_lanes) for k in range(n_lanes)]
    with ProcessPoolExecutor(
        n_lanes - 1, multiprocessing.get_context("fork"), initializer=_inherit,
        initargs=(fn, items),
    ) as pool:
        futures = [pool.submit(_run_lane, lane) for lane in lanes[1:]]
        outcomes = [_apply(fn, items, lanes[0])] + [f.result() for f in futures]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (done, _) in enumerate(outcomes):
        results[k::n_lanes] = done
    return results
