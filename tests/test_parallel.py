"""The package's one parallel map: lanes, order, errors, and where process
pools, the BLAS thread setter and the forward pass's tanh may appear."""

import ast
import os
from concurrent.futures import Future
from pathlib import Path

import pytest

import vmsight
from vmsight import parallel
from vmsight.errors import Diverged
from vmsight.parallel import parallel_map


def square(x):
    return x * x


def pid_of(_):
    return os.getpid()


def diverge_at(bad):
    def fn(i):
        if i in bad:
            raise Diverged(f"item {i}")
        return i

    return fn


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submitted call at once, in this process."""

    made = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_results_keep_item_order(jobs):
    items = list(range(11))
    assert parallel_map(square, items, jobs) == [x * x for x in items]


def test_caller_runs_lane_zero():
    pids = parallel_map(pid_of, range(4), 2)
    # round-robin lanes: items 0 and 2 in the caller, 1 and 3 in a worker
    assert {pids[0], pids[2]} == {os.getpid()}
    assert os.getpid() not in {pids[1], pids[3]}


@pytest.mark.parametrize("jobs", [2, 3, 500, pytest.param(10**400, id="400-digits")])
def test_workers_capped_at_items(monkeypatch, jobs):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", InlinePool)
    InlinePool.made = []
    assert parallel_map(square, range(3), jobs) == [0, 1, 4]
    # one lane per item at most, and the caller's lane needs no worker
    assert InlinePool.made == [min(jobs, 3) - 1]


def test_worker_lane_divergence_reaches_caller_typed():
    # lanes for 6 items and 2 jobs: [0, 2, 4] in the caller, [1, 3, 5] in a worker
    with pytest.raises(Diverged, match="^item 5$"):
        parallel_map(diverge_at({5}), range(6), 2)


def test_first_failure_in_item_order_wins():
    # lanes [0, 2, 4] in the caller and [1, 3, 5] in a worker: the worker's
    # failure at 1 beats the caller's at 4, and the caller's at 2 the worker's at 3
    with pytest.raises(Diverged, match="^item 1$"):
        parallel_map(diverge_at({1, 4}), range(6), 2)
    with pytest.raises(Diverged, match="^item 2$"):
        parallel_map(diverge_at({2, 3}), range(6), 2)


@pytest.mark.parametrize("name, home", [
    ("ProcessPoolExecutor", "parallel"),
    ("scipy_openblas_set_num_threads64_", "neural"),
])
def test_one_module_names_it(name, home):
    """Process pools are made in parallel.py alone, and the BLAS thread
    count is set in neural.py alone."""
    users = set()
    for path in sorted(Path(vmsight.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
                or (isinstance(node, ast.Constant) and node.value == name)
            ):
                users.add(path.stem)
    assert users == {home}


def test_one_forward_routine():
    """tanh is named in neural._activations alone: training, fit scoring and
    prediction run one forward routine, and no second one can come back."""
    sites = []
    for path in sorted(Path(vmsight.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "tanh") or (
                isinstance(node, ast.Name) and node.id == "tanh"
            ):
                # ast.walk goes breadth first, so the last enclosing def is the innermost
                defs = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                        and f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.stem, defs[-1] if defs else None))
    assert sites == [("neural", "_activations")]
