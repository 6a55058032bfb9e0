"""The one process split: ``training._in_order``, the halves that every
per-session command splits its sessions into, and the rule that no other
module of ``adwatch`` starts processes."""

import ast
import itertools
import multiprocessing
import os
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from adwatch import training
from adwatch.training import _in_halves, _in_order

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adwatch"

N = 4
MARKS = {
    "all_here": [False] * N,
    "all_worker": [True] * N,
    "alternating": [i % 2 == 0 for i in range(N)],
    "first_only": [i == 0 for i in range(N)],
    "last_only": [i == N - 1 for i in range(N)],
}


def where(i):
    return i, os.getpid()


def fails(i):
    raise ValueError(f"task {i} failed")


def append_to(path, i):
    time.sleep(0.2)
    with open(path, "a") as out:
        out.write(f"{i}\n")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("marks", MARKS.values(), ids=MARKS.keys())
def test_results_come_back_in_task_order_from_the_side_that_was_marked(marks, workers):
    got = _in_order([partial(where, i) for i in range(N)], marks, workers=workers)
    assert multiprocessing.active_children() == []
    assert [i for i, _ in got] == list(range(N))
    assert [pid != os.getpid() for _, pid in got] == marks


@pytest.mark.parametrize("marks", MARKS.values(), ids=MARKS.keys())
def test_the_first_failing_task_in_order_raises_whichever_side_ran_it(marks):
    positions = [(k,) for k in range(N)] + list(itertools.combinations(range(N), 2))
    for failing in positions:
        tasks = [partial(fails if i in failing else where, i) for i in range(N)]
        with pytest.raises(ValueError, match=f"^task {failing[0]} failed$"):
            _in_order(tasks, marks, workers=2)
        assert multiprocessing.active_children() == []


def test_worker_tasks_not_yet_started_are_cancelled(tmp_path):
    # this process's first task fails at once; by then the one worker has
    # taken at most its own task and the two queued for it
    ran = tmp_path / "ran"
    tasks = [partial(fails, 0)] + [partial(append_to, ran, i) for i in range(1, 7)]
    with pytest.raises(ValueError, match="^task 0 failed$"):
        _in_order(tasks, [False] + [True] * 6)
    assert multiprocessing.active_children() == []
    assert len(ran.read_text().split() if ran.exists() else []) <= 3


def test_workers_are_capped_at_the_number_of_marked_tasks(monkeypatch):
    workers = []

    class CountedPool(training.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            workers.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", CountedPool)
    tasks = [partial(where, i) for i in range(N)]
    for marks in MARKS.values():
        _in_order(tasks, marks, workers=3)
    assert workers == [3, 2, 1, 1]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(training._START_METHOD != "fork", reason="only a forked worker inherits its tasks")
def test_a_forked_worker_inherits_its_tasks_rather_than_unpickling_them():
    lock = threading.Lock()   # a lock cannot be pickled
    got = _in_order([lambda: (lock.locked(), os.getpid())], [True])
    assert multiprocessing.active_children() == []
    assert got[0][0] is False and got[0][1] != os.getpid()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("cpus", [1, 2])
def test_halves_run_the_last_half_in_one_worker_only_with_more_than_one_cpu(monkeypatch, n, cpus):
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    got = _in_halves([partial(where, i) for i in range(n)])
    assert multiprocessing.active_children() == []
    assert [i for i, _ in got] == list(range(n))
    # this process takes the first half, and one more when n is odd
    assert [pid != os.getpid() for _, pid in got] == [cpus > 1 and i >= (n + 1) // 2 for i in range(n)]
    assert len({pid for _, pid in got}) == (2 if cpus > 1 and n > 1 else 1)


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_training_starts_processes():
    starters = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if any(name.split(".")[0] in ("concurrent", "multiprocessing") for name in imported_modules(path))
    ]
    assert starters == ["training.py"]
