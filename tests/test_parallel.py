"""The ordered fork map and the callers that split their work with it: the
per-n data of the real trace sweep, the term map of the level-4p series,
the special-function sweep and the per-c Kloosterman sums.  A split gives
the values of the serial pass, bit for bit."""

import ast
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from mpmath import mp

from quadtrace import cli, parallel
from quadtrace.kloosterman import plus_zeta_batch
from quadtrace.modular import apply_moebius, eval_sesqui_4p
from quadtrace.parallel import fork_map

from .forks import count_forks, deadline, set_cores

ROOT = Path(__file__).resolve().parents[1]
FORK_NAMES = ("multiprocessing", "concurrent", "fork", "usable_workers")


class WorkerFault(Exception):
    pass


def test_fork_map_keeps_input_order(monkeypatch):
    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    items = list(range(40))
    with deadline(60):
        out = fork_map(lambda x: (x * x, os.getpid()), items)
    assert [square for square, _ in out] == [x * x for x in items]
    assert os.getpid() not in {pid for _, pid in out}
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_split_deals_every_item_to_the_workers(monkeypatch):
    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    with deadline(60):
        pids = fork_map(lambda x: os.getpid(), range(9))
    assert os.getpid() not in pids
    # one task per share: the items of a share run in one process
    for share in parallel._shares(9, 2):
        assert len({pids[i] for i in share}) == 1
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_split_depends_only_on_items_and_cores(monkeypatch):
    # a slow first item keeps nothing in the caller: every item goes to a
    # worker, and two items share a process exactly when they share a share
    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)

    def first_slow(x):
        if x == 0:
            time.sleep(0.2)
        return os.getpid()

    with deadline(60):
        pids = fork_map(first_slow, range(6))
    assert os.getpid() not in pids
    share_of = {i: k for k, share in enumerate(parallel._shares(6, 2)) for i in share}
    for i in range(6):
        for j in range(6):
            assert (pids[i] == pids[j]) == (share_of[i] == share_of[j]), (i, j)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("condition", ["one-core", "other-thread", "one-item"])
def test_serial_pass_starts_no_process(monkeypatch, condition):
    set_cores(monkeypatch, 1 if condition == "one-core" else 2)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if condition == "other-thread":
        thread.start()
    items = [7] if condition == "one-item" else [1, 2, 3]
    try:
        out = fork_map(lambda x: (x, os.getpid()), items)
    finally:
        release.set()
    if condition == "other-thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert out == [(x, os.getpid()) for x in items]
    assert forks == []
    assert multiprocessing.active_children() == []


def test_map_inside_a_worker_starts_no_process(monkeypatch):
    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)

    def nested(x):
        # this worker's copy of the fork count
        before = len(forks)
        assert fork_map(abs, [x, -x, 2 * x]) == [x, x, 2 * x]
        return len(forks) - before

    with deadline(60):
        assert fork_map(nested, [1, 2, 3]) == [0, 0, 0]
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_worker_exception_reaches_caller(monkeypatch):
    def faulty(x):
        if x == 3:
            raise WorkerFault(x)
        return x

    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    with deadline(60), pytest.raises(WorkerFault):
        fork_map(faulty, range(6))
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
    assert parallel._job is None


def test_deal_balances_sum_of_c():
    # the cost of the c-th Kloosterman modulus grows like c = index + 1
    for workers in (1, 2, 3, 4):
        for cutoff in (1, 7, 500, 2001):
            shares = parallel._shares(cutoff, workers)
            assert sorted(i for share in shares for i in share) == list(range(cutoff))
            sums = [sum(i + 1 for i in share) for share in shares]
            assert max(sums) - min(sums) <= 2 * cutoff, (workers, cutoff)


def test_importing_the_cli_loads_no_multiprocessing():
    code = "import sys, quadtrace.cli; print('multiprocessing' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "False"


def _fork_uses(tree: ast.AST):
    """Imports of a process pool, os.fork calls and reads of usable_workers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        yield from (n for n in names if n.split(".")[0] in FORK_NAMES)


def test_only_parallel_starts_processes():
    # one pool and one split rule: a caller that wants cores calls fork_map
    sources = sorted((ROOT / "src" / "quadtrace").glob("*.py"))
    assert ROOT / "src" / "quadtrace" / "parallel.py" in sources
    found = [
        f"{path.name}: {use}"
        for path in sources
        if path.name != "parallel.py"
        for use in _fork_uses(ast.parse(path.read_text()))
    ]
    assert found == []


# ---------------------------------------------------------------------------
# callers


def _real_sweep(monkeypatch):
    return [r.to_json() for r in cli.sweep_real((3,), 250)]


def _special_sweep(monkeypatch):
    reports = cli.sweep_special(())
    assert len(reports) == 36
    return reports


def _plus_zeta(*levels):
    def run(monkeypatch):
        batch = plus_zeta_batch(levels, [-4, -3, 0, 5, 8], 2.5, 501)
        return [value for values, _ in batch for value in values]

    return run


def _sesqui_4p(monkeypatch):
    # both points of verify modularity's level-4p residual, shorter series
    tau = mp.mpc("0.21", "1.1")
    points = [(tau, 16), (apply_moebius((1, 0, 12, 1), tau), 90)]
    return eval_sesqui_4p(3, points)


SPLIT_CALLERS = {
    "real-sweep": _real_sweep,
    "sesqui-4p-series": _sesqui_4p,
    "special-sweep": _special_sweep,
    **{f"plus-zeta-{big_n}": _plus_zeta(big_n) for big_n in (1, 3, 5, 15)},
    "plus-zeta-3-5": _plus_zeta(3, 5),
}


@pytest.mark.parametrize("caller", list(SPLIT_CALLERS))
def test_split_equals_one_core(monkeypatch, caller):
    run = SPLIT_CALLERS[caller]
    forks = count_forks(monkeypatch)
    set_cores(monkeypatch, 1)
    serial = run(monkeypatch)
    set_cores(monkeypatch, 2)
    with deadline(120):
        split = run(monkeypatch)
    assert split == serial
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_level_4p_residual_starts_one_pool(monkeypatch):
    # both points of the level-4p residual share one map; no other residual splits
    set_cores(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    with deadline(120):
        reports = cli.sweep_modularity(())
    assert [r.passed for r in reports] == [True] * 5
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
