"""The ordered fork map and the callers that split their work with it: the
L(1) batch, the alpha map of the level-4p series and the special-function
sweep.  A split gives the values of the serial pass, bit for bit."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from mpmath import mp

from quadtrace import cli, lvalues, parallel
from quadtrace.lvalues import is_fundamental_discriminant, l_values_at_1
from quadtrace.modular import eval_sesqui_4p
from quadtrace.parallel import fork_map
from quadtrace.specialfns import SPLIT_MIN_QUADRATURES

from .forks import count_forks, deadline, set_cores

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("condition", ["one-core", "other-thread", "not-split", "one-item"])
def test_serial_pass_starts_no_process(monkeypatch, condition):
    set_cores(monkeypatch, 1 if condition == "one-core" else 2)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if condition == "other-thread":
        thread.start()
    items = [7] if condition == "one-item" else [1, 2, 3]
    try:
        out = fork_map(lambda x: (x, os.getpid()), items, split=condition != "not-split")
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


def test_importing_the_cli_loads_no_multiprocessing():
    code = "import sys, quadtrace.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, check=True
    )
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# callers


def _fundamentals(top):
    return [t for t in range(2, top + 1) if is_fundamental_discriminant(t)]


def test_l1_batch_split_equals_one_core(monkeypatch):
    ts = _fundamentals(250)
    assert sum(ts) >= lvalues.L1_SPLIT_MIN_SUM
    forks = count_forks(monkeypatch)
    set_cores(monkeypatch, 1)
    monkeypatch.setattr(lvalues, "_L1_TABLE", {})
    serial = l_values_at_1(ts)
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(lvalues, "_L1_TABLE", {})
    with deadline(120):
        split = l_values_at_1(ts)
    assert split == serial
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_l1_batch_below_the_gate_starts_no_process(monkeypatch):
    ts = _fundamentals(150)
    assert sum(ts) < lvalues.L1_SPLIT_MIN_SUM
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(lvalues, "_L1_TABLE", {})
    forks = count_forks(monkeypatch)
    l_values_at_1(ts)
    # a second batch computes only the t it has not seen
    l_values_at_1(ts + _fundamentals(300)[-3:])
    assert forks == []
    assert multiprocessing.active_children() == []


def test_small_level_4p_series_starts_no_process(monkeypatch):
    # cutoff 16: four alpha values, below SPLIT_MIN_QUADRATURES, and t <= 13
    assert 4 < SPLIT_MIN_QUADRATURES
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(lvalues, "_L1_TABLE", {})
    forks = count_forks(monkeypatch)
    eval_sesqui_4p(3, mp.mpc("0.21", "1.1"), 16)
    assert forks == []
    assert multiprocessing.active_children() == []


def test_special_split_equals_serial(monkeypatch):
    forks = count_forks(monkeypatch)
    set_cores(monkeypatch, 1)
    serial = cli.sweep_special(())
    set_cores(monkeypatch, 2)
    with deadline(120):
        split = cli.sweep_special(())
    assert len(split) == len(serial) == 36
    for a, b in zip(split, serial):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
