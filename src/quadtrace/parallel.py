"""An ordered map over forked worker processes.

fork_map(fn, items) returns [fn(x) for x in items], with the calls made in
worker processes when that is safe: the platform has fork and the affinity
call, more than one core is usable, no other thread runs (a fork would copy
it in whatever state it is in), and the caller is not itself a worker.
Otherwise, or when the caller's own minimum-work gate says the work is too
small to pay for the processes, the calls run here, in order.

The workers are forked, so they start with the caller's imports, tables,
working precision and the job itself: only item indices go out, so fn may
be a closure, and only the results come back, pickled.  The results are in
input order whichever worker made them, so the output of a caller does not
depend on the core count.  An exception raised by fn reaches the caller
with its own type.
"""

from __future__ import annotations

import os
import threading

# the (fn, items) of the running split map, inherited by its forked workers
_job = None
# set in every worker, so that a map called there runs serially
_in_worker = False


def usable_workers() -> int:
    """Worker processes a split map may run on, 1 meaning serial."""
    if _in_worker or threading.active_count() > 1:
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, split: bool = True) -> list:
    """[fn(x) for x in items], over forked workers when split and usable.

    Items go out one at a time in input order, so a caller that puts its
    costliest items first gets the best balance.
    """
    items = list(items)
    workers = min(usable_workers(), len(items)) if split else 1
    if workers < 2:
        return [fn(x) for x in items]
    # imported here: every CLI command imports this module, few of them split
    import multiprocessing

    global _job
    _job = (fn, items)
    try:
        with multiprocessing.get_context("fork").Pool(workers, initializer=_enter_worker) as pool:
            return pool.map(_run, range(len(items)), chunksize=1)
    finally:
        _job = None


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _run(index: int):
    fn, items = _job
    return fn(items[index])
