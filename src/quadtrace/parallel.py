"""An ordered map over forked worker processes.

fork_map(fn, items) returns [fn(x) for x in items].  It splits the items
over worker processes when that is safe: the platform has fork and the
affinity call, more than one core is usable, no other thread runs (a fork
would copy it in whatever state it is in), the caller is not itself a
worker, and there are at least two items.  Otherwise every item runs here.
A split deals every item to one share per usable core (_shares), so which
process runs an item depends only on the number of items and of usable
cores, never on how fast the machine is.

Each worker starts with the caller's state at the fork: its imports,
tables, working precision and the job itself.  Whatever a worker warms,
such as mpmath's tanh-sinh nodes for each degree and precision, libmp's log
tables and the caller's own caches, it warms for itself.  Only share
numbers go out, so fn may be a closure, and only the results come back,
pickled.  The results are in input order whichever process made them, so
the output of a caller does not depend on the core count.  An exception
raised by fn reaches the caller with its own type.  The workers run under
concurrent.futures' process pool, which notices a worker that dies without
returning (killed for memory, or os._exit) and raises BrokenProcessPool
instead of waiting for it forever.

Its callers: the per-c Kloosterman sums, `verify real`'s real_index, the
special sweep's quadratures and the term map of the level-4p series.
"""

from __future__ import annotations

import os
import threading

# the (fn, items, shares) of the running split map, inherited by its workers
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


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], dealt over the usable cores.

    Each worker runs one share of the items (_shares), so a caller whose
    item cost grows or falls steadily along its items gets shares of nearly
    equal cost.
    """
    items = list(items)
    workers = min(usable_workers(), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    # imported here: every CLI command imports this module, few of them split
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    global _job
    shares = _shares(len(items), workers)
    _job = (fn, items, shares)
    try:
        with ProcessPoolExecutor(
            workers, mp_context=get_context("fork"), initializer=_enter_worker
        ) as pool:
            results = list(pool.map(_run, range(workers)))
    finally:
        _job = None
    out = [None] * len(items)
    for share, values in zip(shares, results):
        for index, value in zip(share, values):
            out[index] = value
    return out


def _shares(count: int, workers: int) -> list[list[int]]:
    """Indices 0..count-1 dealt to `workers` shares.

    The indices go out in blocks of `workers`, every other block dealt in
    reverse, so a cost that grows like the index is split into shares of
    nearly equal sum.
    """
    shares: list[list[int]] = [[] for _ in range(workers)]
    for i in range(count):
        block, slot = divmod(i, workers)
        shares[slot if block % 2 == 0 else workers - 1 - slot].append(i)
    return shares


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _run(share: int) -> list:
    fn, items, shares = _job
    return [fn(items[index]) for index in shares[share]]
