"""Run one quadtrace CLI invocation in this (fresh) interpreter.

    python3 perfbench/child.py [--trace SPANS_FILE] -- <quadtrace argv...>
    python3 perfbench/child.py --probe

Imports `quadtrace.cli` from the checkout's `src/`, calls `cli.main(argv)`
with stdout and stderr captured in memory, and prints one JSON object on the
real stdout: exit code, time inside `cli.main`, CPU time of that call, peak
RSS, the stdout digest, the stderr summary, any traceback, and the
`cache_info()` of the caches the benchmark follows.  `--trace` records
boundary spans (`tracer.py`), adds their summary and writes the spans to
SPANS_FILE.  `--probe` only imports the CLI and reports, so the parent can
time interpreter start-up alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CACHES = (
    "arith.factorize",
    "quadforms.class_number",
    "classnumbers.hurwitz_class_number_forms",
    "lvalues.l_value_at_0",
)


def _cpu_s() -> float:
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cache_info() -> dict:
    info = {}
    for cache in CACHES:
        module, name = cache.split(".")
        stats = getattr(sys.modules[f"quadtrace.{module}"], name).cache_info()
        info[cache] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": stats.currsize,
        }
    return info


def main(args: list[str]) -> dict:
    sys.path.insert(0, SRC)
    from quadtrace import cli

    if args == ["--probe"]:
        return {"probe": True}
    split = args.index("--")
    options, argv = args[:split], args[split + 1 :]
    tracer = None
    if options[:1] == ["--trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    error = None
    sys.stdout, sys.stderr = out, err
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = 1
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    sys.stdout, sys.stderr = real_out, real_err
    stdout = out.getvalue()
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stdout_rows": len(stdout.splitlines()),
        "stderr": err.getvalue(),
        "traceback": error,
        "caches": _cache_info(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(wall)
        tracer.write(options[1])
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
