"""quadtrace CLI benchmark: closed loop, one client, one fresh interpreter per command.

    python3 perfbench/run.py --workload {kloosterman,exact,transcendental}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of `quadtrace` CLI invocations.  A pass runs
every invocation once, in a seed-shuffled order, each in its own interpreter
(`perfbench/child.py`), so every sample pays the cold-cache cost a CLI user
pays.  Passes repeat until `--seconds` is used up (at least two).  Every
invocation is gated on its exit code, its `# k/k checks passed` line, the
absence of a traceback, and its stdout digest against `perfbench/digests.json`.

`--trace 0` prints the end-to-end metrics, `--trace 1` one untraced and one
traced pass with the per-layer metrics (see `perfbench/tracer.py`).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

import mpmath
import numpy
from child import CACHES
from tracer import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
CHILD = os.path.join(BENCH, "child.py")
DIGESTS = os.path.join(BENCH, "digests.json")
SPANS_DIR = os.path.join(BENCH, "out")

EXACT_PRIME_POOL = (3, 5, 7, 11, 13)
DEFAULT_SEED = 7  # draws (3, 5, 7) for `exact`
PROBES = 4  # import-only interpreters before the first pass, for the set-up median
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end well inside 180 s
SUMMARY = re.compile(r"^# (\d+)/(\d+) checks passed$", re.M)
SUBCOMMANDS = (
    "hurwitz",
    "coeffs",
    "verify_imaginary",
    "verify_real",
    "verify_coefficients",
    "verify_constants",
    "verify_kloosterman",
    "verify_special",
    "verify_modularity",
)


def exact_primes(seed: int) -> list[int]:
    return sorted(random.Random(f"exact-primes:{seed}").sample(EXACT_PRIME_POOL, 3))


def exact_invocations(primes) -> list[list[str]]:
    p = [str(prime) for prime in primes]
    return [
        ["hurwitz", "--p", *p, "--n-max", "2000"],
        ["verify", "imaginary", "--p", *p, "--n-max", "1000"],
        ["verify", "real", "--p", *p, "--n-max", "600"],
    ]


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists; only `exact` depends on the seed."""
    if workload == "kloosterman":
        return [["verify", "kloosterman", "--p", "3", "5", "--cutoff", "2000"]]
    if workload == "exact":
        return exact_invocations(exact_primes(seed))
    if workload == "transcendental":
        return [
            ["verify", "special"],
            ["verify", "modularity"],
            ["verify", "coefficients", "--p", "3", "--m-max", "12"],
            ["verify", "constants", "--p", "3", "5", "7"],
            ["coeffs", "--p", "3", "--m-max", "12"],
        ]
    raise ValueError(workload)


def subcommand(argv: list[str]) -> str:
    return f"verify_{argv[1]}" if argv[0] == "verify" else argv[0]


def spawn(child_args: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run child.py; return its JSON result (None on crash), wall time, stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *child_args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = None, "timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - start
    if out is None:
        return None, wall, err
    try:
        result = json.loads(out.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    return result, wall, err


class Run:
    """One benchmark run: the invocation records and the correctness tally."""

    def __init__(self, workload: str, seed: int, digests: dict):
        self.workload = workload
        self.argvs = invocations(workload, seed)
        self.order = random.Random(f"order:{workload}:{seed}")
        self.digests = digests
        self.started = time.perf_counter()
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.drift: set[str] = set()
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def probe(self) -> None:
        result, wall, err = spawn(["--probe"], self.remaining())
        if result is None:
            raise RuntimeError(f"probe interpreter failed: {err.strip()[-500:]}")
        self.setups.append(wall)

    def invoke(self, argv: list[str], trace: bool = False) -> dict:
        """Run one invocation, gate it, and return its record."""
        key = " ".join(argv)
        expected = self.digests.get(key, {})
        child_args = ["--", *argv]
        if trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"{self.workload}.{subcommand(argv)}.spans.tsv")
            child_args = ["--trace", spans, *child_args]
        result, proc_wall, err = spawn(child_args, self.remaining())
        if result is None:
            checks = expected.get("checks", 1)
            self.attempted += checks
            self._fail(key, checks, f"interpreter failed: {err.strip()[-500:]}")
            return {"argv": argv, "checks": checks}
        summary = SUMMARY.search(result["stderr"])
        if argv[0] == "verify":
            checks = int(summary.group(2)) if summary else expected.get("checks", 1)
            failed = checks - int(summary.group(1)) if summary else checks
        else:
            checks, failed = result["stdout_rows"], 0
        crashed = result["traceback"] or "Traceback (most recent call last)" in result["stderr"]
        if result["rc"] != 0 or crashed or (argv[0] == "verify" and not summary):
            failed = checks
        if checks < 1:
            checks = failed = 1
        self.attempted += checks
        if failed:
            self._fail(key, failed, f"exit {result['rc']}: {result['stderr'].strip()[-500:]}")
        if result["stdout_sha256"] != expected.get("sha256"):
            self.drift.add(key)
        if not trace:
            self.setups.append(proc_wall - result["wall_s"])
        return {**result, "argv": argv, "checks": checks}

    def _fail(self, key: str, failed: int, why: str) -> None:
        self.failed += failed
        self.problems.append(f"{key}: {why}")

    def shuffled(self) -> list[list[str]]:
        argvs = list(self.argvs)
        self.order.shuffle(argvs)
        return argvs


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    for _ in range(PROBES):
        run.probe()
    passes: list[list[dict]] = []
    measure_start = time.perf_counter()
    while True:
        records = []
        for argv in run.shuffled():
            # A probe before each invocation spreads set-up samples over the run.
            run.probe()
            records.append(run.invoke(argv))
        passes.append(records)
        elapsed = time.perf_counter() - measure_start
        next_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (
            elapsed + next_pass > seconds or next_pass > run.remaining()
        ):
            break
    per_pass = {
        "wall_s": [sum(r.get("wall_s", 0.0) for r in p) for p in passes],
        "cpu_s": [sum(r.get("cpu_s", 0.0) for r in p) for p in passes],
        "peak_rss_mb": [max(r.get("peak_rss_kb", 0) for r in p) / 1024 for p in passes],
        "checks": [sum(r["checks"] for r in p) for p in passes],
    }
    stats = {name: spread(values) for name, values in per_pass.items()}
    n_inv = len(run.argvs)
    stats["setup_s"] = spread([s * n_inv for s in run.setups])
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "checks": "count"}
    metrics = {name: {"value": stats[name]["median"], "unit": units[name]} for name in units}
    return metrics, stats


def per_layer(run: Run) -> dict:
    plain = [run.invoke(argv) for argv in run.shuffled()]
    traced = [run.invoke(argv, trace=True) for argv in run.shuffled()]
    metrics: dict[str, tuple[float, str]] = {}
    wall = {subcommand(r["argv"]): r.get("wall_s", 0.0) for r in plain}
    traced_wall = sum(r.get("wall_s", 0.0) for r in traced)
    summaries = [r["trace"] for r in traced if "trace" in r]
    for layer in LAYERS + ("cli",):
        metrics[f"{layer}.self_s"] = (sum(t["self_s"][layer] for t in summaries), "s")
        if layer != "cli":
            metrics[f"{layer}.calls"] = (sum(t["calls"][layer] for t in summaries), "count")
    for name in SUBCOMMANDS:
        metrics[f"cli.{name}.wall_s"] = (wall.get(name, 0.0), "s")
    for cache in CACHES:
        infos = [r["caches"][cache] for r in traced if "caches" in r]
        hits = sum(i["hits"] for i in infos)
        attempts = hits + sum(i["misses"] for i in infos)
        metrics[f"{cache}.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
        metrics[f"{cache}.entries"] = (max((i["entries"] for i in infos), default=0), "count")
    metrics["specialfns.quad_evals"] = (sum(t["quad_evals"] for t in summaries), "count")
    metrics["kloosterman.series_calls"] = (sum(t["series_calls"] for t in summaries), "count")
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["tracing_overhead_s"] = (traced_wall - sum(wall.values()), "s")
    metrics["spans"] = (sum(t["spans"] for t in summaries), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["kloosterman", "exact", "transcendental"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quadtrace", "cli.py")):
        print(f"no quadtrace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    # The build: byte-compile once, so no timed interpreter pays for it.
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, digests)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "invocations": [" ".join(a) for a in run.argvs]}))
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics, stats = end_to_end(run, args.seconds)
        for name, stat in stats.items():
            print(f"{name}: median {stat['median']:.6g} q1 {stat['q1']:.6g} "
                  f"q3 {stat['q3']:.6g} n {stat['n']} samples "
                  + " ".join(f"{v:.6g}" for v in stat["samples"]))
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_frac: {fail_frac:.6g} ({run.failed}/{run.attempted} checks)")
    print(f"output_drift: {len(run.drift)} of {len(run.argvs)} invocations" +
          "".join(f"\n  drifted: {key}" for key in sorted(run.drift)))
    for problem in run.problems:
        print(f"failed: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
