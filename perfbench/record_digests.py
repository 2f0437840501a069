"""Record the reference stdout digest and check count of every benchmark invocation.

    python3 perfbench/record_digests.py

Runs each invocation any seed can produce once, untraced, and rewrites
`perfbench/digests.json`.  Run it only at a commit whose output is the
reference; the benchmark reports any later difference as output drift.
"""

from __future__ import annotations

import itertools
import json
import sys

from run import DIGESTS, EXACT_PRIME_POOL, SUMMARY, exact_invocations, invocations, spawn


def all_invocations() -> list[list[str]]:
    argvs = invocations("kloosterman", 0) + invocations("transcendental", 0)
    for primes in itertools.combinations(EXACT_PRIME_POOL, 3):
        argvs += exact_invocations(primes)
    return argvs


def main() -> int:
    digests = {}
    for argv in all_invocations():
        result, _, err = spawn(["--", *argv], timeout=600)
        if result is None or result["rc"] != 0 or result["traceback"]:
            print(f"{' '.join(argv)} failed: {err or result}", file=sys.stderr)
            return 1
        summary = SUMMARY.search(result["stderr"])
        checks = int(summary.group(2)) if summary else result["stdout_rows"]
        digests[" ".join(argv)] = {"sha256": result["stdout_sha256"], "checks": checks}
        print(f"{' '.join(argv)}: {checks} checks, {result['wall_s']:.2f} s", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
