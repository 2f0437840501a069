"""Acceptance suite: one row per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion but 12 is a row of ROWS, which runs a `quadtrace
verify` target (`quadtrace.cli.CHECKS`) at its primes and parameters and
reads the reports of the named check families (all of them when none are
named).  The row passes when each report it reads passes, there is at least
one, the sweep ends within the row's wall-time limit and, where the row
gives one, the worst `abs_err` is below an absolute bound.  The tolerances
are the reports' own.  Rows with the same target, primes and parameters
share one run, and the test of each row keeps the name
test_criterion_<number>_<name>.

Criterion 12 runs `verify modularity` and, besides it, theta and Zagier's
series over a battery of random matrices (tests/test_modular.py) at the
tolerances of that target's gates.
"""

import functools
import time
from typing import NamedTuple

from mpmath import mp

from quadtrace.arith import is_prime
from quadtrace.cli import CHECKS
from quadtrace.precision import set_working_dps


def setup_module():
    set_working_dps(64)
    mp.dps = 30


def _report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} [{status}] {label} {detail}")
    assert passed, f"criterion {num}: {label} {detail}"


class Row(NamedTuple):
    num: int
    name: str
    label: str
    target: str
    primes: tuple = ()
    params: tuple = ()  # (name, value) pairs for CHECKS[target].run
    limit_s: float = 300
    checks: tuple = ()  # the check families read; all when empty
    max_abs: str | None = None


CLASSNUMBERS = ("classnumbers", (3, 5, 7), (("n_max", 2000),), 60)
COEFFICIENTS = ("coefficients", (3, 5, 7))
ORACLES = ("coeff-b-oracle", "coeff-c-oracle", "coeff-const-oracle")

ROWS = (
    Row(1, "dual_algorithm_class_numbers", "dual-route Hurwitz class numbers n <= 2000 exact",
        *CLASSNUMBERS, ("hurwitz-dual-route",)),
    Row(2, "imaginary_trace_sweep", "imaginary trace identity p in {3,5,7}, -400 <= n < 0 exact",
        "imaginary", (3, 5, 7), (("n_max", 400),)),
    Row(3, "linear_relation", "class-number linear relation p in {3,5,7}, n <= 2000 exact",
        *CLASSNUMBERS, ("hurwitz-linear-relation",)),
    Row(4, "real_trace_sweep", "real trace identity p in {3,5}, nonsquare n <= 300, rel 1e-9",
        "real", (3, 5), (("n_max", 300),)),
    Row(5, "negative_coefficient_two_path",
        "negative-index coefficient two-path p in {3,5,7}, n <= 200, rel 1e-9",
        *COEFFICIENTS, checks=("coeff-negative-two-path",)),
    Row(6, "derivative_oracles", "closed coefficients vs derivative oracles p in {3,5,7}, abs 1e-8",
        *COEFFICIENTS, checks=ORACLES, max_abs="1e-8"),
    Row(7, "constant_term_system", "constant-term system and B(1) values, odd primes p <= 50",
        "constants", tuple(p for p in range(3, 51) if is_prime(p))),
    Row(8, "special_function_grid", "kernel relation sup over 36-point grid, abs 1e-8",
        "special", max_abs="1e-8"),
    Row(9, "kloosterman_closed_forms",
        "Kloosterman closed forms within computed tail bounds p in {3,5}, cutoff 2000",
        "kloosterman", (3, 5)),
    Row(10, "moebius_character_identity",
        "Moebius character-square identity, N <= 105, a <= 210 exact",
        *CLASSNUMBERS, ("moebius-char-square",)),
    Row(11, "geodesic_oracle", "geodesic cycle integral equals 2 log(unit), abs 1e-8",
        "geodesic", max_abs="1e-8"),
    Row(13, "square_trace_consistency",
        "square-index trace consistency p in {3,5,7}, m <= 12, rel 1e-10",
        *COEFFICIENTS, checks=("square-trace-consistency",)),
)


@functools.cache
def _sweep(target, primes, params):
    t0 = time.time()
    reports = CHECKS[target].run(primes, **dict(params))
    return reports, time.time() - t0


def _check(row):
    reports, elapsed = _sweep(row.target, row.primes, row.params)
    reports = [r for r in reports if not row.checks or r.check in row.checks]
    failed = [(r.check, r.params) for r in reports if not r.passed]
    worst = max((mp.mpf(r.abs_err) for r in reports), default=mp.mpf(0))
    in_bound = row.max_abs is None or worst < mp.mpf(row.max_abs)
    _report(
        row.num,
        row.label,
        bool(reports) and not failed and elapsed < row.limit_s and in_bound,
        f"({len(reports)} checks, worst abs_err={mp.nstr(worst, 3)}, {elapsed:.1f}s, "
        f"failed={failed[:5]})",
    )


def _row_test(row):
    def test():
        _check(row)

    test.__name__ = f"test_criterion_{row.num:02d}_{row.name}"
    return test


for _row in ROWS:
    globals()[f"test_criterion_{_row.num:02d}_{_row.name}"] = _row_test(_row)


def test_criterion_12_modularity_battery():
    from quadtrace.modular import eval_theta, eval_zagier_eisenstein, modularity_residual

    from .test_modular import battery

    t0 = time.time()
    reports = CHECKS["modularity"].run(())
    worst_theta = worst_zagier = mp.mpf(0)
    for g, tau in battery():
        r = modularity_residual(eval_theta, g, mp.mpf(1) / 2, tau, tol=mp.mpf("1e-12"))
        worst_theta = max(worst_theta, r)
        r = modularity_residual(eval_zagier_eisenstein, g, mp.mpf(3) / 2, tau, tol=mp.mpf("1e-8"))
        worst_zagier = max(worst_zagier, r)
    ok = (
        all(r.passed for r in reports)
        and worst_theta < mp.mpf("1e-10")
        and worst_zagier < mp.mpf("1e-6")
    )
    residuals = ", ".join(f"{r.check}={mp.nstr(mp.mpf(r.abs_err), 3)}" for r in reports)
    _report(
        12,
        "modularity residuals: verify modularity and a random battery for theta and Zagier",
        ok,
        f"({residuals}, battery theta={mp.nstr(worst_theta, 3)}, "
        f"zagier={mp.nstr(worst_zagier, 3)}, {time.time()-t0:.1f}s)",
    )
