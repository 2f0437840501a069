"""Command-line front end: tables and identity-verification sweeps.

Output is deterministic for a fixed configuration: json-lines (one report
per line) or CSV for tables.  Exit codes: 0 all checks pass, 1 at least
one verification failed, 2 configuration or usage error (main returns
argparse's code, 0 after --help), 141 (128 + SIGPIPE) when the reader of
stdout closed it early, as `| head` does; that ends the command without a
traceback.

Each verify target is one entry of CHECKS: a sweep over the primes and the
defaults of its parameters.  The acceptance suite runs the same sweeps.
A sweep is the one place where its checks are named, given their
tolerances and turned into reports: the mathematical modules return values
and import nothing from report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp

from .arith import is_prime, is_squarefree
from .classnumbers import (
    generalized_hurwitz,
    hurwitz_class_number_forms,
    hurwitz_forms_table,
    hurwitz_level_table,
    linear_relation_sides,
)
from .coefficients import (
    coeff_oracle_4,
    coeff_oracle_4p,
    deformation_b_infty,
    deformation_b_zero,
    derivative_at,
    sesqui4_square_coeff,
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_square_coeff,
    square_trace_rhs,
    square_trace_unsimplified,
    theta_multiple_const,
)
from .kloosterman import (
    MAX_MODULUS,
    assembled_product,
    kzeta_level_closed,
    kzeta_level_truncated,
    largest_modulus,
    plus_zeta_batch,
    plus_zeta_special_value,
)
from .lvalues import moebius_char_squared_sum, zeta_prime_over_zeta_2
from .modular import (
    eval_cohen_eisenstein,
    eval_sesqui_4p,
    eval_theta,
    eval_zagier_eisenstein,
    modularity_residual,
)
from .parallel import fork_map
from .precision import DEFAULT_DPS, hp, set_working_dps
from .quadforms import (
    IDENTITY,
    S_MAT,
    QuadForm,
    automorph_unit,
    geodesic_integral,
    mat_mul,
    weighted_orbit_count,
)
from .report import (
    VerificationReport,
    exact_report,
    fmt_exact,
    fmt_hp,
    numeric_report,
    tail_bound_report,
)
from .specialfns import alpha, alpha_companion
from .traces import imaginary_trace_rhs, real_index, real_trace_rhs, trace_real_nonsquare


def _add_common(sub):
    sub.add_argument("--p", type=int, nargs="+", help="odd primes (default 3)")
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--m-max", type=int, default=None)
    sub.add_argument("--prec", type=int, default=DEFAULT_DPS, help="decimal digits")
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")


def _emit_reports(reports, fmt) -> int:
    failures = 0
    for r in reports:
        if fmt == "jsonl":
            print(r.to_json())
        else:
            print(
                f"{r.check},{';'.join(f'{k}={v}' for k, v in sorted(r.params.items()))},"
                f"{r.lhs},{r.rhs},{r.abs_err},{r.rel_err},{int(r.passed)}"
            )
        if not r.passed:
            failures += 1
    total = len(reports)
    if total == 0:
        print("no checks in the requested range", file=sys.stderr)
        return 2
    print(f"# {total - failures}/{total} checks passed", file=sys.stderr)
    return 0 if failures == 0 else 1


def _emit_table(columns, rows, fmt) -> None:
    """A table: CSV (a header, then one line per row, a bool as 0/1) or one
    json object per row."""
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(int(x) if isinstance(x, bool) else x) for x in row))
    else:
        for row in rows:
            print(json.dumps(dict(zip(columns, row)), separators=(",", ":")))


def cmd_hurwitz(args) -> int:
    n_max = 100 if args.n_max is None else args.n_max
    failures = 0
    rows = []
    forms = hurwitz_forms_table(n_max)
    levels = hurwitz_level_table(n_max, _prime_levels(args.p))
    for p in args.p:
        for n in range(0, n_max + 1):
            h, h1p, hpp = forms[n], levels[1, p][n], levels[p, p][n]
            ok = True
            if n > 0:
                lhs, rhs = linear_relation_sides(p, h, h1p, hpp)
                ok = lhs == rhs
            failures += 0 if ok else 1
            rows.append((p, n, fmt_exact(h), fmt_exact(h1p), fmt_exact(hpp), ok))
    _emit_table(("p", "n", "H", "H_1p", "H_pp", "relation_ok"), rows, args.format)
    return 0 if failures == 0 else 1


def _coefficient_rows(p, m_max):
    """(m, closed form, derivative oracle) of c(0) and of c(m^2) for m <= m_max."""
    yield 0, sesqui4p_const_coeff(p), coeff_oracle_4p(p, 0)
    for m in range(1, m_max + 1):
        yield m, sesqui4p_square_coeff(p, m), coeff_oracle_4p(p, m)


def _prime_levels(primes):
    """The levels (1, p) and (p, p) of H_{1,p} and H_{p,p} for each p."""
    return [level for p in primes for level in ((1, p), (p, p))]


# ---------------------------------------------------------------------------
# sweeps: each takes the prime list and named parameters and returns its
# reports in output order


# the Moebius identity runs over these ranges, whatever --p and --n-max say
MOEBIUS_N_MAX, MOEBIUS_A_MAX = 105, 210


def sweep_classnumbers(primes, n_max):
    """H(n) by forms against the L-series route for n = 0, 3 (mod 4), the
    linear relation of H, H_{1,p} and H_{p,p} on the single-n routes for
    1 <= n <= n_max, and sum_{ell | N} mu(ell) chi_ell(a)^2 = [N | a] for
    squarefree N <= 105: each N's report counts the a <= 210 where it holds."""
    forms = hurwitz_forms_table(n_max)
    lseries = hurwitz_level_table(n_max, [(1, 1)])[1, 1]
    reports = [
        exact_report("hurwitz-dual-route", {"n": n}, forms[n], lseries[n])
        for n in range(n_max + 1)
        if n % 4 in (0, 3)
    ]
    for p in primes:
        for n in range(1, n_max + 1):
            h1p, hpp = generalized_hurwitz(1, p, n), generalized_hurwitz(p, p, n)
            sides = linear_relation_sides(p, hurwitz_class_number_forms(n), h1p, hpp)
            reports.append(exact_report("hurwitz-linear-relation", {"p": p, "n": n}, *sides))
    for big_n in range(1, MOEBIUS_N_MAX + 1):
        if is_squarefree(big_n):
            holds = sum(
                moebius_char_squared_sum(big_n, a) == (a % big_n == 0)
                for a in range(1, MOEBIUS_A_MAX + 1)
            )
            params = {"N": big_n, "a_max": MOEBIUS_A_MAX}
            reports.append(exact_report("moebius-char-square", params, holds, MOEBIUS_A_MAX))
    return reports


def sweep_imaginary(primes, n_max):
    """The weighted Gamma_0(p) orbit count at n < 0 against its closed form
    in H_{1,p}(-n) and H_{p,p}(-n), exactly."""
    levels = hurwitz_level_table(n_max, _prime_levels(primes))
    return [
        exact_report(
            "imaginary-trace",
            {"p": p, "n": n},
            weighted_orbit_count(p, n),
            imaginary_trace_rhs(p, levels[1, p][-n], levels[p, p][-n]),
        )
        for p in primes
        for n in range(-n_max, 0)
        if n % 4 in (0, 1)
    ]


def sweep_real(primes, n_max):
    """The geodesic-length half-sum at nonsquare n > 0 against its closed
    form, relative 1e-9."""
    ns = [n for n in range(5, n_max + 1) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n]
    # each n's p-independent work, done once for every p and over the usable cores
    indices = fork_map(real_index, ns)
    return [
        numeric_report(
            "real-trace",
            {"p": p, "n": index.n},
            trace_real_nonsquare(p, index),
            real_trace_rhs(p, index),
            "1e-9",
        )
        for p in primes
        for index in indices
    ]


# relative to max(|value|, |oracle|, COEFF_ORACLE_TOL): `verify coefficients`
# and `coeffs` gate a coefficient against its derivative oracle alike
COEFF_ORACLE_TOL = "1e-8"


def _oracle_report(p, m, value, oracle) -> VerificationReport:
    """c(0) (m = 0) or c(m^2) at level 4p against its derivative oracle."""
    check = "coeff-c-oracle" if m else "coeff-const-oracle"
    tol = COEFF_ORACLE_TOL
    return numeric_report(check, {"p": p, "m": m}, value, oracle, tol, scale_floor=tol)


def sweep_coefficients(primes, m_max, n_max):
    """Prime by prime: c(0), b(m^2) and c(m^2) against their derivative
    oracles; c(-n) by class numbers against the Kloosterman-zeta special
    value, relative 1e-9; and the simplified square-index trace against the
    unsimplified combination of the proof, relative 1e-10.  b(m^2) does not
    depend on p, so its rows come with the first prime only."""
    reports = []
    tol = COEFF_ORACLE_TOL
    for p in primes:
        for m, value, oracle in _coefficient_rows(p, m_max):
            if m and p == primes[0]:
                b, ob = sesqui4_square_coeff(m), coeff_oracle_4(m)
                reports.append(
                    numeric_report("coeff-b-oracle", {"m": m}, b, ob, tol, scale_floor=tol)
                )
            reports.append(_oracle_report(p, m, value, oracle))
        reports += [
            numeric_report(
                "coeff-negative-two-path",
                {"p": p, "n": -n},
                sesqui4p_neg_coeff(p, -n),
                plus_zeta_special_value(p, -n),
                "1e-9",
            )
            for n in range(1, n_max + 1)
            if (-n) % 4 in (0, 1) and math.isqrt(n) ** 2 != n
        ]
        reports += [
            numeric_report(
                "square-trace-consistency",
                {"p": p, "m": m},
                square_trace_rhs(p, m),
                square_trace_unsimplified(p, m),
                "1e-10",
            )
            for m in range(1, m_max + 1)
        ]
    return reports


def sweep_constants(primes):
    """The constant-term system behind the theta lift and the deformation
    coefficients at s = 1, prime by prime.

    The coefficients of v^{1/2} and of log(16 v)/pi are exact rational
    identities; the theta-multiple constant is tied to the two series'
    constants to 1e-12.  deformation-b-taylor checks B_infty(1) = 1 and
    B_zero(1) = p and records numerical first derivatives at s = 1 with the
    analytic log-derivative values.  A circulated Taylor expansion of these
    coefficients does not match the closed forms (its linear term is off by
    a uniform pi^2 (p^2-1) factor and its constant term contradicts
    B_infty(1) = 1); the report carries the numerical values and the ratio
    instead of asserting it.
    """
    reports = []
    for p in primes:
        reports += [
            exact_report(
                "constant-term-v-half",
                {"p": p},
                Fraction(2, 3 * (p - 1)) + Fraction(2, 3),
                Fraction(2, 3) * Fraction(p * (p + 1), p * p - 1),
            ),
            exact_report(
                "constant-term-log16v",
                {"p": p},
                Fraction(-1, 2 * (p - 1)) + Fraction(-1, 2 * (p + 1)),
                Fraction(-p, p * p - 1),
            ),
        ]
        # the report is built at this precision, where its abs_err is formed
        with hp():
            z = zeta_prime_over_zeta_2()
            base = mp.euler - mp.log(2) - z
            lhs_c = 2 / (mp.pi * (p - 1)) * base + 2 / (mp.pi * (p + 1)) * (
                base - p * p * mp.log(p) / (p * p - 1)
            )
            rhs_c = theta_multiple_const(p) - p / (mp.pi * (p * p - 1)) * (
                mp.log(mp.pi) - mp.euler
            )
            reports.append(numeric_report("constant-term-theta", {"p": p}, lhs_c, rhs_c, "1e-12"))
        with hp(extra=10):
            b_inf_1 = deformation_b_infty(p, 1)
            b_zero_1 = deformation_b_zero(p, 1)
            # the gate is relative: B_0(1) = p carries about p ulp of the rounding
            # of deformation_b_zero, which runs at hp(), 10 digits below this
            gate = mp.mpf(10) ** (-(mp.dps - 10))
            ok = abs(b_inf_1 - 1) < gate and abs(b_zero_1 - p) < p * gate
            step = mp.mpf("1e-6")
            d_inf = derivative_at(functools.partial(deformation_b_infty, p), mp.mpf(1), step)
            d_zero = derivative_at(functools.partial(deformation_b_zero, p), mp.mpf(1), step)
            z = zeta_prime_over_zeta_2()
            base = mp.euler + mp.log(mp.pi) - 2 * z
            true_inf = base - 2 * p * p * mp.log(p) / (p * p - 1)
            true_zero = p * (base + 2 * p * mp.log(p) / (p * p - 1))
            variant_inf = mp.pi**2 * ((p * p - 1) * base - 2 * p * p * mp.log(p))
            slopes_ok = (
                abs(d_inf - true_inf) < mp.mpf("1e-8") and abs(d_zero - true_zero) < mp.mpf("1e-8")
            )
            reports.append(
                VerificationReport(
                    check="deformation-b-taylor",
                    params={"p": p},
                    lhs=fmt_hp(b_inf_1),
                    rhs=fmt_hp(b_zero_1),
                    abs_err=fmt_hp(abs(b_inf_1 - 1) + abs(b_zero_1 - p), 8),
                    rel_err="0",
                    passed=bool(ok and slopes_ok),
                    detail=f"dB_inf/ds={fmt_hp(d_inf, 20)} dB_zero/ds={fmt_hp(d_zero, 20)}",
                    flags={"variant_vs_numeric_ratio_inf": fmt_hp(variant_inf / d_inf, 12)},
                )
            )
    return reports


PLUS_ZETA_INDICES = (-4, -3, 5, 8)


def sweep_kloosterman(primes, cutoff):
    reports = []
    batches = plus_zeta_batch(primes, PLUS_ZETA_INDICES, 2.5, cutoff)
    for p, (values, tail) in zip(primes, batches):
        level_value, level_tail = kzeta_level_truncated(p, 1.25, cutoff)
        reports.append(
            tail_bound_report(
                "kzeta-closed-form",
                {"p": p, "s": "1.25", "cutoff": cutoff},
                level_value,
                kzeta_level_closed(p, 1.25),
                level_tail,
            )
        )
        for n, value in zip(PLUS_ZETA_INDICES, values):
            reports.append(
                tail_bound_report(
                    "plus-zeta-factorization",
                    {"p": p, "n": n, "s": "2.5", "cutoff": cutoff},
                    value,
                    assembled_product(p, n, 2.5),
                    tail,
                )
            )
    return reports


# a form of discriminant d for each d, and words in S, T and t = T^-1 that
# move it around its class
GEODESIC_SEEDS = {5: QuadForm(1, 1, -1), 8: QuadForm(1, 2, -1), 13: QuadForm(1, 3, -1)}
GEODESIC_WORDS = ("", "T", "S", "TS", "St", "TTS")
_LETTERS = {"S": S_MAT, "T": (1, 1, 0, 1), "t": (1, -1, 0, 1)}


def sweep_geodesic(primes):
    """The cycle integral of each form q = seed.word against 2 log of the
    automorph unit of d, to 1e-8: the geodesic-length atom of the real trace."""
    reports = []
    for d, seed in GEODESIC_SEEDS.items():
        with hp():
            expected = 2 * automorph_unit(d).log_value()
        for word in GEODESIC_WORDS:
            q = seed.apply(functools.reduce(mat_mul, (_LETTERS[c] for c in word), IDENTITY))
            value, error = geodesic_integral(q)
            reports.append(
                numeric_report(
                    "geodesic-cycle-integral",
                    {"d": d, "form": str(q)},
                    value,
                    expected,
                    "1e-8",
                    detail=f"error_estimate={fmt_hp(error, 4)}",
                )
            )
    return reports


SPECIAL_GRID = [
    (big_n, v, m) for big_n in (1, 3, 5) for v in ("0.3", "0.5", "1", "2") for m in (1, 2, 3)
]


def _special_sides(arguments):
    """alpha_companion(t) and alpha(y)."""
    t, y = arguments
    return alpha_companion(t), alpha(y)


def sweep_special(primes):
    """-2 F(2m sqrt(pi N v)) = alpha(4 N m^2 v) on a 36-point grid.

    Grid points with bit-equal arguments share their quadratures, and the
    distinct ones run over the usable cores; the reports are built here.
    """
    reports = []
    arguments = [
        (2 * m * mp.sqrt(mp.pi * big_n * mp.mpf(v)), 4 * big_n * m * m * mp.mpf(v))
        for big_n, v, m in SPECIAL_GRID
    ]
    keys = [(t._mpf_, y._mpf_) for t, y in arguments]
    distinct = dict(zip(keys, arguments))
    sides = dict(zip(distinct, fork_map(_special_sides, distinct.values())))
    for (big_n, v, m), key in zip(SPECIAL_GRID, keys):
        left, right = sides[key]
        r = numeric_report(
            "special-function-relation",
            {"N": big_n, "v": v, "m": m},
            -2 * left.value,
            right.value,
            "1e-8",
            scale_floor="1e-8",
            # the key keeps its old name until the digests are re-recorded
            detail=f"err_bounds={fmt_hp(2 * left.error_estimate, 4)};"
            f"{fmt_hp(right.error_estimate, 4)}",
        )
        if not (left.converged and right.converged):
            # a side whose quadrature missed its target cannot pass
            r.passed = False
            r.flags["quadrature"] = "unconverged"
        reports.append(r)
    return reports


def sweep_modularity(primes):
    """Modularity residuals of theta, Zagier's and Cohen's Eisenstein series
    and the level-4p series.  Each case evaluates its series at tau and at
    gamma tau in one call, with cutoffs chosen for its tolerance, and passes
    when the residual is at most its gate."""
    # built per call, so that each series is the module global of the moment
    cohen = functools.partial(eval_cohen_eisenstein, 3, 3)
    sesqui = functools.partial(eval_sesqui_4p, 3)
    cases = [
        # check, params, series, gamma, weight, tau, cutoff tolerance, gate
        ("theta-residual", {"gamma": "[1,0;4,1]"}, eval_theta, (1, 0, 4, 1), 0.5,
         ("0.13", "0.9"), "1e-8", "1e-10"),
        ("zagier-residual", {"gamma": "[1,0;4,1]"}, eval_zagier_eisenstein, (1, 0, 4, 1), 1.5,
         ("0.13", "0.9"), "1e-8", "1e-6"),
        ("cohen-eisenstein-residual", {"gamma": "(1, 0, 12, 1)"}, cohen, (1, 0, 12, 1), 1.5,
         ("0.21", "0.63"), "1e-7", "1e-5"),
        ("cohen-eisenstein-residual", {"gamma": "(5, 2, 12, 5)"}, cohen, (5, 2, 12, 5), 1.5,
         ("0.21", "0.63"), "1e-7", "1e-5"),
        ("sesqui-4p-residual", {"p": 3}, sesqui, (1, 0, 12, 1), 0.5,
         ("0.21", "1.1"), "2e-5", "1e-4"),
    ]
    reports = []
    for check, params, series, gamma, weight, tau, tol, gate in cases:
        residual = modularity_residual(series, gamma, weight, mp.mpc(*tau), mp.mpf(tol))
        text, passed = fmt_hp(residual, 8), bool(residual <= mp.mpf(gate))
        # lhs, abs_err and rel_err are the residual, rhs is 0
        reports.append(VerificationReport(check, params, text, "0", text, text, passed))
    return reports


class Check(NamedTuple):
    """A verify target: its sweep and the defaults of the sweep's named
    parameters.  Each parameter is read from the flag of its name, and
    `--p` when reads_p."""

    sweep: Callable[..., list[VerificationReport]]
    defaults: dict
    reads_p: bool = True

    def run(self, primes, **params) -> list[VerificationReport]:
        return self.sweep(primes, **{**self.defaults, **params})

    def flags(self) -> set:
        return set(self.defaults) | ({"p"} if self.reads_p else set())


CHECKS = {
    "classnumbers": Check(sweep_classnumbers, {"n_max": 2000}),
    "imaginary": Check(sweep_imaginary, {"n_max": 400}),
    "real": Check(sweep_real, {"n_max": 300}),
    "coefficients": Check(sweep_coefficients, {"m_max": 12, "n_max": 200}),
    "constants": Check(sweep_constants, {}),
    "kloosterman": Check(sweep_kloosterman, {"cutoff": 2000}),
    "special": Check(sweep_special, {}, reads_p=False),
    "modularity": Check(sweep_modularity, {}, reads_p=False),
    "geodesic": Check(sweep_geodesic, {}, reads_p=False),
}
SWEEP_FLAGS = ("p", "n_max", "m_max", "cutoff")


def _flags_read(args) -> tuple[str, set]:
    """The command as named in notes, and the flags of SWEEP_FLAGS it reads."""
    if args.command == "verify":
        return f"verify {args.which}", CHECKS[args.which].flags()
    return args.command, {"p", "n_max" if args.command == "hurwitz" else "m_max"}


def cmd_verify(args) -> int:
    check = CHECKS[args.which]
    params = {name: getattr(args, name) for name in check.defaults if name in args.given}
    return _emit_reports(check.run(args.p, **params), args.format)


def cmd_coeffs(args) -> int:
    m_max = CHECKS["coefficients"].defaults["m_max"] if args.m_max is None else args.m_max
    rows = []
    failures = 0
    for p in args.p:
        for m, c, o in _coefficient_rows(p, m_max):
            if not _oracle_report(p, m, c, o).passed:
                failures += 1
            rows.append((p, m, fmt_hp(c), fmt_hp(o), fmt_hp(abs(c - o), 6)))
    _emit_table(("p", "m", "value", "oracle", "delta"), rows, args.format)
    return 0 if failures == 0 else 1


# exit code when stdout's reader went away, as a shell reports death by SIGPIPE
BROKEN_PIPE = 141


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nobody reads the rest: send it, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


def _run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="quadtrace",
        description="class-number, trace, and Kloosterman-zeta tables and verifiers",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_h = subs.add_parser("hurwitz", help="class-number tables with relation checks")
    _add_common(p_h)
    p_v = subs.add_parser("verify", help="identity verification sweeps")
    p_v.add_argument("which", choices=list(CHECKS))
    _add_common(p_v)
    p_c = subs.add_parser("coeffs", help="coefficient tables with oracle deltas")
    _add_common(p_c)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse has printed the usage error (code 2) or the help (code 0)
        return exit_.code
    # flags left unset are None, so that each command can name the ones it ignores
    args.given = {flag for flag in SWEEP_FLAGS if getattr(args, flag) is not None}
    if args.p is None:
        args.p = [3]
    if args.prec < 30:
        print("precision must be at least 30 digits", file=sys.stderr)
        return 2
    limits = (("--cutoff", args.cutoff), ("--n-max", args.n_max), ("--m-max", args.m_max))
    for flag, value in limits:
        if value is not None and value < 1:
            print(f"{flag} must be at least 1 (got {value})", file=sys.stderr)
            return 2
    for i, p in enumerate(args.p):
        if p == 2 or not is_prime(p):
            print(f"--p values must be odd primes (got {p})", file=sys.stderr)
            return 2
        if p in args.p[:i]:
            print(f"duplicate --p value {p}", file=sys.stderr)
            return 2
    if args.command == "verify" and args.which == "kloosterman":
        cutoff = CHECKS["kloosterman"].defaults["cutoff"] if args.cutoff is None else args.cutoff
        largest = max(largest_modulus(p, n, cutoff) for p in args.p for n in PLUS_ZETA_INDICES)
        if largest > MAX_MODULUS:
            print(
                f"verify kloosterman would sum modulo {largest}, above the limit "
                f"{MAX_MODULUS}: lower --cutoff or --p",
                file=sys.stderr,
            )
            return 2
    set_working_dps(args.prec)
    name, read = _flags_read(args)
    for flag in SWEEP_FLAGS:
        if flag in args.given and flag not in read:
            print(f"{name} ignores --{flag.replace('_', '-')}", file=sys.stderr)
    if args.command == "hurwitz":
        return cmd_hurwitz(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "coeffs":
        return cmd_coeffs(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
