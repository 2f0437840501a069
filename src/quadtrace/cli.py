"""Command-line front end: tables and identity-verification sweeps.

Output is deterministic for a fixed configuration: json-lines (one report
per line) or CSV for tables.  Exit codes: 0 all checks pass, 1 at least
one verification failed, 2 configuration error.

Each verify target is one entry of CHECKS: a sweep over the primes and the
defaults of its parameters.  The acceptance suite runs the same sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from mpmath import mp

from .arith import is_prime
from .classnumbers import hurwitz_forms_table, hurwitz_level_table, linear_relation_report
from .coefficients import (
    coeff_oracle_4,
    coeff_oracle_4p,
    constant_term_checks,
    deformation_b_check,
    sesqui4_square_coeff,
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_square_coeff,
    square_trace_consistency,
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
from .lvalues import fundamental_decomposition, l_values_at_1
from .modular import (
    eval_cohen_eisenstein,
    eval_sesqui_4p,
    eval_theta,
    eval_zagier_eisenstein,
    modularity_residual,
)
from .parallel import fork_map
from .precision import set_working_dps
from .report import (
    VerificationReport,
    fmt_exact,
    fmt_hp,
    numeric_report,
    tail_bound_report,
)
from .specialfns import alpha, alpha_companion
from .traces import (
    imaginary_trace_report,
    pin_convention,
    real_index,
    verify_real_trace_identity,
)


def _add_common(sub):
    sub.add_argument("--p", type=int, nargs="+", help="odd primes (default 3)")
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--m-max", type=int, default=None)
    sub.add_argument("--prec", type=int, default=64, help="decimal digits")
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sub.add_argument("--convention", choices=["auto", "pos-def", "both-signs"])
    sub.add_argument(
        "--seed-cases",
        action="store_true",
        default=None,
        help="run the convention-pinning seed cases and report the outcome",
    )


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
                ok = linear_relation_report(p, n, h, h1p, hpp).passed
            failures += 0 if ok else 1
            rows.append((p, n, h, h1p, hpp, ok))
    if args.format == "csv":
        print("p,n,H,H_1p,H_pp,relation_ok")
        for p, n, h, h1p, hpp, ok in rows:
            print(f"{p},{n},{fmt_exact(h)},{fmt_exact(h1p)},{fmt_exact(hpp)},{int(ok)}")
    else:
        for p, n, h, h1p, hpp, ok in rows:
            print(
                json.dumps(
                    {
                        "p": p,
                        "n": n,
                        "H": fmt_exact(h),
                        "H_1p": fmt_exact(h1p),
                        "H_pp": fmt_exact(hpp),
                        "relation_ok": ok,
                    },
                    separators=(",", ":"),
                )
            )
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


def sweep_imaginary(primes, n_max, convention):
    if convention == "auto":
        convention = pin_convention()
    levels = hurwitz_level_table(n_max, _prime_levels(primes))
    return [
        imaginary_trace_report(p, n, convention, levels[1, p][-n], levels[p, p][-n])
        for p in primes
        for n in range(-n_max, 0)
        if n % 4 in (0, 1)
    ]


def sweep_real(primes, n_max):
    ns = [n for n in range(5, n_max + 1) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n]
    # the L(1, chi_t) of every t in range, in one batch that may split
    l_values_at_1([fundamental_decomposition(n).t for n in ns])
    # n-major, so that each n's p-independent work is done once
    by_n = []
    for n in ns:
        index = real_index(n)
        by_n.append([verify_real_trace_identity(p, n, index) for p in primes])
    return [reports[i] for i in range(len(primes)) for reports in by_n]


def sweep_coefficient_oracles(primes, m_max):
    """c(0), b(m^2) and c(m^2) against their derivative oracles."""
    reports = []
    for p in primes:
        for m, value, oracle in _coefficient_rows(p, m_max):
            if m:
                b, ob = sesqui4_square_coeff(m), coeff_oracle_4(m)
                reports.append(
                    numeric_report("coeff-b-oracle", {"m": m}, b, ob, "1e-8", scale_floor="1e-8")
                )
            reports.append(
                numeric_report(
                    "coeff-c-oracle" if m else "coeff-const-oracle",
                    {"p": p, "m": m},
                    value,
                    oracle,
                    "1e-8",
                    scale_floor="1e-8",
                )
            )
    return reports


def sweep_negative_two_path(primes, n_max):
    """c(-n) by class numbers against the Kloosterman-zeta special value."""
    return [
        numeric_report(
            "coeff-negative-two-path",
            {"p": p, "n": -n},
            sesqui4p_neg_coeff(p, -n),
            plus_zeta_special_value(p, -n),
            "1e-9",
        )
        for p in primes
        for n in range(1, n_max + 1)
        if (-n) % 4 in (0, 1) and math.isqrt(n) ** 2 != n
    ]


def sweep_square_traces(primes, m_max):
    return [square_trace_consistency(p, m) for p in primes for m in range(1, m_max + 1)]


def sweep_coefficients(primes, m_max, n_max, square_m_max):
    reports = []
    for p in primes:
        reports += sweep_coefficient_oracles([p], m_max)
        reports += sweep_negative_two_path([p], n_max)
        reports += sweep_square_traces([p], square_m_max)
    return reports


def sweep_constants(primes):
    reports = []
    for p in primes:
        reports += constant_term_checks(p)
        reports.append(deformation_b_check(p))
    return reports


PLUS_ZETA_INDICES = (-4, -3, 5, 8)


def sweep_kloosterman(primes, cutoff):
    reports = []
    for p in primes:
        kv = kzeta_level_truncated(p, 1.25, cutoff)
        reports.append(
            tail_bound_report(
                "kzeta-closed-form",
                {"p": p, "s": "1.25", "cutoff": kv.cutoff},
                kv.value,
                kzeta_level_closed(p, 1.25),
                kv.tail_bound,
            )
        )
        for tv in plus_zeta_batch(p, PLUS_ZETA_INDICES, 2.5, cutoff):
            n = tv.params["n"]
            reports.append(
                tail_bound_report(
                    "plus-zeta-factorization",
                    {"p": p, "n": n, "s": "2.5", "cutoff": tv.cutoff},
                    tv.value,
                    assembled_product(p, n, 2.5),
                    tv.tail_bound,
                )
            )
    return reports


SPECIAL_GRID = [
    (big_n, v, m) for big_n in (1, 3, 5) for v in ("0.3", "0.5", "1", "2") for m in (1, 2, 3)
]


def _special_sides(point):
    """alpha_companion(2 m sqrt(pi N v)) and alpha(4 N m^2 v)."""
    big_n, v, m = point
    left = alpha_companion(2 * m * mp.sqrt(mp.pi * big_n * mp.mpf(v)))
    right = alpha(4 * big_n * m * m * mp.mpf(v))
    return left, right


def sweep_special(primes):
    """-2 F(2m sqrt(pi N v)) = alpha(4 N m^2 v) on a 36-point grid.

    The 72 quadratures run over the usable cores; the reports are built here.
    """
    reports = []
    sides = fork_map(_special_sides, SPECIAL_GRID)
    for (big_n, v, m), (left, right) in zip(SPECIAL_GRID, sides):
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
    reports = []
    tau = mp.mpc("0.13", "0.9")
    r = modularity_residual(eval_theta, (1, 0, 4, 1), mp.mpf(1) / 2, tau)
    reports.append(_residual_report("theta-residual", {"gamma": "[1,0;4,1]"}, r, "1e-10"))
    r = modularity_residual(eval_zagier_eisenstein, (1, 0, 4, 1), mp.mpf(3) / 2, tau)
    reports.append(_residual_report("zagier-residual", {"gamma": "[1,0;4,1]"}, r, "1e-6"))
    tau2 = mp.mpc("0.21", "0.63")
    for g in ((1, 0, 12, 1), (5, 2, 12, 5)):
        r = modularity_residual(
            lambda t, c: eval_cohen_eisenstein(3, 3, t, c),
            g,
            mp.mpf(3) / 2,
            tau2,
            tol=mp.mpf("1e-7"),
        )
        reports.append(
            _residual_report("cohen-eisenstein-residual", {"gamma": str(g)}, r, "1e-5")
        )
    tau3 = mp.mpc("0.21", "1.1")
    r = modularity_residual(
        lambda t, c: eval_sesqui_4p(3, t, c),
        (1, 0, 12, 1),
        mp.mpf(1) / 2,
        tau3,
        tol=mp.mpf("2e-5"),
    )
    reports.append(_residual_report("sesqui-4p-residual", {"p": 3}, r, "1e-4"))
    return reports


def _residual_report(check, params, residual, tol) -> VerificationReport:
    return VerificationReport(
        check=check,
        params=params,
        lhs=fmt_hp(residual, 8),
        rhs="0",
        abs_err=fmt_hp(residual, 8),
        rel_err=fmt_hp(residual, 8),
        passed=bool(residual <= mp.mpf(tol)),
    )


class Check(NamedTuple):
    """A verify target: its sweep and the defaults of the sweep's named
    parameters.  Each parameter is read from the flag of its name, except
    that `--m-max` also sets `square_m_max`; `--p` is read when reads_p."""

    sweep: Callable[..., list[VerificationReport]]
    defaults: dict
    reads_p: bool = True

    def run(self, primes, **params) -> list[VerificationReport]:
        return self.sweep(primes, **{**self.defaults, **params})

    def flags(self) -> set:
        return {_flag(name) for name in self.defaults} | ({"p"} if self.reads_p else set())


CHECKS = {
    "imaginary": Check(sweep_imaginary, {"n_max": 400, "convention": "auto"}),
    "real": Check(sweep_real, {"n_max": 300}),
    "coefficients": Check(
        sweep_coefficients, {"m_max": 12, "n_max": 200, "square_m_max": 10}
    ),
    "constants": Check(sweep_constants, {}),
    "kloosterman": Check(sweep_kloosterman, {"cutoff": 2000}),
    "special": Check(sweep_special, {}, reads_p=False),
    "modularity": Check(sweep_modularity, {}, reads_p=False),
}
SWEEP_FLAGS = ("p", "n_max", "m_max", "cutoff", "convention", "seed_cases")


def _flag(param: str) -> str:
    return "m_max" if param == "square_m_max" else param


def _flags_read(args) -> tuple[str, set]:
    """The command as named in notes, and the flags of SWEEP_FLAGS it reads."""
    if args.command == "verify":
        read = CHECKS[args.which].flags() | {"seed_cases"}
        return f"verify {args.which}", read | ({"convention"} if args.seed_cases else set())
    return args.command, {"p", "n_max" if args.command == "hurwitz" else "m_max"}


def cmd_verify(args) -> int:
    check = CHECKS[args.which]
    reports: list[VerificationReport] = []
    if args.seed_cases:
        pinned = pin_convention()
        convention = pinned if args.convention in (None, "auto") else args.convention
        reports.append(
            VerificationReport(
                check="convention-pinning",
                params={"seed_cases": "(3,-3);(3,-4);(5,-4)"},
                lhs=pinned,
                rhs=convention,
                abs_err="0",
                rel_err="0",
                passed=pinned == convention,
            )
        )
    params = {
        name: getattr(args, _flag(name)) for name in check.defaults if _flag(name) in args.given
    }
    reports += check.run(args.p, **params)
    return _emit_reports(reports, args.format)


def cmd_coeffs(args) -> int:
    m_max = CHECKS["coefficients"].defaults["m_max"] if args.m_max is None else args.m_max
    lines = []
    failures = 0
    for p in args.p:
        for m, c, o in _coefficient_rows(p, m_max):
            delta = abs(c - o)
            if delta > mp.mpf("1e-8"):
                failures += 1
            lines.append((p, m, fmt_hp(c), fmt_hp(o), fmt_hp(delta, 6)))
    if args.format == "csv":
        print("p,m,value,oracle,delta")
        for row in lines:
            print(",".join(str(x) for x in row))
    else:
        for p, m, c, o, d in lines:
            print(
                json.dumps(
                    {"p": p, "m": m, "value": c, "oracle": o, "delta": d},
                    separators=(",", ":"),
                )
            )
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
