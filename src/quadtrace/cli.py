"""Command-line front end: tables and identity-verification sweeps.

Output is deterministic for a fixed configuration: json-lines (one report
per line) or CSV for tables.  Exit codes: 0 all checks pass, 1 at least
one verification failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

from mpmath import mp

from .arith import is_prime
from .classnumbers import (
    generalized_hurwitz,
    hurwitz_class_number_forms,
    verify_linear_relation,
)
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
    theta_multiple_const,
)
from .kloosterman import (
    assembled_product,
    kzeta_level_closed,
    kzeta_level_truncated,
    plus_zeta_batch,
    plus_zeta_special_value,
)
from .modular import (
    eval_cohen_eisenstein,
    eval_sesqui_4p,
    eval_theta,
    eval_zagier_eisenstein,
    modularity_residual,
)
from .precision import set_working_dps
from .report import VerificationReport, fmt_exact, fmt_hp, numeric_report
from .specialfns import alpha, alpha_companion
from .traces import (
    pin_convention,
    verify_imaginary_trace_identity,
    verify_real_trace_identity,
)


def _add_common(sub):
    sub.add_argument("--p", type=int, nargs="+", default=[3], help="odd primes")
    sub.add_argument("--n-min", type=int, default=None)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--m-max", type=int, default=None)
    sub.add_argument("--prec", type=int, default=64, help="decimal digits")
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sub.add_argument(
        "--convention",
        choices=["auto", "pos-def", "both-signs"],
        default="auto",
    )
    sub.add_argument(
        "--seed-cases",
        action="store_true",
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
    print(f"# {total - failures}/{total} checks passed", file=sys.stderr)
    return 0 if failures == 0 else 1


def _discs_neg(n_max):
    return [n for n in range(-n_max, 0) if n % 4 in (0, 1)]


def _discs_pos_nonsquare(n_max):
    return [
        n
        for n in range(5, n_max + 1)
        if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n
    ]


def cmd_hurwitz(args) -> int:
    n_max = args.n_max or 100
    failures = 0
    rows = []
    for p in args.p:
        for n in range(0, n_max + 1):
            h = hurwitz_class_number_forms(n)
            h1p = generalized_hurwitz(1, p, n)
            hpp = generalized_hurwitz(p, p, n)
            ok = True
            if n > 0:
                ok = verify_linear_relation(p, n).passed
            failures += 0 if ok else 1
            rows.append((p, n, h, h1p, hpp, ok))
    if args.format == "csv":
        print("p,n,H,H_1p,H_pp,relation_ok")
        for p, n, h, h1p, hpp, ok in rows:
            print(f"{p},{n},{fmt_exact(h)},{fmt_exact(h1p)},{fmt_exact(hpp)},{int(ok)}")
    else:
        import json

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


def cmd_verify(args) -> int:
    which = args.which
    reports: list[VerificationReport] = []
    convention = args.convention
    if convention == "auto":
        convention = pin_convention()
    if args.seed_cases:
        reports.append(
            VerificationReport(
                check="convention-pinning",
                params={"seed_cases": "(3,-3);(3,-4);(5,-4)"},
                lhs=pin_convention(),
                rhs=convention,
                abs_err="0",
                rel_err="0",
                passed=pin_convention() == convention,
            )
        )
    if which == "imaginary":
        n_max = args.n_max or 400
        for p in args.p:
            for n in _discs_neg(n_max):
                reports.append(_verify_imaginary_with(p, n, convention))
    elif which == "real":
        n_max = args.n_max or 300
        for p in args.p:
            for n in _discs_pos_nonsquare(n_max):
                reports.append(verify_real_trace_identity(p, n))
    elif which == "coefficients":
        m_max = args.m_max or 12
        for p in args.p:
            c0 = sesqui4p_const_coeff(p)
            o0 = coeff_oracle_4p(p, 0)
            reports.append(
                numeric_report(
                    "coeff-const-oracle", {"p": p, "m": 0}, c0, o0, "1e-8",
                    scale_floor="1e-8",
                )
            )
            for m in range(1, m_max + 1):
                b, ob = sesqui4_square_coeff(m), coeff_oracle_4(m)
                reports.append(
                    numeric_report(
                        "coeff-b-oracle", {"m": m}, b, ob, "1e-8", scale_floor="1e-8"
                    )
                )
                c, oc = sesqui4p_square_coeff(p, m), coeff_oracle_4p(p, m)
                reports.append(
                    numeric_report(
                        "coeff-c-oracle", {"p": p, "m": m}, c, oc, "1e-8",
                        scale_floor="1e-8",
                    )
                )
            n_max = args.n_max or 200
            for n in range(1, n_max + 1):
                if (-n) % 4 not in (0, 1) or math.isqrt(n) ** 2 == n:
                    continue
                lhs = sesqui4p_neg_coeff(p, -n)
                rhs = plus_zeta_special_value(p, -n)
                reports.append(
                    numeric_report("coeff-negative-two-path", {"p": p, "n": -n}, lhs, rhs, "1e-9")
                )
            for m in range(1, (args.m_max or 10) + 1):
                reports.append(square_trace_consistency(p, m))
    elif which == "constants":
        for p in args.p:
            reports.extend(constant_term_checks(p))
            reports.append(deformation_b_check(p))
    elif which == "kloosterman":
        cutoff = 2000 if args.cutoff is None else args.cutoff
        for p in args.p:
            kv = kzeta_level_truncated(p, 1.25, cutoff)
            closed = kzeta_level_closed(p, 1.25)
            diff = abs(kv.value - complex(closed))
            reports.append(
                VerificationReport(
                    check="kzeta-closed-form",
                    params={"p": p, "s": "1.25", "cutoff": kv.cutoff},
                    lhs=fmt_hp(kv.value),
                    rhs=fmt_hp(closed),
                    abs_err=f"{diff:.3e}",
                    rel_err=f"{diff / abs(complex(closed)):.3e}",
                    passed=bool(diff <= kv.tail_bound),
                    detail=f"tail_bound={kv.tail_bound:.3e}",
                )
            )
            for tv in plus_zeta_batch(p, [-4, -3, 5, 8], 2.5, cutoff):
                n = tv.params["n"]
                prod = assembled_product(p, n, 2.5)
                diff = abs(tv.value - prod)
                reports.append(
                    VerificationReport(
                        check="plus-zeta-factorization",
                        params={"p": p, "n": n, "s": "2.5", "cutoff": tv.cutoff},
                        lhs=fmt_hp(tv.value),
                        rhs=fmt_hp(prod),
                        abs_err=f"{diff:.3e}",
                        rel_err=f"{diff / abs(prod):.3e}",
                        passed=bool(diff <= tv.tail_bound),
                        detail=f"tail_bound={tv.tail_bound:.3e}",
                    )
                )
    elif which == "special":
        for big_n in (1, 3, 5):
            for v in ("0.3", "0.5", "1", "2"):
                for m in (1, 2, 3):
                    y = 4 * big_n * m * m * mp.mpf(v)
                    t = 2 * m * mp.sqrt(mp.pi * big_n * mp.mpf(v))
                    left = alpha_companion(t)
                    right = alpha(y)
                    rep = numeric_report(
                        "special-function-relation",
                        {"N": big_n, "v": v, "m": m},
                        -2 * left.value,
                        right.value,
                        "1e-8",
                        scale_floor="1e-8",
                    )
                    rep.detail = (
                        f"err_bounds={fmt_hp(2 * left.error_bound, 4)};"
                        f"{fmt_hp(right.error_bound, 4)}"
                    )
                    reports.append(rep)
    elif which == "modularity":
        tau = mp.mpc("0.13", "0.9")
        r = modularity_residual(eval_theta, (1, 0, 4, 1), mp.mpf(1) / 2, tau)
        reports.append(_residual_report("theta-residual", {"gamma": "[1,0;4,1]"}, r, "1e-10"))
        r = modularity_residual(
            eval_zagier_eisenstein, (1, 0, 4, 1), mp.mpf(3) / 2, tau
        )
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
    else:
        print(f"unknown verification target {which!r}", file=sys.stderr)
        return 2
    return _emit_reports(reports, args.format)


def _verify_imaginary_with(p, n, convention) -> VerificationReport:
    if convention == "both-signs":
        return verify_imaginary_trace_identity(p, n)
    from fractions import Fraction

    from .classnumbers import generalized_hurwitz
    from .traces import trace_imaginary

    lhs = trace_imaginary(p, n, convention)
    rhs = Fraction(4 * (p + 1), p) * generalized_hurwitz(1, p, -n) - Fraction(
        2 * (p + 1), p - 1
    ) * generalized_hurwitz(p, p, -n)
    return VerificationReport(
        check="imaginary-trace",
        params={"p": p, "n": n, "convention": convention},
        lhs=fmt_exact(lhs),
        rhs=fmt_exact(rhs),
        abs_err=fmt_exact(abs(lhs - rhs)),
        rel_err="0" if lhs == rhs else "1",
        passed=lhs == rhs,
    )


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


def cmd_coeffs(args) -> int:
    m_max = args.m_max or 12
    rows = []
    failures = 0
    for p in args.p:
        c0, o0 = sesqui4p_const_coeff(p), coeff_oracle_4p(p, 0)
        rows.append((p, 0, c0, o0))
        for m in range(1, m_max + 1):
            c, o = sesqui4p_square_coeff(p, m), coeff_oracle_4p(p, m)
            rows.append((p, m, c, o))
    header = "p,m,value,oracle,delta"
    lines = []
    for p, m, c, o in rows:
        delta = abs(c - o)
        if delta > mp.mpf("1e-8"):
            failures += 1
        lines.append((p, m, fmt_hp(c), fmt_hp(o), fmt_hp(delta, 6)))
    if args.format == "csv":
        print(header)
        for row in lines:
            print(",".join(str(x) for x in row))
    else:
        import json

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
    p_v.add_argument(
        "which",
        choices=[
            "imaginary",
            "real",
            "coefficients",
            "constants",
            "kloosterman",
            "special",
            "modularity",
        ],
    )
    _add_common(p_v)
    p_c = subs.add_parser("coeffs", help="coefficient tables with oracle deltas")
    _add_common(p_c)

    args = parser.parse_args(argv)
    if args.prec < 30:
        print("precision must be at least 30 digits", file=sys.stderr)
        return 2
    if args.cutoff is not None and args.cutoff < 1:
        print(f"--cutoff must be at least 1 (got {args.cutoff})", file=sys.stderr)
        return 2
    for p in args.p:
        if p == 2 or not is_prime(p):
            print(f"--p values must be odd primes (got {p})", file=sys.stderr)
            return 2
    set_working_dps(args.prec)
    if args.command == "hurwitz":
        return cmd_hurwitz(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "coeffs":
        return cmd_coeffs(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
