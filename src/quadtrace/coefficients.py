"""Closed-form Fourier coefficients of the two sesquiharmonic series and the
derivative oracles that cross-check them.

Square-indexed coefficients arise as s-derivatives at s = 3/4 of
(s - 3/4) times a product of an incomplete-zeta ratio, local Dirichlet
series at 2 and p, and a divisor sum.  Every closed form here is paired
with central-difference differentiation (one Richardson step) of that
product, built from independent code paths; disagreement is a test
failure, never auto-corrected.

Notation used below: Z = zeta'(2)/zeta(2), gamma = Euler-Mascheroni.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from .arith import divisors, moebius, require_odd_prime, valuation
from .classnumbers import generalized_hurwitz
from .kloosterman import local_series_2, local_series_p
from .lvalues import real_zeta, t_divisor_sum, zeta_prime_over_zeta_2
from .precision import hp, to_mpf
from .report import VerificationReport, exact_report, fmt_hp, numeric_report


def t_log_sum(big_n: int, m: int):
    """The log-weighted divisor sum t_N(m): for d | m and r | m/d, both
    coprime to N, sum mu(d)/d * (log d + 2 log r)/r.  (N = 1 drops the
    coprimality conditions.)
    """
    with hp():
        total = mp.mpf(0)
        for d in divisors(m):
            if math.gcd(d, big_n) != 1:
                continue
            mu = moebius(d)
            if mu == 0:
                continue
            inner = mp.fsum(
                (mp.log(d) + 2 * mp.log(r)) / r
                for r in divisors(m // d)
                if math.gcd(r, big_n) == 1
            )
            total += mp.mpf(mu) / d * inner
        return +total


# ---------------------------------------------------------------------------
# closed forms


def sesqui4_square_coeff(m: int):
    """Coefficient of q^{m^2} in the holomorphic square part of the level-4
    series: (2/3pi)(gamma - 2Z - log 4 + (1/2) log pi - t_1(m)).
    """
    with hp():
        z = zeta_prime_over_zeta_2()
        val = (
            mp.euler
            - 2 * z
            - mp.log(4)
            + mp.log(mp.pi) / 2
            - t_log_sum(1, m)
        )
        return +(2 * val / (3 * mp.pi))


def sesqui4p_const_coeff(p: int):
    """The constant coefficient c(0) of the level-4p series, as a complex value.

    (2/3)(1-i) pi c(0) = (2/(pi(p+1)))(gamma - log 2 - Z - p^2 log p/(p^2-1)),
    p an odd prime.
    """
    require_odd_prime(p)
    with hp():
        z = zeta_prime_over_zeta_2()
        disp = (
            2
            / (mp.pi * (p + 1))
            * (mp.euler - mp.log(2) - z - p * p * mp.log(p) / (p * p - 1))
        )
        x = disp * 3 / (4 * mp.pi)
        return +mp.mpc(x, x)  # (1-i)^{-1} = (1+i)/2


def sesqui4p_square_coeff(p: int, m: int):
    """c(m^2) closed form (the bracketed value divided by (2/3)(1-i)pi), p an
    odd prime."""
    require_odd_prime(p)
    with hp():
        z = zeta_prime_over_zeta_2()
        v2, vp = valuation(m, 2), valuation(m, p)
        disp = (
            2
            / (mp.pi * (p + 1))
            * (
                mp.euler
                - 2 * z
                + mp.log(2) * (mp.power(2, -v2) - 3)
                + mp.log(p)
                * (
                    mp.mpf(1) / (p + 1)
                    + mp.mpf(p + 1) / (p - 1) * mp.power(p, -vp)
                    - mp.mpf(2 * p) / (p - 1)
                )
                - t_log_sum(4 * p, m)
            )
        )
        x = disp * 3 / (4 * mp.pi)
        return +mp.mpc(x, x)


def neg_coeff_rational(p: int, n: int) -> Fraction:
    """Exact rational R with c(n) = R (1+i) / (8 pi sqrt(|n|)) for n < 0."""
    if n >= 0:
        raise ValueError("requires n < 0")
    if n % 4 not in (0, 1):
        raise ValueError("index must be 0 or 1 mod 4")
    a = -n
    return Fraction(12, p) * (
        generalized_hurwitz(1, p, a) + Fraction(p, 1 - p) * generalized_hurwitz(p, p, a)
    )


def sesqui4p_neg_coeff(p: int, n: int):
    """c(n) for n < 0 via the class-number route (purely (real)(1+i) form)."""
    r = neg_coeff_rational(p, n)
    with hp():
        x = to_mpf(r) / (8 * mp.pi * mp.sqrt(-n))
        return +mp.mpc(x, x)


def theta_multiple_const(p: int):
    """The theta-coefficient constant of the lift identity:
    (4p/(pi(p^2-1))) [gamma - log 2 - Z - p log p/(2(p+1)) + (log pi - gamma)/4].
    """
    with hp():
        z = zeta_prime_over_zeta_2()
        return +(
            4
            * p
            / (mp.pi * (p * p - 1))
            * (
                mp.euler
                - mp.log(2)
                - z
                - p * mp.log(p) / (2 * (p + 1))
                + (mp.log(mp.pi) - mp.euler) / 4
            )
        )


# ---------------------------------------------------------------------------
# derivative oracles


def _l_ratio_const(p: int, s, shift_num):
    """L_{4p}(shift_num(s), id) / L_{4p}(4s-1, id) at real s near 3/4."""
    num_arg = shift_num(s)
    den_arg = 4 * s - 1
    num = real_zeta(num_arg) * (1 - mp.power(2, -num_arg)) * (1 - mp.power(p, -num_arg))
    den = real_zeta(den_arg) * (1 - mp.power(2, -den_arg)) * (1 - mp.power(p, -den_arg))
    return num / den


def _f_product(p: int, n: int, m: int, sigma):
    """f(n, sigma): the local-product factor of the zeta at square index n = m^2."""
    two = local_series_2(n, sigma) + (1 + 1j) * mp.power(2, -2 * sigma)
    pp = local_series_p(p, n, sigma)
    if n == 0:
        t_fac = mp.mpf(1)
    else:
        t_fac = t_divisor_sum(4 * p, mp.mpf(3) / 2 - sigma, 1, m)
    return two * pp * t_fac


def _derivative_at(fun, x0, step):
    """Central difference with one Richardson extrapolation level."""
    d1 = (fun(x0 + step) - fun(x0 - step)) / (2 * step)
    h2 = step / 2
    d2 = (fun(x0 + h2) - fun(x0 - h2)) / (2 * h2)
    return (4 * d2 - d1) / 3


def coeff_oracle_4p(p: int, m: int):
    """Numerical d/ds[(s-3/4) K(0, n; 2s)] at s = 3/4 for n = m^2 (m = 0 gives n = 0).

    Independent route: the zeta ratio and the local product are evaluated
    directly and differentiated, never the simplified closed forms.
    """
    with hp(extra=15):
        step = mp.mpf("1e-5")
        s0 = mp.mpf(3) / 4
        if m == 0:
            shift = lambda s: 4 * s - 2  # noqa: E731
        else:
            shift = lambda s: 2 * s - mp.mpf(1) / 2  # noqa: E731

        def g(s):
            return (
                (s - s0)
                * _l_ratio_const(p, s, shift)
                * _f_product(p, m * m, m, 2 * s)
            )

        return +_derivative_at(g, s0, step)


def coeff_oracle_4(m: int):
    """Numerical oracle for the level-4 square coefficient b(m^2)."""
    with hp(extra=15):
        step = mp.mpf("1e-5")
        s0 = mp.mpf(3) / 4

        def g(s):
            pref = mp.power(mp.pi, s + mp.mpf(1) / 4) * mp.power(2, 2 - 4 * s)
            return (
                (s - s0)
                * pref
                * real_zeta(2 * s - mp.mpf(1) / 2)
                / real_zeta(4 * s - 1)
                * t_divisor_sum(1, mp.mpf(3) / 2 - 2 * s, 1, m)
            )

        return +(mp.mpf(2) / 9 * _derivative_at(g, s0, step))


# ---------------------------------------------------------------------------
# deformation coefficients at the two cusps


def deformation_b_infty(p: int, s):
    """(p^2-1)/(p^{2s}-1) * pi^{s+1} / (6 Gamma(s) zeta(2s))."""
    with hp():
        s = mp.mpf(s)
        return +(
            (p * p - 1)
            / (mp.power(p, 2 * s) - 1)
            * mp.power(mp.pi, s + 1)
            / (6 * mp.gamma(s) * real_zeta(2 * s))
        )


def deformation_b_zero(p: int, s):
    """(p+1)(p^{2s}-p) pi^{s+1} / (6 (p^{2s}-1) Gamma(s) zeta(2s))."""
    with hp():
        s = mp.mpf(s)
        return +(
            (p + 1)
            * (mp.power(p, 2 * s) - p)
            * mp.power(mp.pi, s + 1)
            / (6 * (mp.power(p, 2 * s) - 1) * mp.gamma(s) * real_zeta(2 * s))
        )


def deformation_b_check(p: int) -> VerificationReport:
    """Verify B_infty(1) = 1 and B_zero(1) = p; record numerical first
    derivatives at s = 1 together with the analytic log-derivative values.

    A circulated Taylor expansion of these coefficients does not match the
    closed forms (its linear term is off by a uniform pi^2 (p^2-1) factor
    and its constant term contradicts B_infty(1) = 1); the report carries
    the numerical values and the ratio instead of asserting it.
    """
    with hp(extra=10):
        b_inf_1 = deformation_b_infty(p, 1)
        b_zero_1 = deformation_b_zero(p, 1)
        # the gate is relative: B_0(1) = p carries about p ulp of the rounding
        # of deformation_b_zero, which runs at hp(), 10 digits below this
        gate = mp.mpf(10) ** (-(mp.dps - 10))
        ok = abs(b_inf_1 - 1) < gate and abs(b_zero_1 - p) < p * gate
        step = mp.mpf("1e-6")
        d_inf = _derivative_at(lambda s: deformation_b_infty(p, s), mp.mpf(1), step)
        d_zero = _derivative_at(lambda s: deformation_b_zero(p, s), mp.mpf(1), step)
        z = zeta_prime_over_zeta_2()
        base = mp.euler + mp.log(mp.pi) - 2 * z
        true_inf = base - 2 * p * p * mp.log(p) / (p * p - 1)
        true_zero = p * (base + 2 * p * mp.log(p) / (p * p - 1))
        variant_inf = mp.pi**2 * ((p * p - 1) * base - 2 * p * p * mp.log(p))
        return VerificationReport(
            check="deformation-b-taylor",
            params={"p": p},
            lhs=fmt_hp(b_inf_1),
            rhs=fmt_hp(b_zero_1),
            abs_err=fmt_hp(abs(b_inf_1 - 1) + abs(b_zero_1 - p), 8),
            rel_err="0",
            passed=bool(ok and abs(d_inf - true_inf) < mp.mpf("1e-8") and abs(d_zero - true_zero) < mp.mpf("1e-8")),
            detail=(
                f"dB_inf/ds={fmt_hp(d_inf, 20)} dB_zero/ds={fmt_hp(d_zero, 20)}"
            ),
            flags={
                "variant_vs_numeric_ratio_inf": fmt_hp(variant_inf / d_inf, 12),
            },
        )


# ---------------------------------------------------------------------------
# constant-term system and the square-index trace formulas


def constant_term_checks(p: int) -> list[VerificationReport]:
    """The three contribution identities behind the theta-lift constant term.

    (a) and (b) are exact rational identities (coefficients of v^{1/2} and of
    log(16 v)/pi); (c) ties the theta-multiple constant to the two series'
    constants and is checked to 1e-12.
    """
    out = [
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
    with hp():
        z = zeta_prime_over_zeta_2()
        base = mp.euler - mp.log(2) - z
        lhs_c = 2 / (mp.pi * (p - 1)) * base + 2 / (mp.pi * (p + 1)) * (
            base - p * p * mp.log(p) / (p * p - 1)
        )
        rhs_c = theta_multiple_const(p) - p / (mp.pi * (p * p - 1)) * (
            mp.log(mp.pi) - mp.euler
        )
        out.append(numeric_report("constant-term-theta", {"p": p}, lhs_c, rhs_c, "1e-12"))
    return out


def square_trace_rhs(p: int, m: int):
    """The simplified right side of the square-index trace evaluation."""
    with hp():
        z = zeta_prime_over_zeta_2()
        v2, vp = valuation(m, 2), valuation(m, p)
        first = (
            mp.mpf(1)
            / (3 * (p - 1))
            * (
                -5 * mp.euler
                - mp.log(mp.pi)
                + 4 * z
                + 4 * mp.log(2)
                - 6 * mp.log(p) / (p + 1)
                - 4 * t_log_sum(1, m)
            )
        )
        second = (
            mp.mpf(2)
            / (p + 1)
            * (
                (mp.power(2, -v2) - 1) * mp.log(2)
                + mp.mpf(p + 1) / (p - 1) * mp.power(p, -vp) * mp.log(p)
                + mp.log(m)
                - t_log_sum(4 * p, m)
            )
        )
        return +(first + second)


def square_trace_unsimplified(p: int, m: int):
    """The pre-simplification combination of the proof, times pi.

    pi * [ (2/(p-1)) b(m^2) + (gamma + log(pi m^2))/(pi(p+1))
           + (2/3)(1-i) pi c(m^2) - 2 C(p) ].
    """
    with hp():
        n = m * m
        b = sesqui4_square_coeff(m)
        c = sesqui4p_square_coeff(p, m)
        c_disp = ((2 * mp.mpf(1) / 3) * (1 - 1j) * mp.pi * c).real
        combo = (
            2 * b / (p - 1)
            + (mp.euler + mp.log(mp.pi * n)) / (mp.pi * (p + 1))
            + c_disp
            - 2 * theta_multiple_const(p)
        )
        return +(mp.pi * combo)


def square_trace_consistency(p: int, m: int) -> VerificationReport:
    """Simplified RHS against the unsimplified proof combination, 1e-10."""
    lhs = square_trace_rhs(p, m)
    rhs = square_trace_unsimplified(p, m)
    return numeric_report(
        "square-trace-consistency", {"p": p, "m": m}, lhs, rhs, "1e-10"
    )
