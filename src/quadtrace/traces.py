"""Quadratic traces over Gamma_0(p) and machine verification of the two
trace identities.

Imaginary side (n < 0): the weighted orbit count sum 1/|stab| equals
    4(p+1)/p H_{1,p}(-n) - 2(p+1)/(p-1) H_{p,p}(-n)
exactly, over the forms of both definiteness signs (the convention that
tests/test_traces.py pins on three seed cases).

Real side (n > 0 nonsquare): each Gamma_0(p)-orbit contributes
kappa * 2 log(eps) to the geodesic-length sum, where eps is the automorph
unit of the primitive discriminant n/f^2 (f the content of the orbit) and
kappa is the index of the Gamma_0(p)-stabilizer in the full automorph
group.  The kappas of the orbits of one class representative r sum to the
number of zeros of r on P^1(F_p) (quadforms.p1_zero_count), so the trace is
a sum over class representatives and no orbit is built.  Writing n = t m^2
the half-sum evaluates in closed form as

    2 pi (p+1)/p * h*(n)
      + 4 p m (1 - chi_t(2)/2)(1 - chi_t(p)/p) T^{chi_t}_{4p,0}(m)
        * A2(n) Ap(p, n) * log(fund unit of t) * h(t),

with the local tables A2/Ap shared with the Kloosterman special value.
This normalization was pinned against the orbit/geodesic machinery; variant
normalizations with sqrt(n)-weighted terms fail the sweep (see README).
The verifier computes the t-atom through L(1, chi_t) by finite character
sums, so the two sides share no L-value code.

The class representatives, unit logarithms, h*(n) and L(1, chi_t) do not
depend on p, so real_index builds them once per n, the one place the real
check gets them, and a sweep over several p passes them, with n, to each
p's check; on the imaginary side a sweep passes H_{1,p}, H_{p,p} read from
a class-number table (imaginary_trace_report).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .classnumbers import regulator_class_sum
from .kloosterman import local_factor_2_exact, local_factor_p_exact
from .lvalues import chi, fundamental_decomposition, l_value_at_1, t_divisor_sum
from .precision import hp, to_mpf
from .quadforms import (
    QuadForm,
    automorph_unit,
    class_reps,
    p1_zero_count,
    weighted_orbit_count,
)
from .report import VerificationReport, exact_report, numeric_report

@dataclass(frozen=True)
class RealIndex:
    """What the real trace identity needs of n alone, for every p: n, the
    class representatives of discriminant n (all contents), log eps_{n/f^2}
    per content f, h*(n) and L(1, chi_t) for n = t m^2, at the working
    precision of its construction."""

    n: int
    reps: list[QuadForm]
    unit_logs: dict[int, mpf]
    regulator_sum: mpf
    l1: mpf


def real_index(n: int) -> RealIndex:
    """The p-independent part of the real trace identity at n > 0 nonsquare."""
    reps = class_reps(n)
    contents = {r.content() for r in reps}
    return RealIndex(
        n=n,
        reps=reps,
        unit_logs={f: automorph_unit(n // (f * f)).log_value() for f in contents},
        regulator_sum=regulator_class_sum(n),
        l1=l_value_at_1(fundamental_decomposition(n).t),
    )


def trace_real_nonsquare(p: int, index: RealIndex):
    """Half the geodesic-length sum over Gamma_0(p)-classes at index.n > 0
    nonsquare, index = real_index(n).

    Per class representative r: p1_zero_count(p, r), the sum of the kappas
    of its Gamma_0(p)-orbits, times log(automorph unit of the primitive
    discriminant).
    """
    with hp():
        total = mp.mpf(0)
        for r in index.reps:
            total += p1_zero_count(p, r) * index.unit_logs[r.content()]
        return +total


def real_trace_rhs(p: int, index: RealIndex):
    """Closed form for the real-trace half-sum at index.n (see module
    docstring).

    The fundamental atom log(eps_t) h(t) is evaluated as
    (sqrt(t)/2) L(1, chi_t) by finite character sums, which keeps the check
    two-sided.  h*(n) and L(1, chi_t) come from index.
    """
    n = index.n
    split = fundamental_decomposition(n)
    t, m = split.t, split.m
    with hp():
        term1 = 2 * mp.pi * (p + 1) / p * index.regulator_sum
        rational = (
            4
            * p
            * m
            * (1 - Fraction(chi(t, 2), 2))
            * (1 - Fraction(chi(t, p), p))
            * t_divisor_sum(4 * p, 0, t, m)
            * local_factor_2_exact(n)
            * local_factor_p_exact(p, n)
        )
        atom = mp.sqrt(t) / 2 * index.l1
        return +(term1 + to_mpf(rational) * atom)


def imaginary_trace_report(p: int, n: int, h1p: Fraction, hpp: Fraction) -> VerificationReport:
    """Exact rational comparison of the weighted orbit count at n < 0 with
    the combination of the given h1p = H_{1,p}(-n) and hpp = H_{p,p}(-n)."""
    lhs = weighted_orbit_count(p, n)
    rhs = Fraction(4 * (p + 1), p) * h1p - Fraction(2 * (p + 1), p - 1) * hpp
    return exact_report("imaginary-trace", {"p": p, "n": n}, lhs, rhs)


def verify_real_trace_identity(p: int, index: RealIndex) -> VerificationReport:
    """Geodesic-length sum against the closed form at index.n, relative
    1e-9, index = real_index(n)."""
    lhs = trace_real_nonsquare(p, index)
    rhs = real_trace_rhs(p, index)
    return numeric_report("real-trace", {"p": p, "n": index.n}, lhs, rhs, "1e-9")
