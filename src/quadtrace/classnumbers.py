"""Hurwitz class numbers, their level generalizations, and the regulator sum.

Two independent routes to the classical H(n) are kept side by side:

  * hurwitz_class_number_forms: weighted count of reduced positive-definite
    forms of discriminant -n (all square levels, weights 1/2 and 1/3 at
    discriminants -4 and -3);
  * hurwitz_class_number_lseries: L(0, chi_t) times a Moebius-twisted
    divisor sum, for -n = t m^2 with t fundamental.

They must agree exactly, and the generalized numbers H_{ell,N}(n) reduce to
them at ell = N = 1.  Everything in this module except regulator_class_sum
is exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .arith import divisors, factorize, is_squarefree, moebius
from .lvalues import (
    chi,
    fundamental_decomposition,
    l_incomplete,
    l_value_at_0,
    sigma_constrained,
    t_divisor_sum,
)
from .precision import hp
from .quadforms import class_number, order_unit_pm, _reduced_definite_forms
from .report import VerificationReport, exact_report


@lru_cache(maxsize=None)
def hurwitz_class_number_forms(n: int) -> Fraction:
    """H(n) by explicit enumeration of reduced forms of discriminant -n.

    H(0) = -1/12; H(n) = 0 unless n = 0, 3 (mod 4).
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for q in _reduced_definite_forms(-n, include_imprimitive=True):
        prim = q.primitive_part().disc
        if prim == -3:
            total += Fraction(1, 3)
        elif prim == -4:
            total += Fraction(1, 2)
        else:
            total += 1
    return total


@lru_cache(maxsize=None)
def hurwitz_class_number_lseries(n: int) -> Fraction:
    """H(n) = L(0, chi_t) T^{chi_t}_{1,1}(m) = L(0, chi_t) sum_{a | m} mu(a) chi_t(a)
    sigma_1(m/a), -n = t m^2."""
    if n < 0:
        raise ValueError("requires n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    split = fundamental_decomposition(-n)
    return l_value_at_0(split.t) * t_divisor_sum(1, 1, split.t, split.m)


def generalized_hurwitz(ell: int, big_n: int, n: int) -> Fraction:
    """Level-N Hurwitz class number H_{ell,N}(n), exact.

    For n > 0:
        L_ell(0, chi_t) * prod_{p | N/ell} (1 - chi_t(p)/p)/(1 - 1/p^2)
                        * sum_{a | m, gcd(a,N)=1} mu(a) chi_t(a)
                          sigma_{ell,N,1}(m/a)
    with -n = t m^2, t fundamental; 0 off the discriminant progression.  At
    ell = N the Euler product is empty and the sum is T^{chi_t}_{N,1}(m).
    At n = 0: L_N(-1, id) for ell = N, else 0.
    """
    if big_n % 2 == 0 or not is_squarefree(big_n):
        raise ValueError("N must be odd and squarefree")
    if big_n % ell != 0:
        raise ValueError("ell must divide N")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        if ell == big_n:
            return l_incomplete(big_n, -1, 1).exact
        return Fraction(0)
    if n % 4 in (1, 2):
        return Fraction(0)
    split = fundamental_decomposition(-n)
    t, m = split.t, split.m
    l0 = l_value_at_0(t)
    for p, _ in factorize(ell) if ell > 1 else ():
        l0 *= 1 - Fraction(chi(t, p))
    euler = Fraction(1)
    for p, _ in factorize(big_n // ell):
        euler *= (1 - Fraction(chi(t, p), p)) / (1 - Fraction(1, p * p))
    # for ell != N, sigma_{ell,N,1} is not the inner sum of a T-sum
    moebius_sum = Fraction(0)
    for a in divisors(m):
        if math.gcd(a, big_n) != 1:
            continue
        mu = moebius(a)
        if mu == 0:
            continue
        moebius_sum += mu * chi(t, a) * sigma_constrained(ell, big_n, 1, m // a)
    return l0 * euler * moebius_sum


def regulator_class_sum(n: int):
    """h*(n) = (1/2 pi) sum over r^2 | n with n/r^2 = 0,1 (mod 4) of
    2 log(eps_{n/r^2}) h(n/r^2), with order-level units and wide class numbers.
    """
    if n <= 0 or n % 4 in (2, 3):
        raise ValueError("requires a positive discriminant")
    rt = math.isqrt(n)
    if rt * rt == n:
        raise ValueError("square index is not supported")
    with hp():
        total = mp.mpf(0)
        for r in range(1, rt + 1):
            if n % (r * r):
                continue
            d = n // (r * r)
            if d % 4 in (2, 3):
                continue
            unit = order_unit_pm(d)
            total += 2 * unit.log_value() * class_number(d)
        return +(total / (2 * mp.pi))


def verify_linear_relation(p: int, n: int) -> VerificationReport:
    """Exact check of H_{p,p}(n)/(1-p) = H(n) - (p+1)/p * H_{1,p}(n)."""
    return linear_relation_report(
        p,
        n,
        hurwitz_class_number_forms(n),
        generalized_hurwitz(1, p, n),
        generalized_hurwitz(p, p, n),
    )


def linear_relation_report(
    p: int, n: int, h: Fraction, h1p: Fraction, hpp: Fraction
) -> VerificationReport:
    """The linear relation of verify_linear_relation on given values
    h = H(n), h1p = H_{1,p}(n), hpp = H_{p,p}(n)."""
    lhs = hpp / (1 - p)
    rhs = h - Fraction(p + 1, p) * h1p
    return exact_report("hurwitz-linear-relation", {"p": p, "n": n}, lhs, rhs)
