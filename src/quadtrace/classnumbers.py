"""Hurwitz class numbers, their level generalizations, and the regulator sum.

Two independent routes to the classical H(n) are kept side by side:

  * forms: weighted count of reduced positive-definite forms of
    discriminant -n (all square levels, weights 1/2 and 1/3 at
    discriminants -4 f^2 and -3 f^2);
  * L-series: L(0, chi_t) times a Moebius-twisted divisor sum, for -n = t m^2
    with t fundamental; H(n) is the level-1 case of the generalized numbers
    H_{ell,N}(n).

Each route comes one n at a time (hurwitz_class_number_forms,
hurwitz_class_number_lseries, generalized_hurwitz) and as a table of every
0 <= n <= n_max (Cohen, A Course in Computational Algebraic Number Theory,
5.3), which the sweeps read:

  * hurwitz_forms_table makes one pass over the reduced (a, b, c) with
    4ac - b^2 <= n_max, so each form is visited once for the whole table;
  * hurwitz_level_table decomposes each n once as -n = t m^2, computes one
    L(0, chi_t) per fundamental t and, per level, one local factor per value
    of the chi_t(q) at the primes q | N (three values for a prime level).

A table row and the single-n function of its route share one formula (the
form weight, or _level_value); the tests still hold them equal.  A table
lives as long as the sweep that builds it, and nothing here is cached per n.
The two routes must agree exactly.  Everything in this module except
regulator_class_sum is exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp

from .arith import divisors, factorize, is_squarefree, moebius
from .lvalues import (
    DiscSplit,
    chi,
    fundamental_decomposition,
    l_incomplete,
    l_value_at_0,
    sigma_constrained,
)
from .precision import hp
from .quadforms import class_number, order_unit_pm, _reduced_definite_forms
from .report import VerificationReport, exact_report


def _weight_sixths(a: int, b: int, c: int) -> int:
    """6 times the weight of the reduced definite form (a, b, c) in H: 2/|Aut|,
    so 2 at f(1, 1, 1) (discriminant -3 f^2), 3 at f(1, 0, 1) (-4 f^2), else 6."""
    if a == c and b in (0, a):
        return 3 if b == 0 else 2
    return 6


# maxsize=0 caches nothing: the tables serve the sweeps, and the wrapper only
# keeps the cache_info() that perfbench/child.py reads
@functools.lru_cache(maxsize=0)
def hurwitz_class_number_forms(n: int) -> Fraction:
    """H(n) by explicit enumeration of reduced forms of discriminant -n.

    H(0) = -1/12; H(n) = 0 unless n = 0, 3 (mod 4).
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    forms = _reduced_definite_forms(-n, include_imprimitive=True) if n % 4 in (0, 3) else []
    return Fraction(sum(_weight_sixths(*q) for q in forms), 6)


def hurwitz_forms_table(n_max: int) -> list[Fraction]:
    """[H(n) for 0 <= n <= n_max] by forms, in one pass over the reduced
    (a, b, c): |b| <= a <= c, b >= 0 when a = c, discriminant b^2 - 4ac >= -n_max.
    For fixed (a, b) the index 4ac - b^2 steps by 4a as c grows."""
    if n_max < 0:
        raise ValueError("requires n_max >= 0")
    sixths = [0] * (n_max + 1)
    a = 1
    while 3 * a * a <= n_max:  # a reduced form has 4ac - b^2 >= 3a^2
        for b in range(1 - a, a + 1):
            c = a if b >= 0 else a + 1
            n = 4 * a * c - b * b
            while n <= n_max:
                sixths[n] += _weight_sixths(a, b, c)
                c += 1
                n += 4 * a
        a += 1
    return [Fraction(-1, 12)] + [Fraction(s, 6) for s in sixths[1:]]


def hurwitz_class_number_lseries(n: int) -> Fraction:
    """H(n) = L(0, chi_t) T^{chi_t}_{1,1}(m) = L(0, chi_t) sum_{a | m} mu(a) chi_t(a)
    sigma_1(m/a), -n = t m^2: generalized_hurwitz at ell = N = 1."""
    if n < 0:
        raise ValueError("requires n >= 0")
    return generalized_hurwitz(1, 1, n)


def _check_level(ell: int, big_n: int) -> None:
    if big_n % 2 == 0 or not is_squarefree(big_n):
        raise ValueError("N must be odd and squarefree")
    if big_n % ell != 0:
        raise ValueError("ell must divide N")


def _level_at_0(ell: int, big_n: int) -> Fraction:
    """H_{ell,N}(0): L_N(-1, id) for ell = N, else 0."""
    return l_incomplete(big_n, -1, 1).exact if ell == big_n else Fraction(0)


def _local_factor(ell: int, big_n: int, chis: tuple[int, ...]) -> Fraction:
    """prod_{q | ell} (1 - chi_t(q)) * prod_{q | N/ell} (1 - chi_t(q)/q)/(1 - 1/q^2),
    where chis holds chi_t(q) for the primes q | N in increasing order."""
    out = Fraction(1)
    for (q, _), c in zip(factorize(big_n), chis):
        out *= 1 - c if ell % q == 0 else (1 - Fraction(c, q)) / (1 - Fraction(1, q * q))
    return out


def _level_value(ell: int, big_n: int, split: DiscSplit, l0: Fraction, local_factor) -> Fraction:
    """H_{ell,N}(n) for n > 0, -n = t m^2 = split, from l0 = L(0, chi_t);
    local_factor is _local_factor or a table's memo of it."""
    t, m = split.t, split.m
    chis = tuple(chi(t, q) for q, _ in factorize(big_n))
    # for ell != N, sigma_{ell,N,1} is not the inner sum of a T-sum
    moebius_sum = 0
    for a in divisors(m):
        if math.gcd(a, big_n) != 1:
            continue
        mu = moebius(a)
        if mu == 0:
            continue
        moebius_sum += mu * chi(t, a) * sigma_constrained(ell, big_n, 1, m // a)
    return l0 * local_factor(ell, big_n, chis) * moebius_sum


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
    _check_level(ell, big_n)
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return _level_at_0(ell, big_n)
    if n % 4 in (1, 2):
        return Fraction(0)
    split = fundamental_decomposition(-n)
    return _level_value(ell, big_n, split, l_value_at_0(split.t), _local_factor)


def hurwitz_level_table(n_max: int, levels) -> dict[tuple[int, int], list[Fraction]]:
    """{(ell, N): [H_{ell,N}(n) for 0 <= n <= n_max]} for each level of levels.

    Each n is decomposed once, each fundamental t gets one L(0, chi_t), and
    each level one local factor per tuple of values chi_t(q), q | N; the
    rows are generalized_hurwitz's formula (_level_value) on those.
    """
    if n_max < 0:
        raise ValueError("requires n_max >= 0")
    rows = {}
    for ell, big_n in levels:
        _check_level(ell, big_n)
        rows[ell, big_n] = [_level_at_0(ell, big_n)] + [Fraction(0)] * n_max
    # both memos live for this table only: one entry per t, and at most 3^k
    # per level with k primes dividing N
    l0s: dict[int, Fraction] = {}
    local_factor = functools.cache(_local_factor)
    for n in range(3, n_max + 1):
        if n % 4 in (1, 2):
            continue
        split = fundamental_decomposition(-n)
        if split.t not in l0s:
            l0s[split.t] = l_value_at_0(split.t)
        for (ell, big_n), row in rows.items():
            row[n] = _level_value(ell, big_n, split, l0s[split.t], local_factor)
    return rows


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
