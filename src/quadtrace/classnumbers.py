"""Hurwitz class numbers, their level generalizations, and the regulator sum.

Two independent routes to the classical H(n) are kept side by side:

  * forms: weighted count of reduced positive-definite forms of
    discriminant -n (all square levels, weights 1/2 and 1/3 at
    discriminants -4 f^2 and -3 f^2);
  * L-series: L(0, chi_t) times a Moebius-twisted divisor sum, for -n = t m^2
    with t fundamental; H(n) is the level-1 case of the generalized numbers
    H_{ell,N}(n).

Each route comes one n at a time (hurwitz_class_number_forms and
generalized_hurwitz(1, 1, n)) and as a table of every 0 <= n <= n_max
(Cohen, A Course in Computational Algebraic Number Theory, 5.3), which the
sweeps read:

  * hurwitz_forms_table makes one pass over the reduced (a, b, c) with
    4ac - b^2 <= n_max, so each form is visited once for the whole table;
  * hurwitz_level_table decomposes each n once as -n = t m^2, computes one
    L(0, chi_t) per fundamental t and, per level, one local factor per value
    of the chi_t(q) at the primes q | N (three values for a prime level).

A table row and the single-n function of its route share one formula (the
form weight, or _level_value); the tests still hold them equal.  A table
lives as long as the sweep that builds it, and nothing here is cached per n.
The two routes must agree exactly: `verify classnumbers` (cli) holds the
two tables equal, and compares the two sides of the linear relation
(linear_relation_sides) on the single-n routes.  This module returns values
only; the reports are built in cli.

class_regulator(d) = h(d) log eps_d, the wide class number times the log of
the unit of norm +-1 of the order of discriminant d > 0, is the one place
that product is formed.  regulator_class_sum adds it over the orders of n,
and class_number_l_at_1 turns it into L(1, chi_t) for fundamental t > 0 by
Dirichlet's class number formula, which is how the level-4p coefficients
take their L(1) values.  Those three are at working precision; everything
else in this module is exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp

from .arith import divisors, factorize, is_squarefree, moebius
from .lvalues import (
    chi,
    fundamental_decomposition,
    is_fundamental_discriminant,
    l_value_at_0,
    l_value_at_1,
    sigma_constrained,
)
from .precision import hp
from .quadforms import _weight_sixths, class_number, class_reps, order_unit_pm


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
    forms = class_reps(-n) if n % 4 in (0, 3) else []
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


def _check_level(ell: int, big_n: int) -> None:
    if big_n % 2 == 0 or not is_squarefree(big_n):
        raise ValueError("N must be odd and squarefree")
    if big_n % ell != 0:
        raise ValueError("ell must divide N")


def _level_at_0(ell: int, big_n: int) -> Fraction:
    """H_{ell,N}(0): L_N(-1, id) = zeta(-1) prod_{q | N} (1 - q) for ell = N,
    else 0."""
    out = Fraction(-1, 12) if ell == big_n else Fraction(0)
    for q, _ in factorize(big_n):
        out *= 1 - q
    return out


def _local_factor(ell: int, big_n: int, chis: tuple[int, ...]) -> Fraction:
    """prod_{q | ell} (1 - chi_t(q)) * prod_{q | N/ell} (1 - chi_t(q)/q)/(1 - 1/q^2),
    where chis holds chi_t(q) for the primes q | N in increasing order."""
    out = Fraction(1)
    for (q, _), c in zip(factorize(big_n), chis):
        out *= 1 - c if ell % q == 0 else (1 - Fraction(c, q)) / (1 - Fraction(1, q * q))
    return out


def _level_value(ell: int, big_n: int, t: int, m: int, l0: Fraction, local_factor) -> Fraction:
    """H_{ell,N}(n) for n > 0, -n = t m^2, from l0 = L(0, chi_t);
    local_factor is _local_factor or a table's memo of it."""
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
    t, m = fundamental_decomposition(-n)
    return _level_value(ell, big_n, t, m, l_value_at_0(t), _local_factor)


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
        t, m = fundamental_decomposition(-n)
        if t not in l0s:
            l0s[t] = l_value_at_0(t)
        for (ell, big_n), row in rows.items():
            row[n] = _level_value(ell, big_n, t, m, l0s[t], local_factor)
    return rows


def class_regulator(d: int):
    """h(d) log eps_d for a positive nonsquare discriminant d, at working
    precision: the wide class number times the log of the least unit
    (x + y sqrt(d))/2 > 1 with x^2 - d y^2 = +-4 (quadforms.order_unit_pm)."""
    with hp():
        return +(order_unit_pm(d).log_value() * class_number(d))


def class_number_l_at_1(t: int):
    """L(1, chi_t) for fundamental t != 1 by Dirichlet's class number formula.

    For t > 0 it is 2 h(t) log eps_t / sqrt(t) (class_regulator), which
    needs no character sum; the finite sine sum of lvalues.l_value_at_1
    stays the independent route that verify real and the tests hold it to.
    For t < 0 it is lvalues.l_value_at_1, pi L(0, chi_t) / sqrt(|t|).
    """
    if t < 0:
        return l_value_at_1(t)
    if t == 1 or not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant > 1")
    with hp():
        return +(2 * class_regulator(t) / mp.sqrt(t))


def regulator_class_sum(n: int):
    """h*(n) = (1/2 pi) sum over r^2 | n with n/r^2 = 0,1 (mod 4) of
    2 h(n/r^2) log(eps_{n/r^2}) (class_regulator), with order-level units and
    wide class numbers.
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
            total += 2 * class_regulator(d)
        return +(total / (2 * mp.pi))


def linear_relation_sides(
    p: int, h: Fraction, h1p: Fraction, hpp: Fraction
) -> tuple[Fraction, Fraction]:
    """The two sides H_{p,p}(n)/(1-p) and H(n) - (p+1)/p * H_{1,p}(n) of the
    linear relation, from h = H(n), h1p = H_{1,p}(n), hpp = H_{p,p}(n)."""
    return hpp / (1 - p), h - Fraction(p + 1, p) * h1p
