"""Kronecker characters, fundamental discriminants, and Dirichlet L-values.

Exact values:
    L(0, chi_t) = -(1/|t|) * sum_{a=1}^{|t|-1} chi_t(a) a          (t < 0 fundamental)
    L_N(-1, id) = zeta(-1) * prod_{p|N} (1 - p) = (-1/12) prod (1 - p)

The L(0) sum runs over a numpy table of chi_t on one period (character_table):
chi_t is the product of the characters of the prime discriminants dividing
t, i.e. a Legendre table (a/q) per odd prime q | t times chi_{-4}, chi_8 or
chi_{-8} for the 2-part, so one table costs a few vector products instead of
|t| Kronecker-symbol evaluations.  All entries and the weighted sum are
integers, so the value stays exact.

High-precision values:
    L(1, chi_t) = -(1/sqrt(t)) sum_a chi_t(a) log sin(pi a / t)    (t > 0)
    L(1, chi_t) = pi * L(0, chi_t) / sqrt(|t|)                     (t < 0)

The t < 0 evaluation at s = 1 is the functional-equation form of the finite
character sum, so this module stays independent of any class-number code;
cross-checks against class numbers are therefore genuinely two-sided.
General real s away from {0, 1} go through Hurwitz zeta functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from .arith import (
    divisors,
    factorize,
    is_squarefree,
    kronecker,
    legendre_table,
    moebius,
    squarefree_kernel,
)
from .precision import hp, to_mpf


@dataclass(frozen=True)
class DiscSplit:
    """Decomposition n = t * m**2 with t a fundamental discriminant (or 1)."""

    t: int
    m: int
    n: int


@dataclass
class LValue:
    exact: Fraction | None
    numeric: mpf
    s: object
    modulus: int  # |t| of the character, 1 for the principal character


def is_fundamental_discriminant(t: int) -> bool:
    """t = 1, or squarefree t = 1 (mod 4), or t = 4k with k squarefree = 2,3 (mod 4)."""
    if t == 1:
        return True
    if t == 0:
        return False
    if t % 4 == 1:
        return is_squarefree(t)
    if t % 4 == 0:
        k = t // 4
        return k % 4 in (2, 3) and is_squarefree(k)
    return False


def fundamental_decomposition(n: int) -> DiscSplit:
    """Unique (t, m) with n = t m**2 and t fundamental; requires n = 0,1 (mod 4)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    if n % 4 not in (0, 1):
        raise ValueError(f"{n} = 2,3 (mod 4) admits no fundamental decomposition")
    s, k = squarefree_kernel(n)
    if s % 4 == 1:
        t, m = s, k
    else:
        # n = 0,1 (mod 4) forces k even here
        t, m = 4 * s, k // 2
    if t * m * m != n:
        raise AssertionError(f"decomposition failed for {n}")
    return DiscSplit(t=t, m=m, n=n)


def chi(t: int, k: int) -> int:
    """chi_t(k) = (t/k); chi_1 is the principal character of modulus 1."""
    return kronecker(t, k)


# chi_{-4}, chi_8 and chi_{-8} on a mod 8, keyed by the 2-part of t
_TWO_PART_TABLES = {
    -4: np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=np.int8),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}


def character_table(t: int) -> np.ndarray:
    """chi_t(a) = (t/a) for 0 <= a < |t|, t fundamental, as an int8 table.

    chi_t is the product of the characters of the prime discriminants of t:
    the Legendre table (a/q) for each odd prime q | t (the character of
    q* = +-q = 1 mod 4), times chi_{-4}, chi_8 or chi_{-8} for the 2-part
    t / prod q*.  The primes come from the factorization that
    is_fundamental_discriminant looked up (of t, or of t/4 when 4 | t).
    """
    q = abs(t)
    a = np.arange(q, dtype=np.int64)
    table = np.ones(q, dtype=np.int8)
    odd_disc = 1
    for prime, _ in factorize(t if t % 4 == 1 else t // 4):
        if prime == 2:
            continue
        table *= legendre_table(prime)[a % prime]
        odd_disc *= prime if prime % 4 == 1 else -prime
    two_part = t // odd_disc
    if two_part != 1:
        table *= _TWO_PART_TABLES[two_part][a % 8]
    return table


@lru_cache(maxsize=None)
def l_value_at_0(t: int) -> Fraction:
    """L(0, chi_t) for t < 0 fundamental, as an exact rational."""
    if t >= 0:
        raise ValueError("l_value_at_0 requires t < 0")
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    q = abs(t)
    total = int(np.dot(character_table(t), np.arange(q, dtype=np.int64)))
    return Fraction(-total, q)


def l_value_at_1(t: int) -> mpf:
    """L(1, chi_t) for fundamental t != 1, at working precision."""
    if t == 1:
        raise ValueError("t = 1 has a pole at s = 1")
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    return _l1_cached(t, mp.dps)


@lru_cache(maxsize=None)
def _l1_cached(t: int, _ambient_dps: int) -> mpf:
    with hp():
        if t < 0:
            return +(mp.pi * to_mpf(l_value_at_0(t)) / mp.sqrt(abs(t)))
        total = mp.mpf(0)
        for a in range(1, t):
            c = chi(t, a)
            if c:
                total += c * mp.log(mp.sin(mp.pi * a / t))
        return +(-total / mp.sqrt(t))


def dirichlet_l(s, t: int) -> mpf:
    """L(s, chi_t) for fundamental t, real s != 1, via Hurwitz zeta functions.

    L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q).
    """
    if t == 1:
        raise ValueError("use zeta() for the principal character of modulus 1")
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    q = abs(t)
    with hp():
        s = mp.mpf(s)
        if s == 1:
            return l_value_at_1(t)
        total = mp.mpf(0)
        for a in range(1, q + 1):
            c = chi(t, a)
            if c:
                total += c * mp.zeta(s, mp.mpf(a) / q)
        return +(total * mp.power(q, -s))


def zeta(s) -> mpf:
    """Riemann zeta at working precision; rejects the pole at s = 1."""
    with hp():
        s = mp.mpf(s)
        if s == 1:
            raise ValueError("zeta has a pole at s = 1")
        return +mp.zeta(s)


def zeta_star(s) -> mpf:
    """Completed zeta Gamma(s/2) zeta(s) / pi^{s/2}; poles at s = 0, 1 rejected."""
    with hp():
        s = mp.mpf(s)
        if s in (0, 1):
            raise ValueError("zeta_star has poles at s = 0 and s = 1")
        return +(mp.gamma(s / 2) * mp.zeta(s) / mp.power(mp.pi, s / 2))


@lru_cache(maxsize=None)
def _zpz2_cached(_ambient_dps: int) -> mpf:
    with hp(extra=10):
        return +(mp.zeta(2, derivative=1) / mp.zeta(2))


def zeta_prime_over_zeta_2() -> mpf:
    """The constant zeta'(2)/zeta(2), cached per precision."""
    return _zpz2_cached(mp.dps)


def sigma_constrained(ell: int, big_n: int, s, r: int):
    """sigma_{ell,N,s}(r) = sum over d | r with gcd(d, ell) = 1 and
    gcd(r/d, N/ell) = 1 of d**s.  Exact Fraction for integer s, else mpf.
    """
    if big_n % ell != 0:
        raise ValueError("ell must divide N")
    if r < 1:
        raise ValueError("r must be positive")
    co = big_n // ell
    ds = [
        d
        for d in divisors(r)
        if _coprime(d, ell) and _coprime(r // d, co)
    ]
    if isinstance(s, int):
        return sum((Fraction(d) ** s for d in ds), Fraction(0))
    with hp():
        return +mp.fsum(mp.power(d, s) for d in ds)


def _coprime(a: int, b: int) -> bool:
    from math import gcd

    return gcd(a, b) == 1


def l_incomplete(big_n: int, s, t: int) -> LValue:
    """L_N(s, chi_t) = L(s, chi_t) * prod_{p | N} (1 - chi_t(p) p^{-s}).

    Exact paths: (t = 1, s in {-1, 0}) and (t < 0 fundamental, s = 0).
    Everything else is evaluated numerically (s = 1 via the finite character
    sums, other real s via Hurwitz zeta); s must avoid the pole at
    (t = 1, s = 1).
    """
    if big_n < 1:
        raise ValueError("N must be positive")
    ps = [p for p, _ in factorize(big_n)] if big_n > 1 else []
    if t == 1:
        if s == -1:
            exact = Fraction(-1, 12)
            for p in ps:
                exact *= 1 - Fraction(p)
            with hp():
                num = +to_mpf(exact)
            return LValue(exact=exact, numeric=num, s=s, modulus=1)
        if s == 0:
            exact = Fraction(-1, 2)
            for p in ps:
                exact *= 0  # 1 - p^0
            with hp():
                num = +to_mpf(exact)
            return LValue(exact=exact, numeric=num, s=s, modulus=1)
        with hp():
            sv = mp.mpf(s)
            if sv == 1:
                raise ValueError("pole: L_N(1, id)")
            val = mp.zeta(sv)
            for p in ps:
                val *= 1 - mp.power(p, -sv)
            return LValue(exact=None, numeric=+val, s=s, modulus=1)
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    if s == 0:
        if t > 0:
            # even character: L(0, chi_t) = 0, exact
            return LValue(exact=Fraction(0), numeric=mpf(0), s=s, modulus=abs(t))
        exact = l_value_at_0(t)
        for p in ps:
            exact *= 1 - Fraction(chi(t, p))
        with hp():
            num = +to_mpf(exact)
        return LValue(exact=exact, numeric=num, s=s, modulus=abs(t))
    with hp():
        base = l_value_at_1(t) if s == 1 else dirichlet_l(s, t)
        sv = mp.mpf(s)
        for p in ps:
            base *= 1 - chi(t, p) * mp.power(p, -sv)
        return LValue(exact=None, numeric=+base, s=s, modulus=abs(t))


def moebius_char_squared_sum(big_n: int, a: int) -> int:
    """sum_{ell | N} mu(ell) chi_ell(a)**2 for squarefree N; equals [N | a]."""
    if not is_squarefree(big_n):
        raise ValueError("N must be squarefree")
    if a < 1:
        raise ValueError("a must be positive")
    return sum(moebius(ell) * kronecker(ell, a) ** 2 for ell in divisors(big_n))
