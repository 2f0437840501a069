"""Kronecker characters, fundamental discriminants, and Dirichlet L-values.

Exact values:
    L(0, chi_t) = (1/(2 - chi_t(2))) * sum_{0 < a < |t|/2} chi_t(a)  (t < 0 fundamental)

chi_t is the product of the characters of the prime discriminants dividing
t: a Legendre table (a/q) per odd prime q | t times chi_{-4}, chi_8 or
chi_{-8} for the 2-part, each a tuple over its own period
(_character_split).  character_table repeats the longest period to length
|t| and multiplies it by the product of the others, a list built by C-level
map(operator.mul) instead of |t| Kronecker symbols.  The L(0) sum repeats the
longest period only over the half period that it adds up and sums it in
strides, one per residue class of the other factors.  Every entry and sum is
an integer, so the value stays exact; it equals the defining sum
-(1/|t|) sum_{a=1}^{|t|-1} chi_t(a) a, which the tests hold it to.

High-precision values:
    L(1, chi_t) = -(1/sqrt(t)) sum_a chi_t(a) log sin(pi a / t)    (t > 0)
    L(1, chi_t) = pi * L(0, chi_t) / sqrt(|t|)                     (t < 0)

The sine sum runs on raw libmp numbers, bit-equal to the same sum of mpf
objects, and nothing is kept between calls.  It serves `verify real`, whose
closed side takes its atom h(t) log eps_t as (sqrt(t)/2) L(1, chi_t) from
here (traces.real_index forms it once per n).  The level-4p series takes
L(1, chi_t), t > 0, from class numbers and units instead
(classnumbers.class_number_l_at_1), and the tests hold the two to each other.

The t < 0 evaluation at s = 1 is the functional-equation form of the finite
character sum, so this module stays independent of any class-number code;
cross-checks against class numbers are therefore genuinely two-sided.
L(s, chi_t) at other real s is mpmath's: kloosterman.assembled_product calls
mp.dirichlet over character_table.  The Riemann zeta at real s goes through
real_zeta, which evaluates each (s, precision) once at the caller's
precision, bit-equal to mp.zeta.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_sin,
    round_nearest,
)

from .arith import (
    CHI8_TABLE,
    divisors,
    factorize,
    is_squarefree,
    kronecker,
    legendre_table,
    moebius,
    squarefree_kernel,
)
from .precision import hp, to_mpf, working_dps


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


def fundamental_decomposition(n: int) -> tuple[int, int]:
    """Unique (t, m) with n = t m**2 and t fundamental (or 1); requires
    n = 0,1 (mod 4)."""
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
    return t, m


def chi(t: int, k: int) -> int:
    """chi_t(k) = (t/k); chi_1 is the principal character of modulus 1."""
    return kronecker(t, k)


# chi_{-4} on a mod 4 and chi_8, chi_{-8} on a mod 8, keyed by the 2-part of t
_TWO_PART_TABLES = {
    -4: (0, 1, 0, -1),
    8: CHI8_TABLE,
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def _character_split(t: int) -> tuple[list[int], tuple[int, ...]]:
    """chi_t for fundamental t as (small, big): chi_t(a) = small[a % m] * big[a % q].

    chi_t is the product of the characters of the prime discriminants of t:
    the Legendre table (a/q) for each odd prime q | t (the character of
    q* = +-q = 1 mod 4), times chi_{-4}, chi_8 or chi_{-8} for the 2-part
    t / prod q*.  big is the longest of those periods and small the product
    of the others over its own period m = |t| / len(big), one
    map(operator.mul) per factor (the periods are coprime); chi_1 is
    ([1], (1,)).  The primes come from the factorization that
    is_fundamental_discriminant looked up (of t, or of t/4 when 4 | t).
    """
    periods = []
    odd_disc = 1
    for prime, _ in factorize(t if t % 4 == 1 else t // 4):
        if prime == 2:
            continue
        periods.append(legendre_table(prime))
        odd_disc *= prime if prime % 4 == 1 else -prime
    two_part = t // odd_disc
    if two_part != 1:
        periods.append(_TWO_PART_TABLES[two_part])
    periods.sort(key=len)
    big = periods.pop() if periods else (1,)
    small = cycle((1,))
    for period in periods:
        small = map(operator.mul, small, cycle(period))
    return list(islice(small, abs(t) // len(big))), big


def character_table(t: int) -> list[int]:
    """chi_t(a) = (t/a) for 0 <= a < |t|, t fundamental: big repeated to
    length |t| times small repeated."""
    small, big = _character_split(t)
    return list(map(operator.mul, cycle(small), big * (abs(t) // len(big))))


@lru_cache(maxsize=1024)
def l_value_at_0(t: int) -> Fraction:
    """L(0, chi_t) for t < 0 fundamental, as an exact rational.

    The half-period sum (1/(2 - chi_t(2))) sum_{0 < a < |t|/2} chi_t(a), over
    a < half = ceil(|t|/2) (chi_t(0) is 0).  Only big is repeated, to
    that length, and it is summed in strides of m, one residue class of
    small at a time, so no entry is multiplied.  The 1024 most recently used
    values are kept for the single-n callers that repeat t (the coefficient
    sweeps, the level-4p series, L(1) at t < 0); the class-number tables
    keep their own, one per t.
    """
    if t >= 0:
        raise ValueError("l_value_at_0 requires t < 0")
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    small, big = _character_split(t)
    half, m = (1 - t) // 2, len(small)
    repeated = big * (half // len(big) + 1)
    total = sum(c * sum(repeated[r:half:m]) for r, c in enumerate(small) if c)
    return Fraction(total, 2 - chi(t, 2))


def l_value_at_1(t: int) -> mpf:
    """L(1, chi_t) for fundamental t != 1, at working precision."""
    if t == 1:
        raise ValueError("t = 1 has a pole at s = 1")
    if not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant")
    with hp():
        if t < 0:
            return +(mp.pi * to_mpf(l_value_at_0(t)) / mp.sqrt(abs(t)))
        total = mp.make_mpf(_log_sine_sum(t, mp.prec))
        return +(-total / mp.sqrt(t))


def _log_sine_sum(t: int, prec: int) -> tuple:
    """sum_{a=1}^{t-1} chi_t(a) log sin(pi a / t) for t > 0, as a raw mpf.

    Each step is the libmp call that mpmath's operators make for
    chi_t(a) * mp.log(mp.sin(mp.pi * a / t)) at prec bits, rounding to
    nearest, and the terms are added in order of a, so the value is bit-equal
    to that sum of mpf objects; chi_t comes from character_table.
    """
    rnd = round_nearest
    pi = mpf_pi(prec, rnd)
    big_t = from_int(t)
    total = fzero
    for a, c in enumerate(character_table(t)):
        if c:
            x = mpf_div(mpf_mul_int(pi, a, prec, rnd), big_t, prec, rnd)
            term = mpf_log(mpf_sin(x, prec, rnd), prec, rnd)
            total = mpf_add(total, term if c > 0 else mpf_neg(term), prec, rnd)
    return total


@lru_cache(maxsize=128)
def _zeta_at(s: tuple, prec: int) -> mpf:
    """mp.zeta at the raw mpf s, evaluated at the caller's precision prec."""
    return mp.zeta(mp.make_mpf(s))


def real_zeta(s) -> mpf:
    """Riemann zeta at real s and the current precision, bit-equal to mp.zeta(s).

    s is taken as mp.zeta takes it, without rounding to the current
    precision, and each (s, precision) is evaluated once: the 128 most
    recently used values are kept, keyed on both, so no value computed at one
    precision is returned at another.  The derivative oracles ask for the
    same shifted arguments for every m.
    """
    return _zeta_at(mp.convert(s)._mpf_, mp.prec)


@lru_cache(maxsize=None)
def _zpz2_cached(_working_dps: int) -> mpf:
    with hp(extra=10):
        return +(mp.zeta(2, derivative=1) / mp.zeta(2))


def zeta_prime_over_zeta_2() -> mpf:
    """The constant zeta'(2)/zeta(2), cached per working precision."""
    return _zpz2_cached(working_dps())


def sigma_constrained(ell: int, big_n: int, s, r: int):
    """sigma_{ell,N,s}(r) = sum over d | r with gcd(d, ell) = 1 and
    gcd(r/d, N/ell) = 1 of d**s.  Exact for integer s (an int when s >= 0,
    else a Fraction), else mpf.
    """
    if big_n % ell != 0:
        raise ValueError("ell must divide N")
    if r < 1:
        raise ValueError("r must be positive")
    co = big_n // ell
    ds = [
        d
        for d in divisors(r)
        if math.gcd(d, ell) == 1 and math.gcd(r // d, co) == 1
    ]
    if isinstance(s, int):
        if s >= 0:
            return sum(d**s for d in ds)
        return sum((Fraction(1, d**-s) for d in ds), Fraction(0))
    with hp():
        return +mp.fsum(mp.power(d, s) for d in ds)


def t_divisor_sum(big_n: int, s, t: int, n: int):
    """T^{chi_t}_{N,s}(n) = sum_{d | n, gcd(d,N)=1} mu(d) chi_t(d) d^{s-1}
    sigma_{N, 2s-1}(n/d), with sigma_{N, 2s-1} = sigma_constrained(N, N, 2s-1, .)
    the sum of r^{2s-1} over the divisors r coprime to N.  Exact Fraction for
    integer s, else mpf.  Every T-sum of the package is computed here.
    """
    terms = [
        (mu * chi(t, d), d)
        for d in divisors(n)
        if math.gcd(d, big_n) == 1 and (mu := moebius(d))
    ]
    if isinstance(s, int):
        return sum(
            (
                mu * Fraction(d) ** (s - 1) * sigma_constrained(big_n, big_n, 2 * s - 1, n // d)
                for mu, d in terms
            ),
            Fraction(0),
        )
    with hp():
        s = mp.mpf(s)
        total = mp.mpf(0)
        for mu, d in terms:
            total += mu * mp.power(d, s - 1) * sigma_constrained(big_n, big_n, 2 * s - 1, n // d)
        return +total


def moebius_char_squared_sum(big_n: int, a: int) -> int:
    """sum_{ell | N} mu(ell) chi_ell(a)**2 for squarefree N; equals [N | a]."""
    if not is_squarefree(big_n):
        raise ValueError("N must be squarefree")
    if a < 1:
        raise ValueError("a must be positive")
    return sum(moebius(ell) * kronecker(ell, a) ** 2 for ell in divisors(big_n))
