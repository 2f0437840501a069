"""Plus-space Kloosterman zeta machinery at index (0, n).

The series is
    sum_{c > 0} (1 + (4/c)) (4Nc)^{-s} sum_{r mod 4Nc, gcd(r,4Nc)=1}
        (4Nc/r) eps_r e(n r / 4Nc)
with (4/c) the Kronecker symbol, so odd c carry weight 2 and even c weight 1
(verified directly against the closed product below at s = 2.5).

At an index n = t m^2 the series factors as

    K(0, n; s) = [L_{4N}(s - 1/2, chi_t) / L_{4N}(2s - 1, id)]
                 * T^{chi_t}_{4N, 3/2 - s}(m) * F_2(n, s) * F_p(n, s)

where T is the Moebius-twisted divisor sum of lvalues.t_divisor_sum and
F_2, F_p are local Dirichlet polynomials/series built from the finite
twisted Gauss-type sums

    a(2^j, n) = sum_{r mod 2^j} (2^j / r) eps_r e(n r / 2^j),
    a(p^j, n) = eps_{p^j}^{-1} sum_{r mod p^j} (r / p^j) e(n r / p^j),

together with the extra (1+i) 2^{-2s} summand in the 2-factor.  The local
sums are kept as computable exponential sums (their prime-power splitting
convention is not re-derived); the factorization is verified wholesale at
the absolutely convergent point s = 2.5, and the closed forms for n = 0
and square n are checked against them term by term.

Truncated sums use float precision (tail bounds dwarf roundoff); the small
building blocks are also available at working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from .arith import CHI8_TABLE, eps_odd, euler_phi, kronecker, legendre_table, valuation
from .lvalues import (
    chi,
    dirichlet_l,
    fundamental_decomposition,
    l_value_at_1,
    t_divisor_sum,
)
from .parallel import fork_map
from .precision import hp, to_mpf


@dataclass
class KloostermanValue:
    value: complex
    params: dict
    cutoff: int | None = None
    tail_bound: float | None = None


# ---------------------------------------------------------------------------
# finite inner sums


def plus_term(big_n: int, n: int, c: int, two_k: int = 1):
    """(1 + (4/c)) * sum_{r mod 4Nc} (4Nc/r) eps_r^{2k} e(n r / 4Nc).

    two_k = 2k is the numerator of the half-integral weight (1 for k = 1/2).
    Exact-precision evaluation for small moduli.
    """
    w = 1 + kronecker(4, c)
    if w == 0:
        return mp.mpc(0)
    m_mod = 4 * big_n * c
    with hp():
        total = mp.mpc(0)
        for r in range(1, m_mod, 2):
            if math.gcd(r, m_mod) != 1:
                continue
            kr = kronecker(m_mod, r)
            if kr == 0:
                continue
            total += kr * mp.mpc(eps_odd(r)) ** two_k * mp.e ** (
                2j * mp.pi * n * r / m_mod
            )
        return +(w * total)


def local_sum_2_exp(j: int, n: int) -> complex:
    """a(2^j, n) as a finite exponential sum (float precision)."""
    m_mod = 1 << j
    r = np.arange(1, m_mod, 2, dtype=np.int64)
    if j % 2:
        chi_m = CHI8_TABLE[r % 8]
    else:
        chi_m = np.ones_like(r)
    eps_r = np.where(r % 4 == 1, 1.0 + 0.0j, 1.0j)
    return complex((chi_m * eps_r * np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))).sum())


def local_sum_p_exp(p: int, j: int, n: int) -> complex:
    """a(p^j, n) as a finite exponential sum (float precision), odd prime p."""
    m_mod = p**j
    r = np.arange(m_mod, dtype=np.int64)
    if j % 2:
        chi_m = legendre_table(p)[r % p]
    else:
        chi_m = np.where(r % p != 0, 1, 0)
    return complex(
        (chi_m * np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))).sum() / eps_odd(m_mod)
    )


def local_sum_2(j: int, n: int = 0) -> complex:
    """Closed-form a(2^j, 0): 1 at j = 1, (1+i) 2^{j-2} at even j, 0 at odd j >= 3.

    Only the n = 0 case has a per-j closed form; other indices are served by
    local_sum_2_exp.
    """
    if n != 0:
        raise ValueError("closed form only available at index 0")
    if j < 1:
        raise ValueError("j >= 1 required")
    if j == 1:
        return 1
    if j % 2 == 0:
        return (1 + 1j) * 2 ** (j - 2)
    return 0


def local_sum_p(p: int, j: int, n: int = 0) -> complex:
    """Closed-form a(p^j, 0): phi(p^j) at even j >= 2, 0 at odd j."""
    if n != 0:
        raise ValueError("closed form only available at index 0")
    if j < 1:
        raise ValueError("j >= 1 required")
    return 0 if j % 2 else euler_phi(p**j)


def local_series_2(n, sigma):
    """sum_{j >= 2} a(2^j, n) / 2^{j sigma}, closed form for n = 0 or n square.

    sigma is the Dirichlet exponent of the local series.
    """
    with hp():
        sigma = mp.mpf(sigma)
        if n == 0:
            x = mp.power(2, 2 - 2 * sigma)
            return +((1 + 1j) / 4 * x / (1 - x))
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError("closed form available only for n = 0 or n square")
        nu = valuation(m, 2)
        x = mp.power(2, sigma - mp.mpf(1) / 2)
        pref = (1 + 1j) * mp.power(2, -(sigma + mp.mpf(1) / 2))
        pref *= mp.power(2, -(2 * nu + 2) * (sigma - mp.mpf(1) / 2)) / (
            mp.power(2, 2 * sigma - 1) - 2
        )
        bracket = mp.power(2, nu + 1) * (x - 2) * (x + 1) + mp.power(
            2, (2 * nu + 3) * (sigma - mp.mpf(1) / 2)
        )
        return +(pref * bracket)


def local_series_p(p: int, n, sigma):
    """sum_{j >= 1} a(p^j, n) / p^{j sigma}, closed form for n = 0 or n square."""
    with hp():
        sigma = mp.mpf(sigma)
        if n == 0:
            x = mp.power(p, 2 - 2 * sigma)
            return +((1 - mp.mpf(1) / p) * x / (1 - x))
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError("closed form available only for n = 0 or n square")
        nu = valuation(m, p)
        pw = lambda e: mp.power(p, e)  # noqa: E731
        lead = pw(nu) * pw(-2 * nu * (sigma - mp.mpf(1) / 2))
        bracket = (
            -lead * pw(2 * sigma - 1)
            + lead
            * (
                pw(2 * sigma - 1)
                - pw(mp.mpf(3) / 2 - sigma)
                + pw(sigma - mp.mpf(1) / 2)
                - p
                + 1
            )
            + pw(2 * sigma - 1)
            - 1
        )
        return +(-1 + bracket / (pw(2 * sigma - 1) - p))


def _local_factor_2_series(n: int, sigma) -> complex:
    """F_2(n, sigma) = sum_{j>=2} a(2^j, n) 2^{-j sigma} + (1+i) 2^{-2 sigma} (float)."""
    jmax = valuation(n, 2) + 6
    total = sum(local_sum_2_exp(j, n) / 2 ** (j * sigma) for j in range(2, jmax))
    return total + (1 + 1j) / 2 ** (2 * sigma)


def _local_factor_p_series(p: int, n: int, sigma) -> complex:
    """F_p(n, sigma) = sum_{j>=1} a(p^j, n) p^{-j sigma} (float)."""
    jmax = valuation(n, p) + 5
    return sum(local_sum_p_exp(p, j, n) / p ** (j * sigma) for j in range(1, jmax))


# Largest modulus of an exponential sum the CLI lets a check form.  Under
# tracemalloc at M = 10^6, one _inner_sums call peaks at 41 bytes per unit
# of M and one local sum at up to 48 (0.5 GB at the limit).
MAX_MODULUS = 10**7


def largest_modulus(p: int, n: int, cutoff: int) -> int:
    """The largest modulus of the exponential sums that plus_zeta_batch(p, [n],
    s, cutoff) and assembled_product(p, n, s) form, n != 0: 4p * cutoff in the
    truncated series, 2^(nu_2(n) + 5) and p^(nu_p(n) + 4) in the local factors."""
    return max(4 * p * cutoff, 2 ** (valuation(n, 2) + 5), p ** (valuation(n, p) + 4))


def assembled_product(p: int, n: int, s: float) -> complex:
    """The factored form of the plus Kloosterman zeta at index n != 0, real s > 1."""
    split = fundamental_decomposition(n)
    t, m = split.t, split.m
    if t == 1:
        with hp():
            l_num = complex(mp.zeta(mp.mpf(s) - mp.mpf(1) / 2))
    else:
        l_num = complex(dirichlet_l(s - 0.5, t))
    l_num *= (1 - chi(t, 2) * 2.0 ** -(s - 0.5)) * (1 - chi(t, p) * float(p) ** -(s - 0.5))
    with hp():
        l_den = float(mp.zeta(2 * s - 1))
    l_den *= (1 - 2.0 ** -(2 * s - 1)) * (1 - float(p) ** -(2 * s - 1))
    return (
        (l_num / l_den)
        * float(t_divisor_sum(4 * p, 1.5 - s, t, m))
        * _local_factor_2_series(n, s)
        * _local_factor_p_series(p, n, s)
    )


# ---------------------------------------------------------------------------
# truncated series (float precision, numpy inner sums)


@lru_cache(maxsize=8)
def _spf_table(limit: int) -> tuple:
    from .arith import smallest_prime_factors

    return tuple(smallest_prime_factors(limit))


def _jacobi_table(m: int, spf) -> np.ndarray:
    """(x/m) for 0 <= x < m, odd m > 0, as a product of Legendre tables.

    A prime q dividing m to an odd power contributes (x/q); to an even power
    only the indicator of gcd(x, q) = 1.
    """
    x = np.arange(m, dtype=np.int64)
    table = np.ones(m, dtype=np.int8)
    rest = m
    while rest > 1:
        q, e = spf[rest], 0
        while rest % q == 0:
            rest //= q
            e += 1
        table *= legendre_table(q)[x % q] if e % 2 else (x % q != 0)
    return table


def _inner_sums(big_n: int, c: int, n_list, per4n: np.ndarray, spf):
    """S(4Nc; n) for each n, splitting (4Nc/r) = (4N/r)(2/r)^e (c_odd/r).

    The sum runs over the M/2 odd r = 2i + 1 < M = 4Nc, and every factor of
    (4Nc/r) eps_r is periodic in i: (4N/r) with period 2N, the Jacobi table
    of c_odd (_jacobi_table, turned into (c_odd/r) by reciprocity) with
    period c_odd, (2/r) with period 4, and the r = 3 mod 4 sign and eps_r
    with period 2.  Each is one period tiled to length M/2, multiplied as
    int8 and then by eps_r as complex.

    The roots of unity e(k / M) are shared by all indices: each index
    gathers roots[n r mod M].  For odd n that index is an odd multiple of
    gcd(n, M), for even n a multiple of it, so exp is evaluated only at the
    odd multiples of the gcd of M and the odd n and at the multiples of the
    gcd of M and the even n (3/4 of M for the CLI's -4, -3, 5, 8).  The
    other entries are left unwritten, and no index reaches them.  The exp
    argument is the float product of 2 pi i / M and the reduced integer k,
    exactly as when e(n r / M) is evaluated for one index alone, and numpy's
    complex exp works element by element, so the sums are bit-identical to
    that direct evaluation.

    One call depends on nothing but its arguments, which is what lets
    plus_zeta_batch run the calls for different c in different processes.
    """
    m_mod = 4 * big_n * c
    half = m_mod // 2
    # the roots first, so that their exp temporaries are freed before the
    # M/2-long character arrays exist
    step = 2j * np.pi / m_mod
    roots = np.empty(m_mod, dtype=complex)
    odd = [n for n in n_list if n % 2]
    if odd:
        g = math.gcd(m_mod, *odd)
        roots[g::2 * g] = np.exp(step * np.arange(g, m_mod, 2 * g))
    even = [n for n in n_list if n % 2 == 0]
    if even:
        g = math.gcd(m_mod, *even)
        roots[::g] = np.exp(step * np.arange(0, m_mod, g))
    e2, c_odd = 0, c
    while c_odd % 2 == 0:
        c_odd //= 2
        e2 += 1
    jac = _jacobi_table(c_odd, spf)[np.arange(1, 2 * c_odd, 2) % c_odd]
    chi = np.tile(per4n[1::2], c) * np.tile(jac, half // c_odd)
    if e2 % 2:
        chi *= np.tile(CHI8_TABLE[1::2], half // 4)
    if c_odd % 4 == 3:
        chi[1::2] *= -1
    base = chi * np.tile(np.array([1.0 + 0.0j, 1.0j]), half // 2)
    r = np.arange(1, m_mod, 2, dtype=np.int64)
    return [complex((base * roots[(n % m_mod) * r % m_mod]).sum()) for n in n_list]


def plus_zeta_batch(big_n: int, n_list, s: float, cutoff: int):
    """Truncated K^+_{1/2,4N}(0, n; s) for several indices in one pass over c.

    Each c costs one period of each character factor, tiled, the roots of
    unity at the multiples the indices can reach, and one gather per index
    (see _inner_sums).  Those per-c sums are computed across the usable
    cores (parallel.fork_map); the weighted sum over c stays here and runs
    in c order, because float addition in another order gives other bits and
    the reports print the totals to 30 digits.  The tail bound is the
    rigorous trivial one, left infinite when s <= 2 (no decay) and None at
    cutoff 0 (nothing summed).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    per4n = np.array([kronecker(4 * big_n, x) for x in range(4 * big_n)], dtype=np.int8)
    spf = _spf_table(max(cutoff + 1, 100))
    totals = np.zeros(len(n_list), dtype=complex)
    # c ascending: the serial head of fork_map runs the small moduli here,
    # which keeps this process's peak memory at that of the smallest tables
    sums_by_c = fork_map(
        lambda c: _inner_sums(big_n, c, n_list, per4n, spf), range(1, cutoff + 1)
    )
    for c, sums in enumerate(sums_by_c, start=1):
        w = 1 + kronecker(4, c)
        m_mod = 4 * big_n * c
        for i, val in enumerate(sums):
            totals[i] += w * val / m_mod**s
    # rigorous trivial tail: |inner| <= phi(4Nc) <= 4Nc, weight <= 2
    if cutoff == 0:
        tail = None
    elif s > 2:
        tail = 2.0 * (4 * big_n) ** (1 - s) * cutoff ** (2 - s) / (s - 2)
    else:
        tail = float("inf")
    out = []
    for i, n in enumerate(n_list):
        out.append(
            KloostermanValue(
                value=complex(totals[i]),
                params={"N": big_n, "n": n, "s": s, "m_index": 0},
                cutoff=cutoff,
                tail_bound=tail,
            )
        )
    return out


def plus_zeta_truncated(big_n: int, n: int, s: float, cutoff: int) -> KloostermanValue:
    """Truncated K^+_{1/2,4N}(0, n; s): plus_zeta_batch at the single index n."""
    return plus_zeta_batch(big_n, [n], s, cutoff)[0]


# ---------------------------------------------------------------------------
# special value at s = 3/2 and the weight-0 closed forms


def local_factor_2_exact(n: int) -> Fraction:
    """The rational local factor at 2 with F_2(n, 3/2) = 3(1+i)/8 times it.

    Piecewise in nu = nu_2(n) and the odd part of n; the odd-nu branch
    carries exponent (nu - 1)/2, pinned against the exponential sums.
    """
    if n == 0:
        raise ValueError("index 0 has no rational local factor")
    v = valuation(n, 2)
    odd = n >> v if n > 0 else -((-n) >> v)
    if v % 2:
        return 1 - Fraction(1, 2 ** ((v - 1) // 2))
    if odd % 4 == 3:
        return 1 - Fraction(1, 2 ** (v // 2))
    if odd % 8 == 1:
        return Fraction(1)
    return 1 - Fraction(2, 3) * Fraction(1, 2 ** (v // 2))


def local_factor_p_exact(p: int, n: int) -> Fraction:
    """The rational local factor at odd p, equal to F_p(n, 3/2)."""
    if n == 0:
        raise ValueError("index 0 has no rational local factor")
    v = valuation(n, p)
    if v % 2:
        return Fraction(1, p) - Fraction(p + 1, p ** ((v + 3) // 2))
    sym = kronecker(n // p**v, p)
    if sym == 1:
        return Fraction(1, p)
    return Fraction(1, p) - Fraction(2, p ** (v // 2 + 1))


def plus_zeta_special_value(p: int, n: int):
    """K^+_{1/2,4p}(0, n; 3/2) for nonsquare n via the factored closed form.

    L_{4p}(1, chi_t)/L_{4p}(2, id) times the T-sum and the two local factors;
    the 2-adic factor enters as 3(1+i)/8 times its rational table value.
    """
    if n == 0:
        raise ValueError("square (and zero) indices are poles handled elsewhere")
    r = math.isqrt(abs(n))
    if n > 0 and r * r == n:
        raise ValueError("square indices are poles handled elsewhere")
    if n % 4 not in (0, 1):
        raise ValueError("index must be 0 or 1 mod 4")
    split = fundamental_decomposition(n)
    t, m = split.t, split.m
    with hp():
        l_num = l_value_at_1(t)
        l_num *= (1 - chi(t, 2) * mp.mpf(1) / 2) * (1 - chi(t, p) * mp.mpf(1) / p)
        l_den = mp.zeta(2) * (1 - mp.mpf(1) / 4) * (1 - mp.mpf(1) / (p * p))
        rational = (
            t_divisor_sum(4 * p, 0, t, m)
            * local_factor_2_exact(n)
            * local_factor_p_exact(p, n)
            * Fraction(3, 8)
        )
        scale = (l_num / l_den) * to_mpf(rational)
        return +mp.mpc(scale, scale)  # times (1 + i)


def kzeta_level_closed(p: int, s):
    """K_{0,p}(0,0; 2s) = zeta(2s-1)/zeta(2s) * (p-1)/(p^{2s} - 1), Re s > 1."""
    with hp():
        s = mp.mpf(s)
        if s <= 1:
            raise ValueError("requires Re(s) > 1")
        x = mp.power(p, 2 * s)
        return +(mp.zeta(2 * s - 1) / mp.zeta(2 * s) * (p - 1) / (x - 1))


def kzeta_coprime_closed(p: int, s):
    """Modified zeta over moduli coprime to p: zeta(2s-1)/zeta(2s) * (p^{2s}-p)/(p^{2s}-1)."""
    with hp():
        s = mp.mpf(s)
        if s <= 1:
            raise ValueError("requires Re(s) > 1")
        x = mp.power(p, 2 * s)
        return +(mp.zeta(2 * s - 1) / mp.zeta(2 * s) * (x - p) / (x - 1))


def kzeta_level_truncated(p: int, s: float, cutoff: int) -> KloostermanValue:
    """Truncated sum_{p | c} phi(c) c^{-2s} with a rigorous phi(c) <= c tail.

    The tail bound is None at cutoff 0 (nothing summed) and infinite for
    s <= 1, where the series diverges; a negative cutoff raises ValueError.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    spf = _spf_table(max(cutoff + 1, 100))
    total = 0.0
    for k in range(1, cutoff + 1):
        phi = _phi_from_spf(k, spf) * (p if k % p == 0 else p - 1)  # phi(pk)
        total += phi * float(p * k) ** (-2 * s)
    # tail: sum_{k > cutoff} (pk)^{1-2s} <= p^{1-2s} cutoff^{2-2s} / (2s-2)
    if cutoff == 0:
        tail = None
    elif s > 1:
        tail = float(p) ** (1 - 2 * s) * cutoff ** (2 - 2 * s) / (2 * s - 2)
    else:
        tail = float("inf")
    return KloostermanValue(
        value=total, params={"p": p, "s": s}, cutoff=cutoff, tail_bound=tail
    )


def _phi_from_spf(n: int, spf) -> int:
    out = n
    while n > 1:
        q = spf[n]
        out -= out // q
        while n % q == 0:
            n //= q
    return out
