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

Truncated sums use float precision (tail bounds dwarf roundoff); the tests
hold the inner sums to a working-precision evaluation (tests/oracles.py).

The float kernels (local_sum_2_exp, local_sum_p_exp, _jacobi_table,
_jacobi_period, _inner_sums and plus_zeta_batch) import numpy where they
start, not at module level: every CLI command imports this module, but only
`verify kloosterman` reaches them, and importing numpy takes longer than
all the other imports of the CLI together.  Their Legendre symbols come
from arith.legendre_table, as int8 arrays.

plus_zeta_batch sums every level of a check in one pass over c: each c
builds the Jacobi period of its odd part once and forms the inner sums of
every level from it, in one set of work buffers.  _inner_sums gathers the
roots of unity at n r mod M by np.take(mode="wrap") on r n_s, n_s the least
absolute residue of n mod M, which costs no division but grows with |n_s|:
it suits the small indices the checks sum (see _inner_sums).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from .arith import (
    CHI8_TABLE,
    eps_odd,
    kronecker,
    legendre_table,
    require_odd_prime,
    smallest_prime_factors,
    valuation,
)
from .classnumbers import class_number_l_at_1
from .lvalues import (
    character_table,
    chi,
    fundamental_decomposition,
    real_zeta,
    t_divisor_sum,
)
from .parallel import fork_map
from .precision import hp, to_mpf


# ---------------------------------------------------------------------------
# finite inner sums


def local_sum_2_exp(j: int, n: int) -> complex:
    """a(2^j, n) as a finite exponential sum (float precision)."""
    import numpy as np

    m_mod = 1 << j
    r = np.arange(1, m_mod, 2, dtype=np.int64)
    if j % 2:
        chi_m = np.array(CHI8_TABLE, dtype=np.int8)[r % 8]
    else:
        chi_m = np.ones_like(r)
    eps_r = np.where(r % 4 == 1, 1.0 + 0.0j, 1.0j)
    return complex((chi_m * eps_r * np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))).sum())


def local_sum_p_exp(p: int, j: int, n: int) -> complex:
    """a(p^j, n) as a finite exponential sum (float precision), odd prime p."""
    import numpy as np

    m_mod = p**j
    r = np.arange(m_mod, dtype=np.int64)
    if j % 2:
        chi_m = np.array(legendre_table(p), dtype=np.int8)[r % p]
    else:
        chi_m = np.where(r % p != 0, 1, 0)
    return complex(
        (chi_m * np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))).sum() / eps_odd(m_mod)
    )


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


def _local_depths(p: int, n: int) -> tuple[range, range]:
    """The j of the sums a(2^j, n) and a(p^j, n) that the local factors at 2
    and at p add up: 2 <= j <= nu_2(n) + 5 and 1 <= j <= nu_p(n) + 4."""
    return range(2, valuation(n, 2) + 6), range(1, valuation(n, p) + 5)


def _local_factors(p: int, n: int, sigma) -> tuple[complex, complex]:
    """(F_2(n, sigma), F_p(n, sigma)) as float sums over _local_depths:
    F_2 = sum_j a(2^j, n) 2^{-j sigma} + (1+i) 2^{-2 sigma} and
    F_p = sum_j a(p^j, n) p^{-j sigma}."""
    depths_2, depths_p = _local_depths(p, n)
    total_2 = sum(local_sum_2_exp(j, n) / 2 ** (j * sigma) for j in depths_2)
    total_p = sum(local_sum_p_exp(p, j, n) / p ** (j * sigma) for j in depths_p)
    return total_2 + (1 + 1j) / 2 ** (2 * sigma), total_p


# Largest modulus of an exponential sum the CLI lets a check form.  Under
# tracemalloc at M = 10^6, one process holds 41 bytes per unit of M for a
# plus_zeta_batch whose largest modulus is M (its work buffers; 41.06 at
# the peak of a call at that M) and one local sum peaks at up to 48 (0.5 GB
# at the limit).
MAX_MODULUS = 10**7


def largest_modulus(p: int, n: int, cutoff: int) -> int:
    """The largest modulus of the exponential sums that plus_zeta_batch([p],
    [n], s, cutoff) and assembled_product(p, n, s) form, n != 0: 4p * cutoff in
    the truncated series, 2^j and p^j at the deepest j of _local_depths in the
    local factors."""
    depths_2, depths_p = _local_depths(p, n)
    return max(4 * p * cutoff, 2 ** depths_2[-1], p ** depths_p[-1])


def assembled_product(p: int, n: int, s: float) -> complex:
    """The factored form of the plus Kloosterman zeta at index n != 0, real s > 1."""
    t, m = fundamental_decomposition(n)
    with hp():
        if t == 1:
            l_num = complex(real_zeta(mp.mpf(s) - mp.mpf(1) / 2))
        else:
            l_num = complex(mp.dirichlet(s - 0.5, character_table(t)))
    l_num *= (1 - chi(t, 2) * 2.0 ** -(s - 0.5)) * (1 - chi(t, p) * float(p) ** -(s - 0.5))
    with hp():
        l_den = float(real_zeta(2 * s - 1))
    l_den *= (1 - 2.0 ** -(2 * s - 1)) * (1 - float(p) ** -(2 * s - 1))
    factor_2, factor_p = _local_factors(p, n, s)
    return (l_num / l_den) * float(t_divisor_sum(4 * p, 1.5 - s, t, m)) * factor_2 * factor_p


# ---------------------------------------------------------------------------
# truncated series (float precision, numpy inner sums)


def _jacobi_table(m: int, spf):
    """(x/m) for 0 <= x < m, odd m > 0, as an int8 product of Legendre tables.

    A prime q dividing m to an odd power contributes (x/q); to an even power
    only the indicator of gcd(x, q) = 1.
    """
    import numpy as np

    x = np.arange(m, dtype=np.int64)
    table = np.ones(m, dtype=np.int8)
    rest = m
    while rest > 1:
        q, e = spf[rest], 0
        while rest % q == 0:
            rest //= q
            e += 1
        table *= np.array(legendre_table(q), dtype=np.int8)[x % q] if e % 2 else (x % q != 0)
    return table


class _Work(NamedTuple):
    """The arrays _inner_sums works in, for every modulus M <= len(roots).

    odd holds r = 1, 3, 5, ... and is read-only; the others are scratch, and
    a call writes every entry it reads: roots (complex, M), chi and tile
    (int8, M/2), base and terms (complex, M/2) and index (int64, M/2).
    """

    odd: object
    roots: object
    chi: object
    tile: object
    base: object
    terms: object
    index: object


def _work_buffers(m_max: int) -> _Work:
    """One set of _inner_sums work arrays for the moduli up to m_max, 41
    bytes per unit of m_max."""
    import numpy as np

    half = m_max // 2
    odd = np.arange(1, m_max, 2, dtype=np.int64)
    odd.flags.writeable = False
    return _Work(
        odd,
        np.empty(m_max, dtype=complex),
        np.empty(half, dtype=np.int8),
        np.empty(half, dtype=np.int8),
        np.empty(half, dtype=complex),
        np.empty(half, dtype=complex),
        np.empty(half, dtype=np.int64),
    )


def _jacobi_period(c: int, spf):
    """(r/c_odd) at the odd r = 1, 3, ..., 2 c_odd - 1, c_odd the odd part of
    c: one period of the Jacobi factor of the inner sums at c, the same at
    every level."""
    import numpy as np

    c_odd = c >> valuation(c, 2)
    return _jacobi_table(c_odd, spf)[np.arange(1, 2 * c_odd, 2) % c_odd]


def _inner_sums(big_n: int, c: int, n_list, per4n, jacobi, work: _Work):
    """S(4Nc; n) for each n, splitting (4Nc/r) = (4N/r)(2/r)^e (c_odd/r).

    The sum runs over the M/2 odd r = 2i + 1 < M = 4Nc, and every factor of
    (4Nc/r) eps_r is periodic in i: (4N/r) with period 2N, the Jacobi
    factor with period c_odd (jacobi, from _jacobi_period(c), turned into
    (c_odd/r) by reciprocity), (2/r) with period 4, and the r = 3 mod 4 sign
    and eps_r with period 2.  Each is one period tiled to length M/2,
    multiplied as int8 and then by eps_r as complex.

    The roots of unity e(k / M) are shared by all indices: each index
    gathers roots[n r mod M].  For odd n that index is an odd multiple of
    gcd(n, M), for even n a multiple of it, so exp is evaluated only at the
    odd multiples of the gcd of M and the odd n and at the multiples of the
    gcd of M and the even n (3/4 of M for the CLI's -4, -3, 5, 8).  The
    other entries are left as they were, and no index reaches them.  The
    exp argument is the float product of 2 pi i / M and the reduced integer
    k, exactly as when e(n r / M) is evaluated for one index alone, and
    numpy's complex exp works element by element, so the sums are
    bit-identical to that direct evaluation.

    The gather index is r n_s, n_s the least absolute residue of n mod M,
    and np.take(mode="wrap") reduces it mod M by |r n_s| // M additions or
    subtractions of M (at most |n_s|), so it reaches the same root as
    n r mod M and costs no division.  For small |n_s| that beats forming
    n r mod M by np.remainder over one period of M / gcd(2n, M) entries and
    tiling it.  Over the moduli of `verify kloosterman --p 3 5 --cutoff
    2000` (every third c, three rounds, a 2-vCPU x86-64 guest, numpy 2.4)
    the gathers of -4, -3, 5 and 8 took 361 ms by wrap and 590 ms by the
    remainder; the remainder won only for n = 8 at c = 0 mod 4 (25 against
    27 ms), and taking the faster per class of gcd(2n, M) would have saved
    2 ms.  The cost grows with |n_s|: at M = 30,000, n = 10^6 + 1 (n_s =
    10,001) takes 29 ms by wrap against 97 us by the remainder.

    Every array of length M or M/2 is a prefix of `work` (_work_buffers),
    written through out= and in-place operations, so a call allocates only
    O(c_odd) temporaries.  One call depends on nothing but its arguments,
    the buffers included, which is what lets plus_zeta_batch run the calls
    for different c in different processes.
    """
    import numpy as np

    m_mod = 4 * big_n * c
    half = m_mod // 2
    roots, index = work.roots, work.index
    step = 2j * np.pi / m_mod

    def write_roots(view, count):
        # the integers k in index are cast to complex by the assignment; a
        # multiply that cast them itself would allocate a ufunc buffer and
        # form the same products
        view[...] = index[:count]
        np.multiply(step, view, out=view)
        np.exp(view, out=view)

    odd = [n for n in n_list if n % 2]
    if odd:
        g = math.gcd(m_mod, *odd)
        count = m_mod // (2 * g)
        np.multiply(work.odd[:count], g, out=index[:count])
        write_roots(roots[g:m_mod : 2 * g], count)
    even = [n for n in n_list if n % 2 == 0]
    if even:
        g = math.gcd(m_mod, *even)
        count = m_mod // g
        np.subtract(work.odd[:count], 1, out=index[:count])
        np.multiply(index[:count], g // 2, out=index[:count])
        write_roots(roots[:m_mod:g], count)
    e2 = valuation(c, 2)
    c_odd = c >> e2
    # each period is tiled by a broadcast assignment, which needs no buffer,
    # and then multiplied in one pass: a broadcast multiply would allocate
    # a ufunc buffer of 8192 entries
    chi, tile = work.chi[:half], work.tile[:half]
    chi.reshape(-1, 2 * big_n)[...] = per4n[1::2]
    tile.reshape(-1, c_odd)[...] = jacobi
    np.multiply(chi, tile, out=chi)
    if e2 % 2:
        tile.reshape(-1, 4)[...] = CHI8_TABLE[1::2]
        np.multiply(chi, tile, out=chi)
    if c_odd % 4 == 3:
        chi[1::2] *= -1
    base, terms = work.base[:half], work.terms[:half]
    base[...] = chi
    terms.reshape(-1, 2)[...] = (1.0 + 0.0j, 1.0j)  # eps_r, until the gathers
    np.multiply(base, terms, out=base)
    gather = index[:half]
    sums = []
    for n in n_list:
        np.multiply(work.odd[:half], (n + half) % m_mod - half, out=gather)
        np.take(roots[:m_mod], gather, out=terms, mode="wrap")
        np.multiply(base, terms, out=terms)
        sums.append(complex(terms.sum()))
    return sums


def plus_zeta_batch(levels, n_list, s: float, cutoff: int):
    """Truncated K^+_{1/2,4N}(0, n; s) at each level N and index n in one pass over c.

    Returns one (values, tail bound) pair per level, in the order of levels,
    values holding one complex per index in the order of n_list.  Each c
    builds the Jacobi period of c_odd once (_jacobi_period) and then runs
    _inner_sums for every level: one period of each other character factor,
    tiled, the roots of unity at the multiples the indices can reach, and
    one gather per index, all in one set of work buffers sized for the
    largest modulus 4 max(N) cutoff.  Those per-c sums are computed across
    the usable cores (parallel.fork_map), whose workers inherit the buffers
    through the fork, so each process reuses one allocation for all of its
    moduli; the buffers live as long as this call.  Each c returns the
    lists of Python complex that _inner_sums builds, one per level.  The
    weighted sum over c of each level stays here and runs in c order,
    because float addition in another order gives other bits and the
    reports print the totals to 30 digits.  The tail bound is the rigorous
    trivial one, left infinite when s <= 2 (no decay) and None at cutoff 0
    (nothing summed).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    import numpy as np

    per4n = [
        np.array([kronecker(4 * big_n, x) for x in range(4 * big_n)], dtype=np.int8)
        for big_n in levels
    ]
    spf = smallest_prime_factors(max(cutoff + 1, 100))
    work = _work_buffers(4 * max(levels) * cutoff)

    def sums_at(c):
        jacobi = _jacobi_period(c, spf)
        return [
            _inner_sums(big_n, c, n_list, table, jacobi, work)
            for big_n, table in zip(levels, per4n)
        ]

    # c ascending: _shares splits a cost that grows with c into even shares
    sums_by_c = fork_map(sums_at, range(1, cutoff + 1))
    totals = [[0j] * len(n_list) for _ in levels]
    for c, sums in enumerate(sums_by_c, start=1):
        w = 1 + kronecker(4, c)
        for k, big_n in enumerate(levels):
            m_mod = 4 * big_n * c
            # the sums stay Python complex, whose division by a float has
            # the bits the reports were recorded with; numpy's complex
            # division rounds otherwise (in 42% of random quotients)
            for i, val in enumerate(sums[k]):
                totals[k][i] += w * val / m_mod**s
    out = []
    for k, big_n in enumerate(levels):
        # rigorous trivial tail: |inner| <= phi(4Nc) <= 4Nc, weight <= 2
        if cutoff == 0:
            tail = None
        elif s > 2:
            tail = 2.0 * (4 * big_n) ** (1 - s) * cutoff ** (2 - s) / (s - 2)
        else:
            tail = float("inf")
        out.append((totals[k], tail))
    return out


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
    require_odd_prime(p)
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
    L(1, chi_t) is classnumbers.class_number_l_at_1: 2 h(t) log eps_t /
    sqrt(t) for t > 0 by Dirichlet's class number formula, so no sine sum is
    formed, and pi L(0, chi_t) / sqrt(|t|) for t < 0.  p is an odd prime.
    """
    require_odd_prime(p)
    if n == 0:
        raise ValueError("square (and zero) indices are poles handled elsewhere")
    r = math.isqrt(abs(n))
    if n > 0 and r * r == n:
        raise ValueError("square indices are poles handled elsewhere")
    if n % 4 not in (0, 1):
        raise ValueError("index must be 0 or 1 mod 4")
    t, m = fundamental_decomposition(n)
    with hp():
        l_num = class_number_l_at_1(t)
        l_num *= (1 - chi(t, 2) * mp.mpf(1) / 2) * (1 - chi(t, p) * mp.mpf(1) / p)
        l_den = real_zeta(2) * (1 - mp.mpf(1) / 4) * (1 - mp.mpf(1) / (p * p))
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
        return +(real_zeta(2 * s - 1) / real_zeta(2 * s) * (p - 1) / (x - 1))


def kzeta_level_truncated(p: int, s: float, cutoff: int) -> tuple[float, float | None]:
    """Truncated sum_{p | c} phi(c) c^{-2s} and its rigorous phi(c) <= c tail
    bound, as (value, tail bound).

    The tail bound is None at cutoff 0 (nothing summed) and infinite for
    s <= 1, where the series diverges; a negative cutoff raises ValueError.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    spf = smallest_prime_factors(max(cutoff + 1, 100))
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
    return total, tail


def _phi_from_spf(n: int, spf) -> int:
    out = n
    while n > 1:
        q = spf[n]
        out -= out // q
        while n % q == 0:
            n //= q
    return out
