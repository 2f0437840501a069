"""Exact integer arithmetic primitives.

Factorization is deterministic: trial division over a 6k+-1 wheel, with a
Brent-cycle rho fallback for cofactors beyond 10**12 so that accidental
large inputs terminate.  Everything here is pure and exact; the
factorization cache keeps the 4096 most recently used n and is safe under
concurrent reads and duplicate inserts.
Legendre symbols come one at a time (kronecker) or as a tuple over a full
period (legendre_table, and CHI8_TABLE for (2/x)), the building blocks of
the character tables in lvalues.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, deterministic seed sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of |n| as ((prime, exponent), ...), primes increasing.

    Rejects n = 0.
    """
    if n == 0:
        raise ValueError("factorize(0) is undefined")
    n = abs(n)
    fac: dict[int, int] = {}

    def _add(p, e=1):
        fac[p] = fac.get(p, 0) + e

    for p in (2, 3):
        while n % p == 0:
            _add(p)
            n //= p
    d = 5
    while d * d <= n and d <= _TRIAL_LIMIT:
        for step in (0, 2):
            q = d + step
            while n % q == 0:
                _add(q)
                n //= q
        d += 6
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                _add(m)
            else:
                g = _brent_rho(m)
                stack.extend((g, m // g))
    return tuple(sorted(fac.items()))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e | n.  Rejects n = 0."""
    if n == 0:
        raise ValueError("valuation of 0 is not supported")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, sorted increasingly."""
    if n == 0:
        raise ValueError("divisors of 0 are undefined")
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


def squarefree_kernel(n: int) -> tuple[int, int]:
    """Write n = s * k**2 with s squarefree (signed); returns (s, k)."""
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    s, k = 1 if n > 0 else -1, 1
    for p, e in factorize(n):
        if e % 2:
            s *= p
        k *= p ** (e // 2)
    return s, k


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a/b), full extension to all integers b.

    Conventions: (a/1) = 1; (a/0) = 1 iff a = +-1; (a/-1) = -1 iff a < 0;
    (a/2) = 0 for even a and +-1 via a mod 8 otherwise.
    """
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while b % 2 == 0:
            b //= 2
            e += 1
        if e % 2 and a % 8 in (3, 5):
            result = -result
    # now b odd and positive: Jacobi symbol via reciprocity
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def eps_odd(d: int) -> complex:
    """Theta-multiplier unit for odd d: 1 if d = 1 (mod 4), i if d = 3 (mod 4)."""
    if d % 2 == 0:
        raise ValueError("eps_odd requires an odd argument")
    return 1 if d % 4 == 1 else 1j


@lru_cache(maxsize=128)
def legendre_table(q: int) -> tuple[int, ...]:
    """(x/q) for 0 <= x < q, odd prime q: +1 exactly on the nonzero squares.

    The squares of x = 1..(q-1)/2 are all the nonzero squares mod q, each
    reached from the last by adding 2x - 1.
    """
    table = [-1] * q
    square = 0
    for step in range(1, q, 2):
        square += step
        if square >= q:
            square -= q
        table[square] = 1
    table[0] = 0
    return tuple(table)


# chi_8(x) = (2/x) on x mod 8: the factor (2/r) of a Jacobi symbol with an
# odd power of 2 on top, and the character of the prime discriminant 8
CHI8_TABLE = (0, 1, 0, -1, 0, -1, 0, 1)


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = smallest prime factor of k for 0 <= k <= n (spf[0] = spf[1] = 1)."""
    spf = list(range(n + 1))
    if n >= 1:
        spf[1] = 1
    if n >= 0:
        spf[0] = 1
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf
