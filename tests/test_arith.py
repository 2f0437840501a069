"""Integer-arithmetic primitives against brute-force oracles."""

import math

import pytest

from quadtrace.arith import (
    divisors,
    eps_odd,
    factorize,
    is_prime,
    kronecker,
    moebius,
    valuation,
)

from .oracles import euler_phi


def trial_division_oracle(n):
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def legendre_oracle(a, p):
    """Quadratic-residue test by brute-force squares, odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def kronecker_oracle(a, b):
    """Independent Kronecker symbol from the prime factorization of b."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    for p, e in factorize(b):
        if p == 2:
            if a % 2 == 0:
                return 0
            val = 1 if a % 8 in (1, 7) else -1
        else:
            val = legendre_oracle(a, p)
        if val == 0:
            return 0
        result *= val**e
    return result


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(980) == ((2, 2), (5, 1), (7, 2))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_sampled():
    for n in list(range(1, 2000)) + [10**6 - k for k in range(50)]:
        fac = factorize(n)
        assert fac == trial_division_oracle(n)
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n


def test_factorize_large_cofactor():
    n = 1000003 * 1000033
    assert factorize(n) == ((1000003, 1), (1000033, 1))
    assert factorize(n * 1000003) == ((1000003, 2), (1000033, 1))


def test_moebius():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    for m in range(1, 300):
        for n in range(1, 300 // m + 1):
            if math.gcd(m, n) == 1:
                assert moebius(m * n) == moebius(m) * moebius(n)


def test_valuation():
    assert valuation(8, 2) == 3
    assert valuation(9, 2) == 0
    assert valuation(980, 7) == 2
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_kronecker_examples():
    assert kronecker(7, 1) == 1
    assert kronecker(2, 7) == legendre_oracle(2, 7) == 1
    assert kronecker(5, 3) == legendre_oracle(5, 3) == -1


def test_kronecker_against_oracle():
    for a in range(-60, 61):
        for b in range(-60, 61):
            assert kronecker(a, b) == kronecker_oracle(a, b), (a, b)


def test_kronecker_multiplicative_in_bottom():
    # nonzero bottoms: (a/0) = [|a| = 1] is not multiplicative through zero
    for a in range(-40, 41):
        for b1 in range(-14, 15):
            for b2 in range(-14, 15):
                if b1 == 0 or b2 == 0:
                    continue
                assert kronecker(a, b1 * b2) == kronecker(a, b1) * kronecker(a, b2)


def test_eps_odd():
    assert eps_odd(1) == 1
    assert eps_odd(3) == 1j
    assert eps_odd(-5) == 1j
    with pytest.raises(ValueError):
        eps_odd(4)


def test_eps_squared_is_kronecker_minus_one():
    for d in range(-999, 1000, 2):
        assert eps_odd(d) ** 2 == kronecker(-1, d)


def test_divisors_and_phi():
    assert divisors(6) == [1, 2, 3, 6]
    assert euler_phi(9) == 6
    assert euler_phi(1) == 1
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
