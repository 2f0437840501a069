"""Characters, fundamental discriminants, and L-values."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from quadtrace.arith import kronecker
from quadtrace.lvalues import (
    character_table,
    chi,
    dirichlet_l,
    fundamental_decomposition,
    is_fundamental_discriminant,
    l_incomplete,
    l_value_at_0,
    l_value_at_1,
    moebius_char_squared_sum,
    sigma_constrained,
    zeta,
    zeta_prime_over_zeta_2,
    zeta_star,
)


def test_fundamental_discriminants():
    fundamentals = [1, 5, 8, 12, 13, -3, -4, -7, -8, -11, -15, -19, -20, 21, 24]
    for t in fundamentals:
        assert is_fundamental_discriminant(t), t
    for t in (9, -9, 18, -12, 25, 45, 4, -16):
        assert not is_fundamental_discriminant(t), t


def test_character_table_matches_kronecker():
    count = 0
    for t in range(-5000, 5001):
        if t == 0 or not is_fundamental_discriminant(t):
            continue
        table = character_table(t)
        assert table.tolist() == [kronecker(t, a) for a in range(abs(t))], t
        count += 1
    assert count > 3000


def test_l_value_at_0_matches_kronecker_sum():
    for t in (-3, -4, -7, -8, -15, -20, -24, -84, -120, -4004):
        q = abs(t)
        assert l_value_at_0(t) == Fraction(-sum(kronecker(t, a) * a for a in range(q)), q)


def test_fundamental_decomposition():
    assert (fundamental_decomposition(-4).t, fundamental_decomposition(-4).m) == (-4, 1)
    assert (fundamental_decomposition(-12).t, fundamental_decomposition(-12).m) == (-3, 2)
    assert (fundamental_decomposition(9).t, fundamental_decomposition(9).m) == (1, 3)
    with pytest.raises(ValueError):
        fundamental_decomposition(6)
    with pytest.raises(ValueError):
        fundamental_decomposition(0)


def test_decomposition_roundtrip():
    for n in range(-10**5, 10**5):
        if n == 0 or n % 4 in (2, 3):
            continue
        s = fundamental_decomposition(n)
        assert s.t * s.m * s.m == n
        assert s.t == 1 or is_fundamental_discriminant(s.t)


def test_chi_periodic_and_multiplicative():
    for t in (-3, -4, 5, 8, -7, 12, -40, 21, 33, -39):
        if not is_fundamental_discriminant(t):
            continue
        q = abs(t)
        for k in range(1, 3 * q):
            assert chi(t, k) == chi(t, k + q)
        for a in range(1, 40):
            for b in range(1, 40):
                assert chi(t, a * b) == chi(t, a) * chi(t, b)


def test_chi_principal():
    assert all(chi(1, k) == 1 for k in range(1, 50))


def test_l_at_0_exact_values():
    assert l_value_at_0(-4) == Fraction(1, 2)
    assert l_value_at_0(-3) == Fraction(1, 3)
    assert l_value_at_0(-8) == Fraction(1)
    for t in range(-250, 0):
        if is_fundamental_discriminant(t):
            assert l_value_at_0(t) > 0


def test_l_at_1_odd_character_closed_values():
    mp.dps = 30
    assert abs(l_value_at_1(-4) - mp.pi / 4) < mp.mpf("1e-30")
    assert abs(l_value_at_1(-3) - mp.pi / (3 * mp.sqrt(3))) < mp.mpf("1e-30")


def test_l_at_1_leibniz_partial_sums():
    # independent slow oracle for L(1, chi_{-4}) with an alternating tail bound
    mp.dps = 30
    partial = sum(Fraction((-1) ** k, 2 * k + 1) for k in range(2000))
    assert abs(l_value_at_1(-4) - mp.mpf(partial.numerator) / partial.denominator) < mp.mpf(
        "1e-3"
    )


def test_l_at_1_even_character_class_number_formula():
    mp.dps = 30
    from quadtrace.quadforms import class_number, fundamental_unit

    for t in (5, 8, 12, 13, 24):
        unit = fundamental_unit(t)
        rhs = 2 * class_number(t) * unit.log_value() / mp.sqrt(t)
        assert abs(l_value_at_1(t) - rhs) < mp.mpf("1e-30"), t


def test_dirichlet_l_series_oracle():
    # direct character-sum partial series at s = 2 with geometric-ish tail
    mp.dps = 25
    for t in (-4, 5, -3):
        direct = mp.fsum(chi(t, k) / mp.mpf(k) ** 2 for k in range(1, 4000))
        assert abs(dirichlet_l(2, t) - direct) < mp.mpf("1e-6")


def test_l_incomplete_values():
    v = l_incomplete(3, -1, 1)
    assert v.exact == Fraction(1, 6)
    v = l_incomplete(12, 2, 1)
    mp.dps = 25
    expected = zeta(2) * (1 - mp.mpf(1) / 4) * (1 - mp.mpf(1) / 9)
    assert abs(v.numeric - expected) < mp.mpf("1e-20")
    v = l_incomplete(1, 0, -4)
    assert v.exact == l_value_at_0(-4)
    with pytest.raises(ValueError):
        l_incomplete(3, 1, 1)


def test_zeta_tools():
    mp.dps = 30
    # Euler-Maclaurin oracle for zeta(2): tail int + f(n0)/2 - f'(n0)/12
    n0 = 50
    em = (
        mp.fsum(mp.mpf(1) / k**2 for k in range(1, n0))
        + 1 / mp.mpf(n0)
        + mp.mpf(1) / (2 * n0**2)
        + mp.mpf(1) / (6 * n0**3)
    )
    assert abs(zeta(2) - em) < mp.mpf("1e-8")
    assert abs(zeta(2) - mp.pi**2 / 6) < mp.mpf("1e-30")
    # functional equation of the completed zeta
    assert abs(zeta_star(mp.mpf("0.3")) - zeta_star(mp.mpf("0.7"))) < mp.mpf("1e-30")
    with pytest.raises(ValueError):
        zeta(1)


def test_shifted_pole_limit():
    # (s - 3/4) zeta(2s - 1/2) -> 1/2 as s -> 3/4
    mp.dps = 40
    eps = mp.mpf("1e-12")
    val = eps * zeta(2 * (mp.mpf(3) / 4 + eps) - mp.mpf(1) / 2)
    assert abs(val - mp.mpf(1) / 2) < mp.mpf("1e-10")


def test_zeta_laurent_constant_is_euler_gamma():
    # d/ds [(s-1) zeta(s)] at s = 1 equals the Euler-Mascheroni constant
    mp.dps = 40
    try:
        h = mp.mpf("1e-10")
        up = (1 + h - 1) * zeta(1 + h)
        dn = (1 - h - 1) * zeta(1 - h)
        assert abs((up - dn) / (2 * h) - mp.euler) < mp.mpf("1e-18")
    finally:
        mp.dps = 15


def test_zeta_prime_ratio_cached_consistent():
    mp.dps = 40
    try:
        z1 = zeta_prime_over_zeta_2()
        h = mp.mpf("1e-12")
        num = (zeta(2 + h) - zeta(2 - h)) / (2 * h)
        assert abs(z1 - num / zeta(2)) < mp.mpf("1e-20")
    finally:
        mp.dps = 15


def sigma_filter_oracle(ell, big_n, s, r):
    total = Fraction(0)
    for d in range(1, r + 1):
        if r % d:
            continue
        if math.gcd(d, ell) == 1 and math.gcd(r // d, big_n // ell) == 1:
            total += Fraction(d) ** s
    return total


def test_sigma_constrained():
    assert sigma_constrained(1, 1, 1, 6) == sigma_filter_oracle(1, 1, 1, 6) == 12
    assert sigma_constrained(3, 3, 1, 6) == sigma_filter_oracle(3, 3, 1, 6) == 3
    # divisors d with gcd(6/d, 3) = 1 are {3, 6}
    assert sigma_constrained(1, 3, 1, 6) == sigma_filter_oracle(1, 3, 1, 6) == 9
    for ell, big_n in ((1, 1), (1, 3), (3, 3), (3, 15), (5, 15)):
        for r in range(1, 60):
            assert sigma_constrained(ell, big_n, 1, r) == sigma_filter_oracle(
                ell, big_n, 1, r
            )
    with pytest.raises(ValueError):
        sigma_constrained(2, 3, 1, 6)


def test_sigma_multiplicative_when_conditions_factor():
    for big_n in (1, 3, 15):
        for r1 in range(1, 15):
            for r2 in range(1, 15):
                if math.gcd(r1, r2) != 1 or r1 * r2 > 200:
                    continue
                lhs = sigma_constrained(big_n, big_n, 1, r1 * r2)
                rhs = sigma_constrained(big_n, big_n, 1, r1) * sigma_constrained(
                    big_n, big_n, 1, r2
                )
                assert lhs == rhs


def test_moebius_char_squared_sum_exhaustive():
    """Exact indicator identity for all squarefree N <= 105 and a <= 210."""
    from quadtrace.arith import is_squarefree

    for big_n in range(1, 106):
        if not is_squarefree(big_n):
            continue
        for a in range(1, 211):
            expected = 1 if a % big_n == 0 else 0
            assert moebius_char_squared_sum(big_n, a) == expected
