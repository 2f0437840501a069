"""Characters, fundamental discriminants, and L-values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from quadtrace import lvalues
from quadtrace.arith import kronecker
from quadtrace.coefficients import coeff_oracle_4p
from quadtrace.lvalues import (
    character_table,
    chi,
    fundamental_decomposition,
    is_fundamental_discriminant,
    l_value_at_0,
    l_value_at_1,
    moebius_char_squared_sum,
    real_zeta,
    sigma_constrained,
    t_divisor_sum,
    zeta_prime_over_zeta_2,
)
from quadtrace.precision import hp, set_working_dps, working_dps

from .oracles import zeta, zeta_star


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
        assert table == [kronecker(t, a) for a in range(abs(t))], t
        count += 1
    assert count > 3000


def test_l_value_at_0_matches_kronecker_sum():
    for t in (-3, -4, -7, -8, -15, -20, -24, -84, -120, -4004):
        q = abs(t)
        assert l_value_at_0(t) == Fraction(-sum(kronecker(t, a) * a for a in range(q)), q)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(min_value=-20000, max_value=-3).filter(is_fundamental_discriminant))
def test_half_period_l_value_at_0_equals_defining_sum(t):
    # l_value_at_0 sums chi_t over half a period; the reference is the
    # defining sum -(1/|t|) sum_a chi_t(a) a over a whole one
    q = abs(t)
    assert l_value_at_0(t) == Fraction(-sum(kronecker(t, a) * a for a in range(q)), q)


def test_fundamental_decomposition():
    assert fundamental_decomposition(-4) == (-4, 1)
    assert fundamental_decomposition(-12) == (-3, 2)
    assert fundamental_decomposition(9) == (1, 3)
    with pytest.raises(ValueError):
        fundamental_decomposition(6)
    with pytest.raises(ValueError):
        fundamental_decomposition(0)


def test_decomposition_roundtrip():
    for n in range(-10**5, 10**5):
        if n == 0 or n % 4 in (2, 3):
            continue
        t, m = fundamental_decomposition(n)
        assert t * m * m == n
        assert t == 1 or is_fundamental_discriminant(t)


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
    """2 h(t) log eps_t / sqrt(t), which the level-4p series uses, against the
    sine sum at working precision, for every fundamental t the series of
    verify modularity reaches (t <= 703) and a little beyond."""
    from quadtrace.classnumbers import class_number_l_at_1

    count = 0
    with hp():
        for t in range(2, 711):
            if is_fundamental_discriminant(t):
                sine_sum = l_value_at_1(t)
                assert abs(class_number_l_at_1(t) / sine_sum - 1) < mp.mpf("1e-70"), t
                count += 1
    assert count == 214


def reference_l_at_1(t):
    """L(1, chi_t), t > 0, as a sum of mpf objects: the kernel must equal it."""
    with hp():
        total = mp.mpf(0)
        for a in range(1, t):
            c = chi(t, a)
            if c:
                total += c * mp.log(mp.sin(mp.pi * a / t))
        return +(-total / mp.sqrt(t))


POSITIVE_FUNDAMENTALS = [t for t in range(2, 702) if is_fundamental_discriminant(t)]


@pytest.mark.parametrize("dps", [64, 80])
def test_log_sine_kernel_equals_mpf_sum(dps):
    old = working_dps()
    set_working_dps(dps)
    try:
        for t in [t for t in POSITIVE_FUNDAMENTALS if t <= 300] + POSITIVE_FUNDAMENTALS[-10:]:
            assert l_value_at_1(t) == reference_l_at_1(t), (dps, t)
        # and to the working precision: h(13) = 1, eps_13 = (3 + sqrt(13))/2
        with mp.workdps(dps + 20):
            golden = (3 + mp.sqrt(13)) / 2
            error = l_value_at_1(13) - 2 * mp.log(golden) / mp.sqrt(13)
            assert abs(error) < mp.mpf(10) ** -dps
    finally:
        set_working_dps(old)


def test_dirichlet_l_series_oracle():
    # mp.dirichlet reads its table as chi(k) = table[k mod |t|], so a shifted
    # or reversed character_table misses the direct character-sum series
    mp.dps = 25
    for t in (-4, -3, 5, 8):
        direct = mp.fsum(chi(t, k) / mp.mpf(k) ** 2 for k in range(1, 4000))
        assert abs(mp.dirichlet(2, character_table(t)) - direct) < mp.mpf("1e-6")


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


ZETA_ARGS = (2, 1.5, "0.7", mp.mpf(3) / 2 + mp.mpf("1e-5"), -3)


@pytest.mark.parametrize("prec", [113, 300])
def test_real_zeta_bit_equal_to_mpmath(prec):
    lvalues._zeta_at.cache_clear()
    with mp.workprec(prec):
        for s in ZETA_ARGS:
            for _ in range(2):  # the second call is served from the cache
                assert real_zeta(s)._mpf_ == mp.zeta(s)._mpf_, s


def test_real_zeta_keeps_precisions_apart():
    assert lvalues._zeta_at.cache_info().maxsize is not None
    s = mp.mpf(3) / 2
    with mp.workprec(200):
        high = real_zeta(s)
    with mp.workprec(100):
        low = real_zeta(s)
        assert low._mpf_ == mp.zeta(s)._mpf_
    assert low._mpf_ != high._mpf_
    with mp.workprec(200):
        assert real_zeta(s)._mpf_ == high._mpf_


def test_oracle_evaluates_each_zeta_once(monkeypatch):
    seen = []
    evaluate = mp.zeta

    def counted(s, *args, **kwargs):
        seen.append((s._mpf_, mp.prec))
        return evaluate(s, *args, **kwargs)

    lvalues._zeta_at.cache_clear()
    monkeypatch.setattr(mp, "zeta", counted)
    for m in range(13):
        coeff_oracle_4p(3, m)
    # four shifted points, each with one numerator and one denominator
    # argument, for m = 0 and for m >= 1; the denominators are shared
    assert len(seen) == len(set(seen)) == 12


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


def test_precision_caches_follow_the_working_precision():
    # values cached at 40 working digits must not be returned at 200
    old = working_dps()
    mp.dps = 15
    try:
        for dps in (40, 200):
            set_working_dps(dps)
            l1, ratio = l_value_at_1(5), zeta_prime_over_zeta_2()
        with mp.workdps(210):
            golden = (1 + mp.sqrt(5)) / 2
            assert abs(l1 - 2 * mp.log(golden) / mp.sqrt(5)) < mp.mpf("1e-190")
            glaisher = mp.log(2 * mp.pi) + mp.euler - 12 * mp.log(mp.glaisher)
            assert abs(ratio - glaisher) < mp.mpf("1e-190")
    finally:
        set_working_dps(old)


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


def _moebius_by_trial_division(k):
    mu, q = 1, 2
    while k > 1:
        if k % q == 0:
            k //= q
            if k % q == 0:
                return 0
            mu = -mu
        q += 1
    return mu


def t_sum_oracle(big_n, s, t, n, power):
    """T^{chi_t}_{N,s}(n) from its definition: sum over d | n and r | n/d,
    both coprime to N, of mu(d) chi_t(d) d^{s-1} r^{2s-1}."""
    return sum(
        _moebius_by_trial_division(d) * kronecker(t, d) * power(d, s - 1) * power(r, 2 * s - 1)
        for d in range(1, n + 1)
        if n % d == 0 and math.gcd(d, big_n) == 1
        for r in range(1, n // d + 1)
        if (n // d) % r == 0 and math.gcd(r, big_n) == 1
    )


T_SUM_LEVELS = (1, 4, 12, 20, 28)
T_SUM_CHARACTERS = (1, -3, -4, 5, -7, 8, -8, 12)


def test_t_divisor_sum_matches_definition_exactly():
    for big_n in T_SUM_LEVELS:
        for t in T_SUM_CHARACTERS:
            for n in range(1, 61):
                for s in (-1, 0, 1, 2):
                    value = t_divisor_sum(big_n, s, t, n)
                    assert isinstance(value, Fraction)
                    expected = t_sum_oracle(big_n, s, t, n, lambda x, e: Fraction(x) ** e)
                    assert value == expected, (big_n, s, t, n)


def test_t_divisor_sum_matches_definition_numerically():
    for big_n in T_SUM_LEVELS:
        for t in T_SUM_CHARACTERS:
            for n in range(1, 61):
                for s in (-1.0, 0.3):
                    value = t_divisor_sum(big_n, s, t, n)
                    assert isinstance(value, mp.mpf)
                    with mp.workdps(working_dps() + 30):
                        expected = t_sum_oracle(big_n, mp.mpf(s), t, n, mp.power)
                        assert abs(value - expected) <= mp.mpf("1e-60") * abs(expected)


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
