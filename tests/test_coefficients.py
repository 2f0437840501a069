"""Coefficient closed forms against their derivative oracles, the constant
term system, and the square-index consistency."""

from fractions import Fraction

import pytest
from mpmath import mp

from quadtrace import cli
from quadtrace.arith import is_prime
from quadtrace.coefficients import (
    coeff_oracle_4,
    coeff_oracle_4p,
    deformation_b_infty,
    deformation_b_zero,
    neg_coeff_rational,
    sesqui4_square_coeff,
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_square_coeff,
    t_log_sum,
    theta_multiple_const,
)
from quadtrace.kloosterman import local_factor_p_exact, plus_zeta_special_value
from quadtrace.lvalues import t_divisor_sum


def setup_module():
    mp.dps = 30


def test_t_divisor_sum_normalization():
    for m in range(1, 21):
        assert t_divisor_sum(1, 0, 1, m) == 1
    assert t_divisor_sum(12, 0, 1, 1) == 1
    assert t_divisor_sum(12, 0, -3, 2) == 1  # only d = 1 survives gcd(d, 12) = 1


def test_t_log_sum_values():
    assert t_log_sum(1, 1) == 0
    assert t_log_sum(12, 2) == 0
    assert abs(t_log_sum(1, 2) - mp.log(2) / 2) < mp.mpf("1e-30")


def test_t_log_sum_matches_finite_difference():
    # central difference of T^{id}_{1, 3/2-2s}(m) at s = 3/4
    for m in (2, 6, 12):
        h = mp.mpf("1e-6")
        up = t_divisor_sum(1, mp.mpf(3) / 2 - 2 * (mp.mpf(3) / 4 + h), 1, m)
        dn = t_divisor_sum(1, mp.mpf(3) / 2 - 2 * (mp.mpf(3) / 4 - h), 1, m)
        fd = -(up - dn) / (4 * h)
        assert abs(fd - t_log_sum(1, m)) < mp.mpf("1e-9"), m


def test_b_closed_vs_oracle():
    for m in range(1, 13):
        closed = sesqui4_square_coeff(m)
        oracle = coeff_oracle_4(m)
        assert abs(closed - oracle) < mp.mpf("1e-8"), m


def test_b_constant_structure():
    from quadtrace.lvalues import zeta_prime_over_zeta_2

    z = zeta_prime_over_zeta_2()
    expected = (
        2 / (3 * mp.pi) * (mp.euler - 2 * z - mp.log(4) + mp.log(mp.pi) / 2)
    )
    assert abs(sesqui4_square_coeff(1) - expected) < mp.mpf("1e-30")


def test_c_closed_vs_oracle():
    for p in (3, 5):
        assert abs(sesqui4p_const_coeff(p) - coeff_oracle_4p(p, 0)) < mp.mpf("1e-8")
        for m in range(1, 13):
            assert abs(
                sesqui4p_square_coeff(p, m) - coeff_oracle_4p(p, m)
            ) < mp.mpf("1e-8"), (p, m)


def test_negative_coefficients_exact_shape():
    # (1 - i) c(n) has exactly vanishing imaginary part by construction
    for p, n in ((3, -4), (3, -3), (7, -8), (5, -20)):
        c = sesqui4p_neg_coeff(p, n)
        prod = (1 - 1j) * c
        assert prod.imag == 0
        assert prod.real != 0 or neg_coeff_rational(p, n) == 0


def test_negative_coefficient_rational_values():
    assert neg_coeff_rational(3, -4) == -3  # (12/3)(3/4 + (3/-2) 1)
    assert neg_coeff_rational(3, -3) == Fraction(12, 3) * (
        Fraction(3, 8) + Fraction(3, -2) * Fraction(1, 3)
    )


def test_theta_multiple_const_positive():
    for p in (3, 5, 11):
        assert theta_multiple_const(p) != 0


def test_constant_term_checks_all_odd_primes_to_50():
    primes = [p for p in range(3, 51) if is_prime(p)]
    reports = [r for r in cli.sweep_constants(primes) if r.check.startswith("constant-term-")]
    names = ("constant-term-v-half", "constant-term-log16v", "constant-term-theta")
    assert [(r.check, r.params) for r in reports] == [
        (name, {"p": p}) for p in primes for name in names
    ]
    failed = [(r.check, r.params["p"]) for r in reports if not r.passed]
    assert failed == []


def test_deformation_values_and_check():
    assert abs(deformation_b_infty(3, 1) - 1) < mp.mpf("1e-30")
    assert abs(deformation_b_zero(3, 1) - 3) < mp.mpf("1e-30")
    assert abs(deformation_b_infty(5, 1) - 1) < mp.mpf("1e-30")
    primes = [p for p in range(3, 500) if is_prime(p)]
    checks = {
        r.params["p"]: r for r in cli.sweep_constants(primes) if r.check == "deformation-b-taylor"
    }
    assert list(checks) == primes
    # the recorded variant/numeric ratio is pi^2 (p^2 - 1)
    ratio = mp.mpf(checks[3].flags["variant_vs_numeric_ratio_inf"])
    assert abs(ratio - mp.pi**2 * 8) < mp.mpf("1e-6")
    # B_0(1) = p carries rounding in proportion to p, so its gate is relative;
    # an absolute gate failed p = 11, 29, 37, ...
    failed = [p for p, r in checks.items() if not r.passed]
    assert failed == []


def test_nonsquare_coeff_rejects_squares():
    with pytest.raises(ValueError):
        plus_zeta_special_value(3, 4)
    with pytest.raises(ValueError):
        plus_zeta_special_value(3, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: plus_zeta_special_value(p, 5),
        # a nonsquare index divisible by 3
        lambda p: plus_zeta_special_value(p, 12),
        lambda p: local_factor_p_exact(p, 5),
        lambda p: sesqui4p_const_coeff(p),
        lambda p: sesqui4p_square_coeff(p, 1),
    ],
    ids=["plus-zeta", "nonsquare", "local-factor-p", "const", "square"],
)
def test_level_4p_functions_reject_p_2(call):
    """The level-4p series lives at level 4p with p an odd prime."""
    with pytest.raises(ValueError, match="odd prime"):
        call(2)
    call(3)  # the same call at an odd prime returns a value
