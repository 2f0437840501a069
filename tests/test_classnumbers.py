"""Hurwitz class numbers: dual routes, level generalization, regulator sum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from quadtrace.classnumbers import (
    generalized_hurwitz,
    hurwitz_class_number_forms,
    hurwitz_forms_table,
    hurwitz_level_table,
    linear_relation_report,
    regulator_class_sum,
)
from quadtrace.lvalues import chi, fundamental_decomposition, l_value_at_0, t_divisor_sum


def test_small_values():
    assert hurwitz_class_number_forms(0) == Fraction(-1, 12)
    assert hurwitz_class_number_forms(3) == Fraction(1, 3)
    assert hurwitz_class_number_forms(4) == Fraction(1, 2)
    assert hurwitz_class_number_forms(8) == 1
    assert hurwitz_class_number_forms(12) == Fraction(4, 3)
    assert hurwitz_class_number_forms(1) == 0
    assert hurwitz_class_number_forms(2) == 0


def test_lseries_route_examples():
    assert generalized_hurwitz(1, 1, 3) == Fraction(1, 3)
    assert generalized_hurwitz(1, 1, 12) == Fraction(4, 3)
    assert generalized_hurwitz(1, 1, 8) == 1


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=10**4))
def test_dual_routes_agree_property(n):
    assert hurwitz_class_number_forms(n) == generalized_hurwitz(1, 1, n)


def test_twelve_h_integral():
    for n in range(0, 2001):
        v = 12 * hurwitz_class_number_forms(n)
        assert v.denominator == 1


def test_tables_match_single_n_functions():
    n_max, primes = 2000, (3, 5, 7, 11, 13)
    forms = hurwitz_forms_table(n_max)
    levels = [(1, 1)] + [level for p in primes for level in ((1, p), (p, p))]
    rows = hurwitz_level_table(n_max, levels)
    assert len(forms) == n_max + 1 and all(len(row) == n_max + 1 for row in rows.values())
    for n in range(n_max + 1):
        assert forms[n] == hurwitz_class_number_forms(n), n
        assert rows[1, 1][n] == generalized_hurwitz(1, 1, n), n
        for p in primes:
            assert rows[1, p][n] == generalized_hurwitz(1, p, n), (p, n)
            assert rows[p, p][n] == generalized_hurwitz(p, p, n), (p, n)


def test_tables_at_zero_and_on_bad_input():
    assert hurwitz_forms_table(0) == [Fraction(-1, 12)]
    assert hurwitz_level_table(0, [(3, 3)]) == {(3, 3): [Fraction(1, 6)]}
    with pytest.raises(ValueError):
        hurwitz_forms_table(-1)
    with pytest.raises(ValueError):
        hurwitz_level_table(10, [(2, 6)])


def test_generalized_values():
    assert generalized_hurwitz(3, 3, 0) == Fraction(1, 6)
    assert generalized_hurwitz(15, 15, 0) == Fraction(-2, 3)  # -(1 - 3)(1 - 5)/12
    assert generalized_hurwitz(3, 15, 0) == 0
    assert generalized_hurwitz(1, 3, 3) == Fraction(3, 8)
    assert generalized_hurwitz(3, 3, 3) == Fraction(1, 3)
    assert generalized_hurwitz(1, 3, 0) == 0
    assert generalized_hurwitz(1, 3, 5) == 0  # -5 = 3 mod 4, not a discriminant
    with pytest.raises(ValueError):
        generalized_hurwitz(2, 6, 3)
    with pytest.raises(ValueError):
        generalized_hurwitz(5, 3, 3)


def test_generalized_reduces_to_classical():
    forms = hurwitz_forms_table(249)
    for n in range(0, 250):
        assert generalized_hurwitz(1, 1, n) == forms[n], n


def test_generalized_hurwitz_at_level_is_a_t_sum():
    """H_{p,p}(n) = L(0, chi_t) (1 - chi_t(p)) T^{chi_t}_{p,1}(m), -n = t m^2."""
    cases = 0
    for p in (3, 5, 7):
        for n in range(1, 401):
            if n % 4 not in (0, 3):
                continue
            split = fundamental_decomposition(-n)
            t, m = split.t, split.m
            expected = l_value_at_0(t) * (1 - chi(t, p)) * t_divisor_sum(p, 1, t, m)
            assert generalized_hurwitz(p, p, n) == expected, (p, n)
            cases += 1
    assert cases == 600


def test_linear_relation_report_on_given_values():
    for p, n in ((3, 3), (5, 23), (7, 48)):
        h = hurwitz_class_number_forms(n)
        h1p, hpp = generalized_hurwitz(1, p, n), generalized_hurwitz(p, p, n)
        report = linear_relation_report(p, n, h, h1p, hpp)
        assert report.check == "hurwitz-linear-relation" and report.params == {"p": p, "n": n}
        assert report.passed and report.lhs == report.rhs == str(hpp / (1 - p))
        assert not linear_relation_report(p, n, h + 1, h1p, hpp).passed


def test_regulator_sum_values():
    mp.dps = 30
    from quadtrace.quadforms import order_unit_pm

    from .oracles import fundamental_unit

    # single-atom indices: (1/pi) log(fundamental unit) h
    assert abs(
        regulator_class_sum(5) - fundamental_unit(5).log_value() / mp.pi
    ) < mp.mpf("1e-25")
    assert abs(
        regulator_class_sum(8) - fundamental_unit(8).log_value() / mp.pi
    ) < mp.mpf("1e-25")
    # two atoms at n = 20: discriminants 20 and 5
    expected = (
        2 * order_unit_pm(20).log_value() * 1 + 2 * fundamental_unit(5).log_value() * 1
    ) / (2 * mp.pi)
    assert abs(regulator_class_sum(20) - expected) < mp.mpf("1e-25")
    with pytest.raises(ValueError):
        regulator_class_sum(9)
    with pytest.raises(ValueError):
        regulator_class_sum(7)
