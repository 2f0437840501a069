"""Trace identities over Gamma_0(p)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from quadtrace.arith import is_prime
from quadtrace.traces import (
    pin_convention,
    real_trace_rhs,
    trace_imaginary,
    trace_real_nonsquare,
    verify_imaginary_trace_identity,
)


def setup_module():
    mp.dps = 30


def test_convention_pinned_by_seed_cases():
    assert pin_convention() == "both-signs"


def test_trace_imaginary_values():
    assert trace_imaginary(3, -3) == Fraction(2, 3)
    assert trace_imaginary(3, -4) == 0
    assert trace_imaginary(5, -4) == 2
    assert trace_imaginary(3, -12) == Fraction(8, 3)


def test_trace_denominators_divide_six():
    for p in (3, 5):
        for n in range(-60, 0):
            if n % 4 not in (0, 1):
                continue
            assert 6 % trace_imaginary(p, n).denominator == 0


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from([p for p in range(3, 60) if is_prime(p)]),
    st.integers(min_value=-5000, max_value=-3).filter(lambda n: n % 4 in (0, 1)),
)
def test_imaginary_identity_property(p, n):
    assert verify_imaginary_trace_identity(p, n).passed


def test_imaginary_report_names_only_an_unpinned_convention():
    pinned = verify_imaginary_trace_identity(3, -20)
    assert pinned.params == {"p": 3, "n": -20} and pinned.passed
    assert verify_imaginary_trace_identity(3, -20, "both-signs") == pinned
    other = verify_imaginary_trace_identity(3, -3, "pos-def")
    assert other.params == {"p": 3, "n": -3, "convention": "pos-def"}
    assert other.lhs == "1/3" and not other.passed


def test_imaginary_invariant_under_rep_permutation(monkeypatch):
    import quadtrace.quadforms as qf

    base = {(p, n): trace_imaginary(p, n) for p, n in ((3, -20), (5, -24), (7, -47))}
    orig = qf.class_reps

    def reversed_reps(d, include_imprimitive=False):
        return list(reversed(orig(d, include_imprimitive)))

    monkeypatch.setattr(qf, "class_reps", reversed_reps)
    for (p, n), expected in base.items():
        assert trace_imaginary(p, n) == expected


def test_real_trace_empty_sets():
    # 5 is not a square mod 12, so no forms of discriminant 5 carry 3 | a
    assert trace_real_nonsquare(3, 5) == 0
    assert abs(real_trace_rhs(3, 5)) < mp.mpf("1e-25")


def test_real_trace_seed_values():
    from quadtrace.quadforms import automorph_unit

    # two orbits of discriminant 12 at p = 3, both with unit stabilizer index
    expected = 2 * automorph_unit(12).log_value()
    assert abs(trace_real_nonsquare(3, 12) - expected) < mp.mpf("1e-25")


def test_real_trace_translate_invariance():
    from quadtrace.quadforms import (
        automorph_unit,
        gamma0_orbits,
        gamma0_stabilizer_index,
    )

    p, n = 3, 40
    total = mp.mpf(0)
    for oc in gamma0_orbits(p, n):
        translate = oc.rep.apply((1, 0, p, 1))  # a Gamma_0(p) element
        d0 = n // (translate.content() ** 2)
        total += gamma0_stabilizer_index(p, translate) * automorph_unit(d0).log_value()
    assert abs(total - trace_real_nonsquare(p, n)) < mp.mpf("1e-25")


def test_real_identity_unit_route_matches_l_value_route():
    for p, n in ((3, 13), (3, 45), (5, 24)):
        a = real_trace_rhs(p, n, via_l_value=True)
        b = real_trace_rhs(p, n, via_l_value=False)
        assert abs(a - b) < mp.mpf("1e-25")
