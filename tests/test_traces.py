"""Trace identities over Gamma_0(p)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from quadtrace.arith import is_prime
from quadtrace.classnumbers import generalized_hurwitz
from quadtrace.quadforms import weighted_orbit_count
from quadtrace.traces import (
    imaginary_trace_report,
    real_index,
    real_trace_rhs,
    trace_real_nonsquare,
)

from .test_quadforms import pairwise_orbits, stabilizer_index


def setup_module():
    mp.dps = 30


def _imaginary_rhs(p, n):
    """4(p+1)/p H_{1,p}(-n) - 2(p+1)/(p-1) H_{p,p}(-n)."""
    h1p, hpp = generalized_hurwitz(1, p, -n), generalized_hurwitz(p, p, -n)
    return Fraction(4 * (p + 1), p) * h1p - Fraction(2 * (p + 1), p - 1) * hpp


def test_convention_pinned_by_seed_cases():
    """The experiment that fixed the definiteness convention: the imaginary
    identity holds exactly on the seed cases when the forms carry both signs,
    and fails on one of them with the positive-definite count, half of it."""
    seeds = ((3, -3), (3, -4), (5, -4))
    assert all(weighted_orbit_count(p, n) == _imaginary_rhs(p, n) for p, n in seeds)
    assert any(weighted_orbit_count(p, n) / 2 != _imaginary_rhs(p, n) for p, n in seeds)


def test_trace_imaginary_values():
    assert weighted_orbit_count(3, -3) == Fraction(2, 3)
    assert weighted_orbit_count(3, -4) == 0
    assert weighted_orbit_count(5, -4) == 2
    assert weighted_orbit_count(3, -12) == Fraction(8, 3)


def test_trace_denominators_divide_six():
    for p in (3, 5):
        for n in range(-60, 0):
            if n % 4 not in (0, 1):
                continue
            assert 6 % weighted_orbit_count(p, n).denominator == 0


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from([p for p in range(3, 200) if is_prime(p)]),
    st.integers(min_value=-50000, max_value=-3).filter(lambda n: n % 4 in (0, 1)),
)
def test_imaginary_identity_property(p, n):
    h1p, hpp = generalized_hurwitz(1, p, -n), generalized_hurwitz(p, p, -n)
    assert imaginary_trace_report(p, n, h1p, hpp).passed


def test_imaginary_invariant_under_rep_permutation(monkeypatch):
    import quadtrace.quadforms as qf
    import quadtrace.traces as tr

    # -27 and -100 have classes of different weights (content p, extra
    # automorphs); 45 and 200 have real classes whose content carries p
    imaginary = ((3, -20), (5, -24), (7, -47), (3, -27), (5, -100))
    real = ((3, 40), (5, 24), (3, 45), (5, 200))
    base_imaginary = {(p, n): weighted_orbit_count(p, n) for p, n in imaginary}
    base_real = {(p, n): trace_real_nonsquare(p, real_index(n)) for p, n in real}
    orig = qf.class_reps
    calls = []

    def reversed_reps(d):
        calls.append(d)
        return list(reversed(orig(d)))

    monkeypatch.setattr(qf, "class_reps", reversed_reps)
    monkeypatch.setattr(tr, "class_reps", reversed_reps)
    for (p, n), expected in base_imaginary.items():
        assert weighted_orbit_count(p, n) == expected
    for (p, n), expected in base_real.items():
        assert abs(trace_real_nonsquare(p, real_index(n)) - expected) < mp.mpf("1e-25")
    # both traces went through the permuted representatives
    assert calls == [n for _, n in imaginary + real]


def test_real_trace_empty_sets():
    # 5 is not a square mod 12, so no forms of discriminant 5 carry 3 | a
    assert trace_real_nonsquare(3, real_index(5)) == 0
    assert abs(real_trace_rhs(3, real_index(5))) < mp.mpf("1e-25")


def test_real_trace_seed_values():
    from quadtrace.quadforms import automorph_unit

    # two orbits of discriminant 12 at p = 3, both with unit stabilizer index
    expected = 2 * automorph_unit(12).log_value()
    assert abs(trace_real_nonsquare(3, real_index(12)) - expected) < mp.mpf("1e-25")


def test_real_trace_translate_invariance():
    from quadtrace.quadforms import automorph_unit

    # at n = 45 the orbits of content 3 have kappa > 1
    for p, n in ((3, 40), (3, 45)):
        total = mp.mpf(0)
        for rep, _, _ in pairwise_orbits(p, n):
            translate = rep.apply((1, 0, p, 1))  # a Gamma_0(p) element
            d0 = n // (translate.content() ** 2)
            total += stabilizer_index(p, translate) * automorph_unit(d0).log_value()
        assert abs(total - trace_real_nonsquare(p, real_index(n))) < mp.mpf("1e-25")
