"""q-series evaluation and numerical modularity residuals."""

import functools
import random

import pytest
from mpmath import mp

from quadtrace import lvalues
from quadtrace.modular import (
    MAX_CUTOFF,
    apply_moebius,
    choose_cutoff,
    eval_cohen_eisenstein,
    eval_sesqui_4p,
    eval_theta,
    eval_zagier_eisenstein,
    modularity_residual,
    slash_half,
)


def setup_module():
    mp.dps = 30


GAMMA0_4_GENS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 4, 1), (1, 0, -4, 1)]
TEST_POINTS = [
    mp.mpc("0.13", "0.9"),
    mp.mpc("-0.37", "1.3"),
    mp.mpc("0.5", "0.77"),
    mp.mpc("0.05", "2.1"),
    mp.mpc("-0.49", "0.62"),
]


def _mat_mul(g, h):
    a, b, c, d = g
    e, f, x, y = h
    return (a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y)


def battery(seed=2024, count=10, max_len=3, min_height=0.05):
    """Deterministic list of (gamma, tau) pairs with image height >= 0.05."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        g = (1, 0, 0, 1)
        for _ in range(rng.randint(1, max_len)):
            g = _mat_mul(g, rng.choice(GAMMA0_4_GENS))
        tau = rng.choice(TEST_POINTS)
        if g[2] == 0 and g[0] == 1 and g[1] == 0:
            continue
        if apply_moebius(g, tau).imag >= min_height:
            pairs.append((g, tau))
    return pairs


def test_theta_direct_value():
    tau = mp.mpc(0, 1)
    (th,) = eval_theta([(tau, 50)])
    direct = 1 + 2 * mp.fsum(mp.exp(-2 * mp.pi * n * n) for n in range(1, 51))
    assert abs(th - direct) < mp.mpf("1e-30")


def test_theta_inversion():
    # theta(-1/(4 tau)) = sqrt(-2 i tau) theta(tau)
    for tau in TEST_POINTS[:3]:
        image, here = eval_theta([(-1 / (4 * tau), 80), (tau, 80)])
        assert abs(image - mp.sqrt(-2j * tau) * here) < mp.mpf("1e-10")


def test_theta_residual_battery():
    for g, tau in battery():
        r = modularity_residual(eval_theta, g, mp.mpf(1) / 2, tau, tol=mp.mpf("1e-12"))
        assert r < mp.mpf("1e-10"), (g, tau)


def test_zagier_constant_term():
    # q -> 0 limit: the holomorphic part tends to -1/12 (v -> infinity kills the rest)
    tau = mp.mpc(0, 40)
    (series,) = eval_zagier_eisenstein([(tau, 10)])
    assert abs(series - (mp.mpf(-1) / 12 + 1 / (8 * mp.pi * mp.sqrt(40)))) < mp.mpf("1e-25")


def test_zagier_nonholomorphic_kernel():
    # n = 1 term of the nonholomorphic part at v = 1 against the direct kernel
    from quadtrace.specialfns import inc_gamma_minus_half

    tau = mp.mpc("0.25", "1")
    (full,) = eval_zagier_eisenstein([(tau, 420)])
    q = mp.e ** (2j * mp.pi * tau)
    kernel = mp.mpf(1) / (4 * mp.sqrt(mp.pi)) * inc_gamma_minus_half(4 * mp.pi) * q ** (-1)
    # removing the n=1 nonholomorphic term must change the value by exactly it
    stripped = full - kernel
    assert abs((full - stripped) - kernel) < mp.mpf("1e-25")


def test_zagier_residual_battery():
    for g, tau in battery(count=6):
        r = modularity_residual(
            eval_zagier_eisenstein, g, mp.mpf(3) / 2, tau, tol=mp.mpf("1e-8")
        )
        assert r < mp.mpf("1e-6"), (g, tau)


def test_cohen_eisenstein_support_and_constant():
    from quadtrace.classnumbers import generalized_hurwitz

    assert generalized_hurwitz(3, 3, 0) != 0
    for n in range(1, 80):
        if n % 4 in (1, 2):
            assert generalized_hurwitz(3, 3, n) == 0
            assert generalized_hurwitz(1, 3, n) == 0


def test_cohen_eisenstein_residuals():
    tau = mp.mpc("0.21", "0.63")
    for g in ((1, 0, 12, 1), (5, 2, 12, 5)):
        r = modularity_residual(
            functools.partial(eval_cohen_eisenstein, 3, 3),
            g,
            mp.mpf(3) / 2,
            tau,
            tol=mp.mpf("1e-7"),
        )
        assert r < mp.mpf("1e-5"), g


def test_sesqui4p_negative_coefficients_exact_rational_family():
    """The negative-index coefficients used by the series evaluation are the
    exact rational multiples of (1+i)/(8 pi sqrt|n|) from the class-number
    linear combination."""
    from quadtrace.coefficients import neg_coeff_rational, sesqui4p_neg_coeff
    from quadtrace.classnumbers import generalized_hurwitz
    from fractions import Fraction

    for p, n in ((3, -3), (3, -4), (3, -20), (5, -24)):
        r = neg_coeff_rational(p, n)
        expected = Fraction(12, p) * (
            generalized_hurwitz(1, p, -n)
            + Fraction(p, 1 - p) * generalized_hurwitz(p, p, -n)
        )
        assert r == expected
        c = sesqui4p_neg_coeff(p, n)
        assert ((1 - 1j) * c).imag == 0


def test_slash_trivial_cases():
    tau = mp.mpc("0.3", "1.1")
    f = mp.mpc("0.7", "-0.2")
    assert abs(slash_half(f, (1, 0, 0, 1), mp.mpf(1) / 2, tau) - f) < mp.mpf("1e-30")
    # T has trivial multiplier
    assert abs(slash_half(f, (1, 1, 0, 1), mp.mpf(1) / 2, tau) - f) < mp.mpf("1e-30")
    # -I acts trivially in half-integral weight with these conventions
    assert abs(slash_half(f, (-1, 0, 0, -1), mp.mpf(1) / 2, tau) - f) < mp.mpf("1e-30")


def test_evaluations_deterministic():
    tau = mp.mpc("0.13", "0.9")
    (a,) = eval_zagier_eisenstein([(tau, 150)])
    (b,) = eval_zagier_eisenstein([(tau, 150)])
    assert a == b


def test_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eval_theta([(mp.mpc(0, -1), 10)])


def test_choose_cutoff_monotone():
    assert choose_cutoff(0.05, 1e-8) > choose_cutoff(0.9, 1e-8)


@pytest.mark.parametrize(
    "tau, gamma, tol, cutoffs",
    [
        (("0.13", "0.9"), (1, 0, 4, 1), "1e-8", (16, 84)),  # theta and Zagier
        (("0.21", "0.63"), (1, 0, 12, 1), "1e-7", (16, 540)),  # Cohen
        (("0.21", "0.63"), (5, 2, 12, 5), "1e-7", (16, 914)),
        (("0.21", "1.1"), (1, 0, 12, 1), "2e-5", (16, 703)),  # level-4p series
    ],
)
def test_choose_cutoff_keeps_recorded_cutoffs(tau, gamma, tol, cutoffs):
    """The cutoffs verify modularity sums at tau and at its image."""
    tau = mp.mpc(*tau)
    heights = (tau.imag, apply_moebius(gamma, tau).imag)
    assert tuple(choose_cutoff(v, mp.mpf(tol)) for v in heights) == cutoffs


def test_choose_cutoff_rejects_unreachable_tolerance():
    # the old loop returned 226,276 here, where its tail estimate is 4.8e3
    with pytest.raises(ValueError, match=r"tol = 1e-08 at height v = 1e-05"):
        choose_cutoff(1e-5, 1e-8)
    # the first step past the cap still counts when it meets the tolerance
    assert choose_cutoff(3e-5, 1e-8) == 226276 > MAX_CUTOFF


def test_sesqui_4p_series_forms_no_sine_sum(monkeypatch):
    """The level-4p series takes every L(1, chi_t) from class numbers."""

    def refuse(t, prec):
        raise AssertionError(f"sine sum formed for t = {t}")

    monkeypatch.setattr(lvalues, "_log_sine_sum", refuse)
    tau = mp.mpc("0.21", "1.1")
    image = apply_moebius((1, 0, 12, 1), tau)
    (series,) = eval_sesqui_4p(3, [(image, 703)])
    assert mp.isfinite(series)
