"""Special functions: erfc, incomplete gamma, the two quadrature kernels."""

import pytest
from mpmath import mp

from quadtrace import specialfns
from quadtrace.cli import SPECIAL_GRID, sweep_special
from quadtrace.modular import apply_moebius
from quadtrace.precision import hp, set_working_dps, working_dps
from quadtrace.specialfns import (
    _erfcx_anchor,
    _head_log,
    _scaled_erfc,
    _tail_factor,
    alpha,
    alpha_companion,
    inc_gamma_half,
    inc_gamma_minus_half,
    quad_certified,
)

from .forks import set_cores
from .oracles import erfc


def setup_module():
    mp.dps = 30


def test_erfc_basic():
    assert erfc(0) == 1
    assert abs(erfc(-1) - (2 - erfc(1))) < mp.mpf("1e-28")
    # series + continued-fraction style cross-check via direct quadrature
    direct = (2 / mp.sqrt(mp.pi)) * mp.quad(lambda t: mp.exp(-t * t), [1, mp.inf])
    assert abs(erfc(1) - direct) < mp.mpf("1e-25")


def test_inc_gamma_half():
    x = mp.mpf("0.7")
    assert abs(inc_gamma_half(x) / (mp.sqrt(mp.pi) * erfc(mp.sqrt(x))) - 1) < mp.mpf(
        "1e-30"
    )
    # x -> 0+ limit is Gamma(1/2) = sqrt(pi)
    assert abs(inc_gamma_half(mp.mpf("1e-30")) - mp.sqrt(mp.pi)) < mp.mpf("1e-14")
    # quadrature oracle at x = 4 pi
    x = 4 * mp.pi
    direct = mp.quad(lambda t: mp.exp(-t) / mp.sqrt(t), [x, mp.inf])
    assert abs(inc_gamma_half(x) - direct) < mp.mpf("1e-20")
    with pytest.raises(ValueError):
        inc_gamma_half(-1)


def test_inc_gamma_minus_half_recurrence():
    x = mp.mpf("2.3")
    lhs = inc_gamma_half(x)
    rhs = -mp.mpf(1) / 2 * inc_gamma_minus_half(x) + mp.exp(-x) / mp.sqrt(x)
    assert abs(lhs - rhs) < mp.mpf("1e-30")


def test_alpha_decay_and_positivity():
    big = alpha(10**4)
    assert abs(big.value) < mp.mpf("1e-3")
    vals = [alpha(y).value for y in ("0.1", "0.5", "1", "5", "20", "100")]
    assert all(v > 0 for v in vals)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_alpha_two_scheme_agreement():
    # independent single-interval quadrature with explicit singular weight
    y = mp.mpf(1)
    res = alpha(y)
    direct = mp.sqrt(y) * mp.quad(
        lambda t: mp.log(t + 1) / mp.sqrt(t) * mp.exp(-mp.pi * y * t), [0, 1, mp.inf]
    )
    assert abs(res.value - direct) < mp.mpf("1e-10")
    assert res.error_estimate < mp.mpf("1e-10")


def test_companion_small_argument_limit():
    t = mp.mpf("1e-12")
    val = alpha_companion(t).value - mp.log(t)
    assert abs(val - (mp.log(2) + mp.euler / 2)) < mp.mpf("1e-10")


def test_companion_large_argument_no_overflow():
    # the exp(w^2) erfc(w) kernel stays finite out to t = 50
    res = alpha_companion(50)
    assert mp.isfinite(res.value)


def test_quadrature_self_consistency():
    # halving the target tolerance moves the value by less than the bound
    y = mp.mpf("0.7")
    r1 = alpha(y)
    mp.dps = 45
    r2 = alpha(y)
    mp.dps = 30
    assert abs(r1.value - r2.value) <= r1.error_estimate * 10


def _at_working_dps(dps, f):
    """f() with the working precision set to dps, restored afterwards."""
    saved = working_dps()
    set_working_dps(dps)
    try:
        return f()
    finally:
        set_working_dps(saved)


def _integrand_prec(dps, monkeypatch):
    """The precision alpha_companion's quadrature evaluates its integrand at."""
    seen = set()
    monkeypatch.setattr(specialfns, "_scaled_erfc", lambda w: seen.add(mp.prec) or w)
    _at_working_dps(dps, lambda: alpha_companion(1))
    monkeypatch.undo()
    assert len(seen) == 1
    return seen.pop()


@pytest.mark.parametrize("dps", [64, 200])
def test_anchor_value_matches_mpmath(dps, monkeypatch):
    # a_0 on both sides of w0 = 7, where mpmath's erfc turns to 1 - erf at
    # extra bits, and around w0 = 40, beyond the grid of verify special: as
    # an integer scaled by 2^wp, within two units of its last place
    prec = _integrand_prec(dps, monkeypatch)
    for j in (27, 28, 29, 159, 160, 161):
        wp, coeffs = _erfcx_anchor(j, prec)
        with mp.workprec(wp):
            value = mp.ldexp(coeffs[0], -wp)
            with mp.workdps(mp.dps + 60):
                w0 = mp.mpf(j) / 4
                ref = mp.exp(w0 * w0) * mp.erfc(w0)
                assert abs(value - ref) <= mp.ldexp(1, 1 - wp), j


@pytest.mark.parametrize("dps", [64, 200])
def test_scaled_erfc_accuracy(dps, monkeypatch):
    # the anchors themselves and the midpoints, where |h| = 1/8 is largest
    prec = _integrand_prec(dps, monkeypatch)
    eps = mp.ldexp(1, 1 - prec)
    worst = 0
    with mp.workprec(prec):
        points = [mp.mpf("1e-30")] + [mp.mpf(j) / 8 for j in range(1, 481)]
        for w in points:
            value = _scaled_erfc(w)
            with mp.workdps(mp.dps + 60):
                ref = mp.exp(w * w) * mp.erfc(w)
                worst = max(worst, abs(value - ref) / ref)
    assert worst <= eps


def test_special_sweep_evaluates_each_anchor_once(monkeypatch):
    # one sweep, serially, from an empty anchor cache: each anchor is built
    # once, not once per node (18,066 of them), and the grid's largest t,
    # 2 * 3 sqrt(10 pi) < 33.75, needs no anchor past j = 135
    set_cores(monkeypatch, 1)
    _erfcx_anchor.cache_clear()
    _at_working_dps(64, lambda: sweep_special(()))
    info = _erfcx_anchor.cache_info()
    assert 0 < info.misses == info.currsize <= 136
    assert info.hits > 100 * info.misses


def test_head_cache_keeps_precisions_apart():
    # the tail factor's and the erfcx anchors' caches too: y = 0.7 cuts the
    # tail at T > 1, and t = 3 reaches the anchors j = 0, ..., 12
    caches = (_head_log, _tail_factor, _erfcx_anchor)
    assert all(cache.cache_info().maxsize is not None for cache in caches)

    def sides():
        return alpha(mp.mpf("0.7")), alpha_companion(3)

    def clear_caches():
        for cache in caches:
            cache.cache_clear()

    clear_caches()
    _at_working_dps(40, sides)
    after_40 = _at_working_dps(200, sides)
    both = _erfcx_anchor.cache_info().currsize
    clear_caches()
    fresh = _at_working_dps(200, sides)
    # the anchors made at 40 digits sit beside those at 200, not in their place
    assert both == 2 * _erfcx_anchor.cache_info().currsize == 26
    for a, b in zip(after_40, fresh):
        assert a.value._mpf_ == b.value._mpf_
        assert a.error_estimate._mpf_ == b.error_estimate._mpf_


def _mpf_integrand(factor, y, power):
    """alpha's integrands as mpf expressions, the oracle of the libmp ones."""
    if power == 2:
        return lambda u: 2 * mp.log(1 + u * u) * mp.exp(-mp.pi * y * u * u)
    return lambda t: mp.log(1 + t) / mp.sqrt(t) * mp.exp(-mp.pi * y * t)


def _alpha_ys():
    """The y of verify special (4 N m^2 v) and of the level-4p series at the
    image point of verify modularity (4 m^2 Im(gamma tau), m <= 26)."""
    special = [4 * big_n * m * m * mp.mpf(v) for big_n, v, m in SPECIAL_GRID]
    with hp():
        v = apply_moebius((1, 0, 12, 1), mp.mpc("0.21", "1.1")).imag
        return special + [4 * m * m * v for m in range(1, 27)]


@pytest.mark.parametrize("dps", [64, 30])
def test_alpha_libmp_integrands_bit_identical(dps, monkeypatch):
    # every node the quadratures evaluate, and then alpha's value, error
    # estimate, evaluation count and convergence flag; the value alone would
    # not show a changed last bit of the integrand, which the quadrature's 20
    # guard bits round away
    libmp_integrand = specialfns._alpha_integrand
    mismatched = []

    def checked(factor, y, power):
        new, old = libmp_integrand(factor, y, power), _mpf_integrand(factor, y, power)

        def f(x):
            value = new(x)
            if value._mpf_ != old(x)._mpf_:
                mismatched.append((y, power, x))
            return value

        return f

    def sides():
        ys = _alpha_ys()
        _head_log.cache_clear()
        _tail_factor.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(specialfns, "_alpha_integrand", checked)
            new = [alpha(y) for y in ys]
        with monkeypatch.context() as m:
            m.setattr(specialfns, "_alpha_integrand", _mpf_integrand)
            old = [alpha(y) for y in ys]
        return new, old

    new, old = _at_working_dps(dps, sides)
    assert not mismatched
    assert len(new) == 36 + 26
    for a, b in zip(new, old):
        assert a.value._mpf_ == b.value._mpf_
        assert a.error_estimate._mpf_ == b.error_estimate._mpf_
        assert (a.evaluations, a.converged) == (b.evaluations, b.converged)


def test_unmet_target_is_not_converged():
    # a jump inside the interval defeats tanh-sinh's one pass
    res = quad_certified(lambda t: mp.mpf(3 * t < 1), [0, 1])
    assert not res.converged
    assert res.error_estimate >= mp.mpf(specialfns.QUAD_TARGET)
    assert quad_certified(mp.exp, [0, 1]).converged
    assert alpha(1).converged and alpha_companion(1).converged
    # at small y the tail is cut at t = 500 with a remainder above the target
    assert not alpha("0.001").converged

