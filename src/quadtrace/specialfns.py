"""Transcendental kernels: incomplete gamma at 1/2, the two special
functions carrying the harmonic part of the weight-1/2 series, and a small
quadrature wrapper that surfaces mpmath's error estimate.

alpha(y) = sqrt(y) * int_0^infty log(t+1)/sqrt(t) * exp(-pi y t) dt, y > 0.

alpha_companion(t) = log(t) - sqrt(pi) * int_0^t exp(w^2) erfc(w) dw
                     + log(2) + gamma/2,  t > 0,

and the two are linked by  -2 * alpha_companion(sqrt(pi * y)) = alpha(y),
equivalently -2 * alpha_companion(2 m sqrt(pi N v)) = alpha(4 N m^2 v);
the test grid checks this to 1e-8 with both sides computed by independent
quadratures.

With t = u^2, alpha(y) = sqrt(y) * int_0^sqrt(T) 2 log(1 + u^2) exp(-pi y u^2) du,
one quadrature over [0, 1, sqrt(T)] free of the endpoint singularity
t^{-1/2}; T is where exp(-pi y T) bounds the remainder.  The factor
2 log(1 + u^2) does not depend on y, so it is computed once per (node,
precision), the 4096 most recently used kept: every alpha shares the nodes
of [0, 1], which is why the range is split there, and alphas with the same
T share those of [1, sqrt(T)].  The integrand runs on raw libmp numbers,
with c = (-pi) y formed once per precision, in the same libmp calls, at the
same precision and rounding and in the same order, as the mpf expression
2 log(1 + u^2) exp(-pi y u u), so each value is bit-equal to it.

The companion's integrand erfcx(w) = exp(w^2) erfc(w) solves
y' = 2 w y - 2/sqrt(pi) (DLMF 7.10), so its Taylor coefficients at an anchor
w0 follow from a_0 = erfcx(w0) alone:

    a_1 = 2 w0 a_0 - 2/sqrt(pi),   (k+1) a_{k+1} = 2 w0 a_k + 2 a_{k-1}.

Each node is one fixed-point Horner pass of the expansion at the nearest
anchor w0 = j/4, so |h| = |w - w0| <= 1/8.  An error d in a_0, or a
rounding in the recurrence, is carried like the growing solution exp(w^2)
and reaches the sum as at most d exp(2 w0 |h| + h^2) <= d exp(w0/4 + 1/64).
Each anchor therefore carries ceil(w0 / (4 log 2)) + 30 guard bits, which
keeps the sum within about 2^-17 ulp of erfcx(w) before its one rounding to
the precision.  An anchor is built once per (j, precision), and the 512
most recently used are kept, so no table made at one precision serves
another; at the quadrature's 302 bits the anchors of verify special
(w0 <= 33.75) hold about 52 coefficients each, 470 KB in all.

a_0 is mp.exp(w0^2) * mp.erfc(w0) at the anchor's bits, where w0^2 is
exact.  From about w0 = 7 on, mpmath's erfc forms 1 - erf(w0) at about
1.44 w0^2 extra bits, a cost paid once per anchor, not once per node: the
136 anchors of verify special take about 0.06 s at 302 bits on one x86-64
core.

quad_certified runs at its caller's precision and reports mpmath's heuristic
error estimate (the difference of the last two tanh-sinh degrees, summed
over the subintervals), not a rigorous bound; `converged` says whether that
estimate met the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_man_exp,
    mpf_add,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    pi_fixed,
    round_nearest,
    sqrt_fixed,
    to_fixed,
)

from .precision import hp

# bits above the working precision that every anchor carries, besides the
# w0 / (4 log 2) bits the growing solution may amplify an error by
_ANCHOR_GUARD = 30
# the error estimate a quadrature must meet to count as converged, and the
# remainder at which alpha cuts its range (read as an mpf at its precision)
QUAD_TARGET = "1e-14"


@dataclass
class QuadratureResult:
    value: mpf
    error_estimate: mpf
    evaluations: int
    converged: bool


def inc_gamma_half(x) -> mpf:
    """Upper incomplete gamma Gamma(1/2, x) = sqrt(pi) * erfc(sqrt(x)), x > 0."""
    with hp():
        x = mp.mpf(x)
        if x <= 0:
            raise ValueError("requires x > 0")
        return +(mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(x)))


def inc_gamma_minus_half(x) -> mpf:
    """Gamma(-1/2, x) via the recurrence with Gamma(1/2, x)."""
    with hp():
        x = mp.mpf(x)
        if x <= 0:
            raise ValueError("requires x > 0")
        return +(2 * (mp.exp(-x) / mp.sqrt(x) - inc_gamma_half(x)))


@lru_cache(maxsize=512)
def _erfcx_anchor(j: int, prec: int) -> tuple[int, list[int]]:
    """(wp, [a_0, a_1, ...]): the Taylor coefficients of erfcx at w0 = j/4 as
    integers scaled by 2^wp, enough of them for |h| <= 1/8 at prec bits.

    The recurrence amplifies an error in a coefficient by at most
    exp(w0/4 + 1/64) at |h| <= 1/8, the growth of the exp(w^2) solution, so
    wp carries w0 / (4 log 2) bits for it on top of _ANCHOR_GUARD; a_0 is
    evaluated at wp too.
    """
    wp = prec + math.ceil(j / (16 * math.log(2))) + _ANCHOR_GUARD
    with mp.workprec(wp):
        w0 = mp.mpf(j) / 4
        a0 = to_fixed((mp.exp(w0 * w0) * mp.erfc(w0))._mpf_, wp)
    two_over_sqrt_pi = (1 << (2 * wp + 1)) // sqrt_fixed(pi_fixed(wp), wp)
    coeffs = [a0, (j * a0 >> 1) - two_over_sqrt_pi]
    # (k+1) a_{k+1} = 2 w0 a_k + 2 a_{k-1}; stop once two consecutive terms
    # a_k / 8^k are below 2^-wp and (k+1) >= w0/2, past which each term is at
    # most half the larger of the two before it, so the tail is below 2^(1-wp)
    k = 1
    while 8 * k < j or abs(coeffs[k]) >> (3 * k) or abs(coeffs[k - 1]) >> (3 * k - 3):
        coeffs.append((j * coeffs[k] + 4 * coeffs[k - 1]) // (2 * k + 2))
        k += 1
    return wp, coeffs


def _scaled_erfc(w) -> mpf:
    """exp(w^2) * erfc(w) at the current precision, for an mpf w >= 0: one
    Horner pass of the Taylor expansion at the nearest anchor."""
    prec = mp.prec
    j = int(4 * float(w) + 0.5)
    wp, coeffs = _erfcx_anchor(j, prec)
    h = to_fixed(w._mpf_, wp) - (j << (wp - 2))
    s = 0
    for a in reversed(coeffs):
        s = a + (s * h >> wp)
    return mp.make_mpf(from_man_exp(s, -wp, prec, round_nearest))


@lru_cache(maxsize=4096)
def _log_factor(u: tuple, prec: int) -> tuple:
    """2 log(1 + u^2), alpha's y-free factor, for a raw mpf u at prec bits."""
    rnd = round_nearest
    square = mpf_add(mpf_mul(u, u, prec, rnd), fone, prec, rnd)
    return mpf_mul_int(mpf_log(square, prec, rnd), 2, prec, rnd)


def _alpha_integrand(y):
    """u -> 2 log(1 + u^2) exp(-pi y u^2) on raw libmp at the quadrature's precision.

    The same libmp calls, at the same precision and rounding and in the same
    order, that the mpf expression
    2 * mp.log(1 + u * u) * mp.exp(-mp.pi * y * u * u) makes, so every value
    is bit-equal to it; c = (-pi) y is formed once per precision.
    """
    rnd = round_nearest
    y = y._mpf_
    consts = {}

    def f(u):
        prec = mp.prec
        c = consts.get(prec)
        if c is None:
            c = consts[prec] = mpf_mul(mpf_neg(mpf_pi(prec, rnd), prec, rnd), y, prec, rnd)
        u = u._mpf_
        arg = mpf_mul(mpf_mul(c, u, prec, rnd), u, prec, rnd)
        return mp.make_mpf(mpf_mul(_log_factor(u, prec), mpf_exp(arg, prec, rnd), prec, rnd))

    return f


def quad_certified(f, points) -> QuadratureResult:
    """mp.quad at the caller's precision, with its error estimate surfaced;
    counts integrand evaluations.

    The estimate is mpmath's heuristic one, summed over the subintervals of
    points; `converged` is whether the one pass met QUAD_TARGET.
    """
    count = 0

    def wrapped(t):
        nonlocal count
        count += 1
        return f(t)

    target = mp.mpf(QUAD_TARGET)
    val, err = mp.quad(wrapped, points, error=True)
    err = mp.mpf(err)
    return QuadratureResult(
        value=+val, error_estimate=+err, evaluations=count, converged=bool(err < target)
    )


def alpha(y) -> QuadratureResult:
    """The decaying special function alpha(y), y > 0, with its error estimate."""
    with hp(extra=10):
        y = mp.mpf(y)
        if y <= 0:
            raise ValueError("requires y > 0")
        target = mp.mpf(QUAD_TARGET)
        # log(1+t)/sqrt(t) <= sqrt(t) <= e^{(pi y /2) t} decay control;
        # truncate at T with remainder <= exp(-pi y T) / (pi y); the cap
        # T < 500 is the only bound on this search as y -> 0, where the
        # remainder falls ever slower (alpha("0.001") would step ~12,000 times)
        t_cut = mp.mpf(1)
        while mp.exp(-mp.pi * y * t_cut) / (mp.pi * y) > target and t_cut < 500:
            t_cut += 1
        res = quad_certified(_alpha_integrand(y), [0, 1, mp.sqrt(t_cut)])
        trunc = mp.exp(-mp.pi * y * t_cut) / (mp.pi * y)
        return QuadratureResult(
            value=+(mp.sqrt(y) * res.value),
            error_estimate=+(mp.sqrt(y) * (res.error_estimate + trunc)),
            evaluations=res.evaluations,
            converged=res.converged and trunc < target,
        )


def alpha_companion(t) -> QuadratureResult:
    """The log-plus-erfc-integral companion of alpha, with its error estimate."""
    with hp(extra=10):
        t = mp.mpf(t)
        if t <= 0:
            raise ValueError("requires t > 0")
        res = quad_certified(_scaled_erfc, [0, t])
        val = mp.log(t) - mp.sqrt(mp.pi) * res.value + mp.log(2) + mp.euler / 2
        return QuadratureResult(
            value=+val,
            error_estimate=+(mp.sqrt(mp.pi) * res.error_estimate),
            evaluations=res.evaluations,
            converged=res.converged,
        )
