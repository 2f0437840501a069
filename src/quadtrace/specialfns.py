"""Transcendental kernels: erfc, incomplete gamma at 1/2, the two special
functions carrying the harmonic part of the weight-1/2 series, and a small
quadrature wrapper that surfaces mpmath's error estimate.

alpha(y) = sqrt(y) * int_0^infty log(t+1)/sqrt(t) * exp(-pi y t) dt, y > 0.

alpha_companion(t) = log(t) - sqrt(pi) * int_0^t exp(w^2) erfc(w) dw
                     + log(2) + gamma/2,  t > 0,

and the two are linked by  -2 * alpha_companion(sqrt(pi * y)) = alpha(y),
equivalently -2 * alpha_companion(2 m sqrt(pi N v)) = alpha(4 N m^2 v);
the test grid checks this to 1e-8 with both sides computed by independent
quadratures.

The alpha integrand's endpoint singularity t^{-1/2} is removed by t = u^2
on [0, 1]; the tail is truncated where exp(-pi y T) bounds the remainder.
The head factor 2 log(1 + u^2) does not depend on y, so it is computed once
per (node, precision) and reused for every y.

The companion's integrand exp(w^2) erfc(w) is mp.exp(w^2) * mp.erfc(w) below
w = 7.  From there on it comes from the Laplace continued fraction

    sqrt(pi) exp(w^2) erfc(w) = 1/(w + (1/2)/(w + 1/(w + (3/2)/(w + ...)))),

evaluated backward in fixed point; mpmath's erfc would form 1 - erf(w) at
about 1.44 w^2 extra bits there.

quad_certified reports mpmath's heuristic error estimate (the difference of
the last two tanh-sinh degrees), not a rigorous bound; `converged` says
whether that estimate met the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, pi_fixed, round_nearest, sqrt_fixed, to_fixed

from .precision import hp

# below this w, exp(w^2) * erfc(w) is evaluated by mpmath directly
_CF_CROSSOVER = 7


@dataclass
class QuadratureResult:
    value: mpf
    error_estimate: mpf
    evaluations: int
    converged: bool


def erfc(w) -> mpf:
    with hp():
        return +mp.erfc(mp.mpf(w))


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


def _cf_depth(w: float, prec: int) -> int:
    """Depth n at which the Laplace continued fraction is within 2^-(prec+10).

    With B_k = w B_{k-1} + a_k B_{k-2}, a_1 = 1 and a_k = (k-1)/2, consecutive
    approximants bracket the value and differ by d_n = prod a_k / (B_n B_{n+1}).
    The value exceeds 1/(w + 1/(2w)), so the first n with w d_n < 2^-(prec+10)
    bounds the relative error of the n-th approximant.  The ratio
    q = B_{k-1}/B_k and log d_n are carried in floats, so nothing overflows.
    """
    limit = -(prec + 10) * math.log(2) - math.log(w)
    log_d = -math.log(w)
    q = 1.0 / w
    n = 0
    while log_d >= limit:
        n += 1
        q_next = 1.0 / (w + 0.5 * n * q)
        log_d += math.log(0.5 * n * q * q_next)
        q = q_next
    return n


def _scaled_erfc(w) -> mpf:
    """exp(w^2) * erfc(w) at the current precision, for an mpf w > 0."""
    if w < _CF_CROSSOVER:
        return mp.exp(w * w) * mp.erfc(w)
    # backward from the depth, in fixed point at wp bits: t <- w + (k/2)/t,
    # then exp(w^2) erfc(w) = 1/(sqrt(pi) t), as in mpmath's mpf_erfc
    prec = mp.prec
    wp = prec + 30
    x = to_fixed(w._mpf_, wp)
    t = x
    for k in range(_cf_depth(float(w), prec) - 1, 0, -1):
        t = x + (k << (2 * wp - 1)) // t
    scaled = (1 << (3 * wp)) // (t * sqrt_fixed(pi_fixed(wp), wp))
    return mp.make_mpf(from_man_exp(scaled, -wp, prec, round_nearest))


@lru_cache(maxsize=2048)
def _head_log(u, prec: int) -> mpf:
    """2 log(1 + u^2), alpha's y-free head factor, at precision prec."""
    with mp.workprec(prec):
        return 2 * mp.log(1 + u * u)


def quad_certified(f, points, target=mpf("1e-12"), extra_dps=10) -> QuadratureResult:
    """mp.quad with its error estimate surfaced; counts integrand evaluations.

    The estimate is mpmath's heuristic one; `converged` is whether it is
    below target after the refinement pass.
    """
    count = 0

    def wrapped(t):
        nonlocal count
        count += 1
        return f(t)

    with hp(extra=extra_dps):
        val, err = mp.quad(wrapped, points, error=True)
        err = mp.mpf(err)
        if not (err < target):
            # one refinement pass at higher degree before reporting failure
            val, err = mp.quad(wrapped, points, error=True, maxdegree=10)
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
        target = mp.mpf("1e-14")
        # head: t = u^2 on [0, 1] removes the 1/sqrt(t) endpoint singularity
        head = quad_certified(
            lambda u: _head_log(u, mp.prec) * mp.exp(-mp.pi * y * u * u),
            [0, 1],
            target=target,
        )
        # tail: log(1+t)/sqrt(t) <= sqrt(t) <= e^{(pi y /2) t} decay control;
        # truncate at T with remainder <= exp(-pi y T) / (pi y)
        t_cut = mp.mpf(1)
        while mp.exp(-mp.pi * y * t_cut) / (mp.pi * y) > target and t_cut < 500:
            t_cut += 1
        tail = quad_certified(
            lambda t: mp.log(1 + t) / mp.sqrt(t) * mp.exp(-mp.pi * y * t),
            [1, t_cut],
            target=target,
        )
        trunc = mp.exp(-mp.pi * y * t_cut) / (mp.pi * y)
        val = mp.sqrt(y) * (head.value + tail.value)
        err = mp.sqrt(y) * (head.error_estimate + tail.error_estimate + trunc)
        return QuadratureResult(
            value=+val,
            error_estimate=+err,
            evaluations=head.evaluations + tail.evaluations,
            converged=head.converged and tail.converged and trunc < target,
        )


def alpha_companion(t) -> QuadratureResult:
    """The log-plus-erfc-integral companion of alpha, with its error estimate."""
    with hp(extra=10):
        t = mp.mpf(t)
        if t <= 0:
            raise ValueError("requires t > 0")
        res = quad_certified(_scaled_erfc, [0, t], target=mp.mpf("1e-14"))
        val = mp.log(t) - mp.sqrt(mp.pi) * res.value + mp.log(2) + mp.euler / 2
        return QuadratureResult(
            value=+val,
            error_estimate=+(mp.sqrt(mp.pi) * res.error_estimate),
            evaluations=res.evaluations,
            converged=res.converged,
        )
