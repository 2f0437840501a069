"""Truncated evaluation of the scalar q-series on the upper half-plane and
the half-integral-weight slash operator for numerical modularity tests.

Each series is evaluated at a list of (tau, cutoff) points, as a
modularity residual asks for tau and its image in one call, and returns
one value per point, summed term by term in mpmath; the cutoff of a point
is chosen from its height and a target tolerance.  The level-4p series forms
the terms of all its points in one parallel term map and adds each point's
terms in the series' own order, so its sums are those of a serial pass.
The slash operator carries the theta multiplier (c/d) eps_d^{2k} with
principal branch powers throughout.
"""

from __future__ import annotations

import math

from mpmath import mp

from .arith import eps_odd, kronecker
from .classnumbers import hurwitz_forms_table, hurwitz_level_table
from .coefficients import (
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_square_coeff,
)
from .kloosterman import plus_zeta_special_value
from .parallel import fork_map
from .precision import hp, to_mpf
from .specialfns import alpha, inc_gamma_half, inc_gamma_minus_half


def _nome(tau):
    """q = e^{2 pi i tau} for tau in the upper half-plane."""
    tau = mp.mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return mp.e ** (2j * mp.pi * tau)


MAX_CUTOFF = 200000


def choose_cutoff(v, tol) -> int:
    """The first N of 16, 21, 28, ... (N -> floor(1.3 N) + 1) with tail
    estimate 2 N e^{-2 pi v N} / (2 pi v) <= tol, for coefficients that grow
    at most linearly.

    Raises ValueError, naming v and tol, when the estimate still exceeds tol
    once N has reached MAX_CUTOFF.
    """
    v, tol = float(v), float(tol)
    n = 16
    while 2.0 * n * math.exp(-2 * math.pi * v * n) / (2 * math.pi * v) > tol:
        if n >= MAX_CUTOFF:
            raise ValueError(
                f"no cutoff up to {MAX_CUTOFF} meets tol = {tol:g} at height v = {v:g}"
            )
        n = int(n * 1.3) + 1
    return n


def _table_sum(hs, q, cutoff):
    """sum_{0 <= n <= cutoff} hs[n] q^n over an exact class-number table hs."""
    total = mp.mpc(to_mpf(hs[0]))
    for n in range(1, cutoff + 1):
        h = hs[n]
        if h:
            total += to_mpf(h) * q**n
    return total


def eval_theta(points) -> list:
    """theta(tau) = sum_{k in Z} q^{k^2}, truncated at |k| <= cutoff, at each
    (tau, cutoff) of points."""
    with hp():
        out = []
        for tau, cutoff in points:
            q = _nome(tau)
            total = mp.mpc(1)
            for k in range(1, cutoff + 1):
                total += 2 * q ** (k * k)
            out.append(+total)
        return out


def eval_zagier_eisenstein(points) -> list:
    """The weight-3/2 nonholomorphic Eisenstein series with Hurwitz
    class-number coefficients, at each (tau, cutoff) of points:

    -1/12 + sum_{n>=1} H(n) q^n + 1/(8 pi sqrt(v))
          + (1/(4 sqrt(pi))) sum_{n>=1} n Gamma(-1/2, 4 pi n^2 v) q^{-n^2}.
    """
    with hp():
        hs = hurwitz_forms_table(max(cutoff for _, cutoff in points))
        out = []
        for tau, cutoff in points:
            q = _nome(tau)
            v = mp.im(tau)
            total = _table_sum(hs, q, cutoff)
            total += 1 / (8 * mp.pi * mp.sqrt(v))
            for n in range(1, max(1, math.isqrt(cutoff)) + 1):
                total += (
                    mp.mpf(1)
                    / (4 * mp.sqrt(mp.pi))
                    * n
                    * inc_gamma_minus_half(4 * mp.pi * n * n * v)
                    * q ** (-n * n)
                )
            out.append(+total)
        return out


def eval_cohen_eisenstein(ell: int, big_n: int, points) -> list:
    """sum_{n >= 0} H_{ell,N}(n) q^n, truncated, at each (tau, cutoff) of
    points; one table of H_{ell,N} serves every point."""
    with hp():
        table = hurwitz_level_table(max(cutoff for _, cutoff in points), [(ell, big_n)])
        hs = table[ell, big_n]
        return [+_table_sum(hs, _nome(tau), cutoff) for tau, cutoff in points]


def eval_sesqui_4p(p: int, points) -> list:
    """The level-4p sesquiharmonic series, truncated, at each (tau, cutoff)
    of points:

    (2/3) v^{1/2} - log(16 v)/(2 pi (p+1))
      + (1/(pi(p+1))) sum_{m>=1} (gamma + log(pi m^2) + alpha(4 m^2 v)) q^{m^2}
      + (2/3)(1-i) pi sum_{n >= 0, disc} c(n) q^n
      + (2/3)(1-i) sqrt(pi) sum_{n < 0, disc} c(n) Gamma(1/2, 4 pi |n| v) q^n.

    Every term of every point is one job of a single map over the usable
    cores, which returns it as one value: the two square terms at m (the
    alpha quadrature and c(m^2)) over their one q^{m^2}, each nonsquare
    c(n) q^n and each negative-index term.  The jobs are listed point by
    point in the order of the formula above, and their values are added
    here to their point's total in that order, so the sums do not depend on
    the split.
    The nonsquare c(n) take L(1, chi_t) from h(t) log eps_t
    (kloosterman.plus_zeta_special_value), so the series forms no L(1)
    sine sum.
    """
    with hp():
        qs = [_nome(tau) for tau, _ in points]
        pref = (mp.mpf(2) / 3) * (1 - 1j)

        def term(job):
            kind, i, n = job
            v, q = mp.im(points[i][0]), qs[i]
            if kind == "square":
                return (
                    (mp.euler + mp.log(mp.pi * n * n) + alpha(4 * n * n * v).value)
                    / (mp.pi * (p + 1))
                    + pref * mp.pi * sesqui4p_square_coeff(p, n)
                ) * q ** (n * n)
            if kind == "nonsquare":
                return pref * mp.pi * plus_zeta_special_value(p, n) * q**n
            return (
                pref
                * mp.sqrt(mp.pi)
                * sesqui4p_neg_coeff(p, -n)
                * inc_gamma_half(4 * mp.pi * n * v)
                * q ** (-n)
            )

        jobs = [
            (kind, i, n)
            for i, (_, cutoff) in enumerate(points)
            for kind, index in _sesqui_4p_indices(cutoff).items()
            for n in index
        ]
        totals = []
        for tau, _ in points:
            v = mp.im(tau)
            total = mp.mpc(2 * mp.sqrt(v) / 3 - mp.log(16 * v) / (2 * mp.pi * (p + 1)))
            totals.append(total + pref * mp.pi * sesqui4p_const_coeff(p))
        for (_, i, _), value in zip(jobs, fork_map(term, jobs)):
            totals[i] += value
        return [+total for total in totals]


def _sesqui_4p_indices(cutoff: int) -> dict:
    """The m of the square terms and the n > 0 of the nonsquare and of the
    negative-index terms n -> -n that the level-4p series sums to cutoff,
    in the order the series adds them."""
    return {
        "square": range(1, max(1, math.isqrt(cutoff)) + 1),
        "nonsquare": [
            n for n in range(1, cutoff + 1) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n
        ],
        "negative": [n for n in range(1, cutoff + 1) if (-n) % 4 in (0, 1)],
    }


# ---------------------------------------------------------------------------
# slash operator


def theta_multiplier(gamma, two_k: int):
    """(c/d) eps_d^{2k} for gamma = (a, b, c, d), c = 0 mod 4, d odd."""
    _, _, c, d = gamma
    if c % 4:
        raise ValueError("gamma must have c = 0 mod 4")
    if d % 2 == 0:
        raise ValueError("gamma must have odd d")
    return kronecker(c, d) * mp.mpc(eps_odd(d)) ** two_k


def slash_half(f_at_gamma_tau, gamma, k, tau):
    """((c/d) eps_d^{2k}) (c tau + d)^{-k} f(gamma tau), principal branch."""
    with hp():
        tau = mp.mpc(tau)
        a, b, c, d = gamma
        two_k = int(2 * mp.mpf(k))
        mult = theta_multiplier(gamma, two_k)
        return +(mult * mp.power(c * tau + d, -mp.mpf(k)) * mp.mpc(f_at_gamma_tau))


def apply_moebius(gamma, tau):
    a, b, c, d = gamma
    tau = mp.mpc(tau)
    return (a * tau + b) / (c * tau + d)


def modularity_residual(series_fn, gamma, k, tau, tol):
    """| (f |_k gamma)(tau) - f(tau) | with per-point cutoff selection.

    series_fn(points) -> one value per (tau, cutoff) of points,
    called once with tau and its image.  The cutoff at each point is chosen
    from its height and tol (choose_cutoff), so the transformed point,
    usually the lower one, gets the longer series.
    """
    with hp():
        tau = mp.mpc(tau)
        gtau = apply_moebius(gamma, tau)
        f_here, f_there = series_fn(
            [(tau, choose_cutoff(tau.imag, tol)), (gtau, choose_cutoff(gtau.imag, tol))]
        )
        slashed = slash_half(f_there, gamma, k, tau)
        return +abs(slashed - f_here)
