"""Truncated evaluation of the scalar q-series on the upper half-plane and
the half-integral-weight slash operator for numerical modularity tests.

Series are summed term by term in mpmath with documented geometric tail
bounds; cutoff selection from a target tolerance is provided.  The slash
operator carries the theta multiplier (c/d) eps_d^{2k} with principal
branch powers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mpmath import mp, mpc

from .arith import eps_odd, kronecker
from .classnumbers import hurwitz_forms_table, hurwitz_level_table
from .coefficients import (
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_nonsquare_coeff,
    sesqui4p_square_coeff,
)
from .lvalues import fundamental_decomposition, l_values_at_1
from .parallel import fork_map
from .precision import hp, to_mpf
from .specialfns import alpha, inc_gamma_half, inc_gamma_minus_half


@dataclass
class SeriesEvaluation:
    value: mpc
    tau: mpc
    cutoff: int
    tail_bound: object
    flags: dict = field(default_factory=dict)


def _check_tau(tau):
    tau = mp.mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return tau


def choose_cutoff(v, tol, coeff_scale=2.0, growth=1.0) -> int:
    """Smallest N with coeff_scale * N^growth * e^{-2 pi v N} / (2 pi v) < tol."""
    v, tol = float(v), float(tol)
    n = 16
    while coeff_scale * n**growth * math.exp(-2 * math.pi * v * n) / (
        2 * math.pi * v
    ) > tol and n < 200000:
        n = int(n * 1.3) + 1
    return n


def eval_theta(tau, cutoff: int) -> SeriesEvaluation:
    """theta(tau) = sum_{k in Z} q^{k^2}, truncated at |k| <= cutoff."""
    with hp():
        tau = _check_tau(tau)
        q = mp.e ** (2j * mp.pi * tau)
        total = mp.mpc(1)
        for k in range(1, cutoff + 1):
            total += 2 * q ** (k * k)
        absq = abs(q)
        tail = 2 * absq ** ((cutoff + 1) ** 2) / (1 - absq)
        return SeriesEvaluation(value=+total, tau=tau, cutoff=cutoff, tail_bound=+tail)


def eval_zagier_eisenstein(tau, cutoff: int) -> SeriesEvaluation:
    """The weight-3/2 nonholomorphic Eisenstein series with Hurwitz
    class-number coefficients:

    -1/12 + sum_{n>=1} H(n) q^n + 1/(8 pi sqrt(v))
          + (1/(4 sqrt(pi))) sum_{n>=1} n Gamma(-1/2, 4 pi n^2 v) q^{-n^2}.
    """
    with hp():
        tau = _check_tau(tau)
        v = tau.imag
        q = mp.e ** (2j * mp.pi * tau)
        total = mp.mpc(mp.mpf(-1) / 12)
        hs = hurwitz_forms_table(cutoff)
        for n in range(1, cutoff + 1):
            h = hs[n]
            if h:
                total += to_mpf(h) * q**n
        total += 1 / (8 * mp.pi * mp.sqrt(v))
        nmax = max(1, math.isqrt(cutoff))
        for n in range(1, nmax + 1):
            total += (
                mp.mpf(1)
                / (4 * mp.sqrt(mp.pi))
                * n
                * inc_gamma_minus_half(4 * mp.pi * n * n * v)
                * q ** (-n * n)
            )
        absq = abs(q)
        # H(n) <= n; the nonholomorphic tail decays like e^{-2 pi n^2 v}
        tail = (
            2 * (cutoff + 1) * absq ** (cutoff + 1) / (1 - absq)
            + (nmax + 1) * mp.exp(-2 * mp.pi * (nmax + 1) ** 2 * v)
        )
        return SeriesEvaluation(value=+total, tau=tau, cutoff=cutoff, tail_bound=+tail)


def eval_cohen_eisenstein(ell: int, big_n: int, tau, cutoff: int) -> SeriesEvaluation:
    """sum_{n >= 0} H_{ell,N}(n) q^n, truncated."""
    with hp():
        tau = _check_tau(tau)
        q = mp.e ** (2j * mp.pi * tau)
        hs = hurwitz_level_table(cutoff, [(ell, big_n)])[ell, big_n]
        total = mp.mpc(to_mpf(hs[0]))
        for n in range(1, cutoff + 1):
            h = hs[n]
            if h:
                total += to_mpf(h) * q**n
        absq = abs(q)
        tail = 2 * (cutoff + 1) * absq ** (cutoff + 1) / (1 - absq)
        return SeriesEvaluation(value=+total, tau=tau, cutoff=cutoff, tail_bound=+tail)


def eval_sesqui_4p(p: int, tau, cutoff: int) -> SeriesEvaluation:
    """The level-4p sesquiharmonic series, truncated.

    (2/3) v^{1/2} - log(16 v)/(2 pi (p+1))
      + (1/(pi(p+1))) sum_{m>=1} (gamma + log(pi m^2) + alpha(4 m^2 v)) q^{m^2}
      + (2/3)(1-i) pi sum_{n >= 0, disc} c(n) q^n
      + (2/3)(1-i) sqrt(pi) sum_{n < 0, disc} c(n) Gamma(1/2, 4 pi |n| v) q^n.
    """
    with hp():
        tau = _check_tau(tau)
        v = tau.imag
        q = mp.e ** (2j * mp.pi * tau)
        pref = (mp.mpf(2) / 3) * (1 - 1j)
        total = mp.mpc(2 * mp.sqrt(v) / 3 - mp.log(16 * v) / (2 * mp.pi * (p + 1)))
        total += pref * mp.pi * sesqui4p_const_coeff(p)
        sqmax = max(1, math.isqrt(cutoff))
        nonsquare = [n for n in range(1, cutoff + 1) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n]
        # the independent high-precision units first, each batch over the usable cores
        l_values_at_1([fundamental_decomposition(n).t for n in nonsquare])
        ys = [4 * m * m * v for m in range(1, sqmax + 1)]
        alphas = fork_map(alpha, ys)
        for m in range(1, sqmax + 1):
            total += (
                (mp.euler + mp.log(mp.pi * m * m) + alphas[m - 1].value)
                / (mp.pi * (p + 1))
                * q ** (m * m)
            )
            total += pref * mp.pi * sesqui4p_square_coeff(p, m) * q ** (m * m)
        for n in nonsquare:
            total += pref * mp.pi * sesqui4p_nonsquare_coeff(p, n) * q**n
        for n in range(1, cutoff + 1):
            if (-n) % 4 not in (0, 1):
                continue
            total += (
                pref
                * mp.sqrt(mp.pi)
                * sesqui4p_neg_coeff(p, -n)
                * inc_gamma_half(4 * mp.pi * n * v)
                * q ** (-n)
            )
        absq = abs(q)
        tail = 6 * (cutoff + 1) * absq ** (cutoff + 1) / (1 - absq)
        return SeriesEvaluation(value=+total, tau=tau, cutoff=cutoff, tail_bound=+tail)


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


def modularity_residual(series_fn, gamma, k, tau, cutoff=None, tol=mp.mpf("1e-8")):
    """| (f |_k gamma)(tau) - f(tau) | with per-point cutoff selection.

    series_fn(tau, cutoff) -> SeriesEvaluation.  The cutoff at the
    transformed point is chosen from its (smaller) height.
    """
    with hp():
        tau = mp.mpc(tau)
        gtau = apply_moebius(gamma, tau)
        cut_here = cutoff or choose_cutoff(tau.imag, tol)
        cut_there = cutoff or choose_cutoff(gtau.imag, tol)
        f_here = series_fn(tau, cut_here)
        f_there = series_fn(gtau, cut_there)
        slashed = slash_half(f_there.value, gamma, k, tau)
        return +abs(slashed - f_here.value)
