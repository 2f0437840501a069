"""Test-only oracles: the literal or slow forms of what src/ computes another
way, which no check of the package runs.  plus_term is the Kloosterman sum
modulo 4Nc at working precision, local_sum_2, local_sum_p and
kzeta_coprime_closed are closed forms, and gamma0_equivalent decides
Gamma_0(p)-equivalence of two forms by SL2(Z)-reduction, so that the tests
can build the orbits that quadforms only counts.  Both reductions live here,
Gauss's of a definite form and the rho steps of an indefinite one, each with
its transform: quadforms only enumerates reduced forms and walks their
cycles, and never reduces an arbitrary form.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from quadtrace.arith import eps_odd, factorize, kronecker
from quadtrace.lvalues import is_fundamental_discriminant, real_zeta
from quadtrace.precision import hp
from quadtrace.quadforms import (
    IDENTITY,
    S_MAT,
    Mat,
    PellUnit,
    QuadForm,
    _automorph_matrix,
    _is_reduced_indefinite,
    _rho_step,
    automorph_generator,
    mat_mul,
    order_unit_pm,
)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def zeta(s) -> mpf:
    """Riemann zeta at working precision; rejects the pole at s = 1."""
    with hp():
        s = mp.mpf(s)
        if s == 1:
            raise ValueError("zeta has a pole at s = 1")
        return +real_zeta(s)


def zeta_star(s) -> mpf:
    """Completed zeta Gamma(s/2) zeta(s) / pi^{s/2}; poles at s = 0, 1 rejected."""
    with hp():
        s = mp.mpf(s)
        if s in (0, 1):
            raise ValueError("zeta_star has poles at s = 0 and s = 1")
        return +(mp.gamma(s / 2) * real_zeta(s) / mp.power(mp.pi, s / 2))


def erfc(w) -> mpf:
    with hp():
        return +mp.erfc(mp.mpf(w))


def plus_term(big_n: int, n: int, c: int, two_k: int = 1):
    """(1 + (4/c)) * sum_{r mod 4Nc} (4Nc/r) eps_r^{2k} e(n r / 4Nc).

    two_k = 2k is the numerator of the half-integral weight (1 for k = 1/2).
    Exact-precision evaluation for small moduli.
    """
    w = 1 + kronecker(4, c)
    if w == 0:
        return mp.mpc(0)
    m_mod = 4 * big_n * c
    with hp():
        total = mp.mpc(0)
        for r in range(1, m_mod, 2):
            if math.gcd(r, m_mod) != 1:
                continue
            kr = kronecker(m_mod, r)
            if kr == 0:
                continue
            total += kr * mp.mpc(eps_odd(r)) ** two_k * mp.e ** (
                2j * mp.pi * n * r / m_mod
            )
        return +(w * total)


def local_sum_2(j: int, n: int = 0) -> complex:
    """Closed-form a(2^j, 0): 1 at j = 1, (1+i) 2^{j-2} at even j, 0 at odd j >= 3.

    Only the n = 0 case has a per-j closed form; other indices are served by
    local_sum_2_exp.
    """
    if n != 0:
        raise ValueError("closed form only available at index 0")
    if j < 1:
        raise ValueError("j >= 1 required")
    if j == 1:
        return 1
    if j % 2 == 0:
        return (1 + 1j) * 2 ** (j - 2)
    return 0


def local_sum_p(p: int, j: int, n: int = 0) -> complex:
    """Closed-form a(p^j, 0): phi(p^j) at even j >= 2, 0 at odd j."""
    if n != 0:
        raise ValueError("closed form only available at index 0")
    if j < 1:
        raise ValueError("j >= 1 required")
    return 0 if j % 2 else euler_phi(p**j)


def kzeta_coprime_closed(p: int, s):
    """Modified zeta over moduli coprime to p: zeta(2s-1)/zeta(2s) * (p^{2s}-p)/(p^{2s}-1)."""
    with hp():
        s = mp.mpf(s)
        if s <= 1:
            raise ValueError("requires Re(s) > 1")
        x = mp.power(p, 2 * s)
        return +(real_zeta(2 * s - 1) / real_zeta(2 * s) * (x - p) / (x - 1))


def mat_inv(g: Mat) -> Mat:
    a, b, c, d = g
    if a * d - b * c != 1:
        raise ValueError("not in SL2(Z)")
    return (d, -b, -c, a)


def _reduce_definite_transform(q: QuadForm) -> tuple[QuadForm, Mat]:
    """Gauss reduction of a positive-definite form, returning (R, g), Q.g = R."""
    if q.disc >= 0 or q.a <= 0:
        raise ValueError("reduce_definite needs D < 0 and a > 0")
    g = IDENTITY
    while True:
        a, b, c = q.a, q.b, q.c
        if b > a or b <= -a:
            r = (a - b) // (2 * a)  # floor division; shifts b into (-a, a]
            t: Mat = (1, r, 0, 1)
            q, g = q.apply(t), mat_mul(g, t)
            continue
        if a > c:
            q, g = q.apply(S_MAT), mat_mul(g, S_MAT)
            continue
        if b < 0 and (a == c or b == -a):
            # boundary normalization b -> -b
            if a == c:
                q, g = q.apply(S_MAT), mat_mul(g, S_MAT)
            else:
                t = (1, 1, 0, 1)
                q, g = q.apply(t), mat_mul(g, t)
            continue
        return q, g


def _reduce_indefinite_transform(q: QuadForm) -> tuple[QuadForm, Mat]:
    """Reduction of an indefinite form by rho steps, returning (R, g), Q.g = R."""
    d = q.disc
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("needs a positive nonsquare discriminant")
    g = IDENTITY
    while not _is_reduced_indefinite(q, d):
        q, step = _rho_step(q, d)
        g = mat_mul(g, step)
    return q, g


def reduce_definite(q: QuadForm) -> QuadForm:
    """Reduced SL2(Z)-representative of a positive-definite form."""
    return _reduce_definite_transform(q)[0]


def fundamental_unit(t: int) -> PellUnit:
    """Fundamental unit of the real quadratic field of discriminant t."""
    if t <= 1 or not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant > 1")
    return order_unit_pm(t)


def neg(q: QuadForm) -> QuadForm:
    """-q, which swaps positive- and negative-definite forms."""
    return QuadForm(-q.a, -q.b, -q.c)


def _definite_units(d0: int) -> list[tuple[int, int]]:
    """The (t, u) with t^2 - d0 u^2 = 4 for a discriminant d0 < 0: 6 at -3,
    4 at -4, else 2."""
    sols = [(2, 0), (-2, 0)]
    if d0 == -4:
        sols += [(0, 1), (0, -1)]
    if d0 == -3:
        sols += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    return sols


def automorphs_definite(q: QuadForm) -> list[Mat]:
    """All SL2(Z)-automorphs of a definite form (2, 4, or 6 of them)."""
    q0 = q.primitive_part()
    return [_automorph_matrix(q0, t, u) for t, u in _definite_units(q0.disc)]


def _sl2_transform(q1: QuadForm, q2: QuadForm) -> Mat | None:
    """Some g with q1.g = q2, or None if the forms are not SL2(Z)-equivalent."""
    d = q1.disc
    if d != q2.disc:
        return None
    if d < 0:
        if (q1.a > 0) != (q2.a > 0):
            return None
        if q1.a < 0:
            q1, q2 = neg(q1), neg(q2)
        r1, g1 = _reduce_definite_transform(q1)
        r2, g2 = _reduce_definite_transform(q2)
        if r1 != r2:
            return None
        return mat_mul(g1, mat_inv(g2))
    r1, g1 = _reduce_indefinite_transform(q1)
    r2, g2 = _reduce_indefinite_transform(q2)
    if r1 == r2:
        walk: Mat | None = IDENTITY
    else:
        walk = None
        q, acc = _rho_step(r1, d)
        while q != r1:
            if q == r2:
                walk = acc
                break
            q, step = _rho_step(q, d)
            acc = mat_mul(acc, step)
    if walk is None:
        return None  # r2 is not on the cycle of r1
    return mat_mul(mat_mul(g1, walk), mat_inv(g2))


def _order_mod_p(m: Mat, p: int) -> int:
    """Order of m in PSL2(F_p) (iteration capped defensively)."""
    x = tuple(v % p for v in m)
    ident = (1, 0, 0, 1)
    neg_ident = ((-1) % p, 0, 0, (-1) % p)
    k = 1
    while x != ident and x != neg_ident:
        x = tuple(v % p for v in mat_mul(x, m))  # type: ignore[assignment]
        k += 1
        if k > 4 * p * (p + 1):
            raise AssertionError("runaway order computation")
    return k


def gamma0_equivalent(p: int, q1: QuadForm, q2: QuadForm) -> bool:
    """Whether some gamma in Gamma_0(p) carries q1 to q2.

    Finds one SL2(Z)-transform g0 and then decides membership of A^k g0 in
    Gamma_0(p) over one period of the automorph group A of q1 mod p.
    """
    if q1.disc != q2.disc:
        raise ValueError("mismatched discriminants")
    if q1.a % p or q2.a % p:
        raise ValueError("both forms must have p | a")
    if q1 == q2:
        return True
    g0 = _sl2_transform(q1, q2)
    if g0 is None:
        return False
    d = q1.disc
    if d < 0:
        return any(mat_mul(a, g0)[2] % p == 0 for a in automorphs_definite(q1))
    m = automorph_generator(q1)
    order = _order_mod_p(m, p)
    x: Mat = (1, 0, 0, 1)
    for _ in range(order):
        if mat_mul(x, g0)[2] % p == 0:
            return True
        x = tuple(v % p for v in mat_mul(x, m))  # type: ignore[assignment]
    return False
