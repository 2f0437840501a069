"""Integral binary quadratic forms.

Forms Q = (a, b, c) represent a x^2 + b x y + c y^2 and carry the right
SL2(Z)-action (Q.g)(x, y) = Q(alpha x + beta y, gamma x + delta y).  The
module provides class representatives and class numbers for arbitrary
discriminants, automorph units from rho-cycles rather than brute-force Pell
searches, Gamma_0(p)-orbit counts, and the numerical closed-geodesic
integral that `verify geodesic` checks.  It enumerates reduced forms and
walks the cycles of the indefinite ones, but never reduces an arbitrary
form of either sign: only the tests' oracle does.

Gamma_0(p)-orbits are counted, never built.  The cosets g Gamma_0(p) of
SL2(Z) are the points of P^1(F_p), through the first column of g, and SL2(Z)
acts on them from the left.  For a class representative r, the form r.g has
p | a iff r vanishes mod p at the point of g, and r.g1, r.g2 are
Gamma_0(p)-equivalent iff some automorph of r carries the point of g2 to the
point of g1 (gamma = g1^-1 A g2 lies in Gamma_0(p) exactly then).  So the
orbits of one class are the Aut(r)-orbits on the zeros of r on P^1(F_p),
p + 1 of them when p divides the content of r and 1 + (n/p) otherwise
(p1_zero_count), and both traces need only that number:

  * n < 0: Aut(r) has 2, 4 or 6 elements, and an orbit of k zeros has
    projective stabilizer order |Aut(r)| / (2k), so the orbits of r weigh
    2 #{zeros} / |Aut(r)| together (weighted_orbit_count);
  * n > 0: Aut(r) is +-<M>, M = automorph_generator(r), and the
    stabilizer index kappa of an orbit is the least k with M^k fixing one of
    its zeros, which is the orbit's length, so the kappas of r sum to
    #{zeros}.

The tests keep the independent oracle: tests/oracles.gamma0_equivalent
decides the same relation for two arbitrary forms through SL2(Z)-reduction,
and the tests group forms with it to build the orbits this module only
counts.

Class numbers, automorph units and the primitive class representatives are
cached per discriminant, the 1024 most recently used of each; order_unit_pm
is one isqrt on the cached automorph unit and keeps no cache.  The
primitive representatives are the reduced forms (d < 0, enumerated
directly) or the least form of each cycle of reduced forms (d > 0).  The
class representatives of content f of discriminant d are f times the
primitive ones of d/f^2, as reduction and the rho-cycles commute with that
scaling, so class_reps (every content) and class_number read the same
enumeration for both signs, and automorph_unit walks the cycle of the
least representative once more.

Conventions pinned by the seed-identity runs (see README):
  * for n < 0 the set of forms with p | a carries both definiteness signs
    (tests/test_traces.py re-runs the seed cases that fix it);
  * stabilizer orders are taken in the projective group, so weights are
    1/2 and 1/3 at discriminants -4 f^2 and -3 f^2 when the extra
    automorphs land in Gamma_0(p);
  * class numbers of positive discriminants are wide: the cycle count is
    halved unless x^2 - D y^2 = -4 is solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .arith import kronecker
from .precision import hp

Mat = tuple[int, int, int, int]  # (alpha, beta, gamma, delta), row-major

IDENTITY: Mat = (1, 0, 0, 1)
S_MAT: Mat = (0, -1, 1, 0)


def mat_mul(g: Mat, h: Mat) -> Mat:
    a, b, c, d = g
    e, f, x, y = h
    return (a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y)


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def apply(self, g: Mat) -> "QuadForm":
        """Right action: (Q.g)(v) = Q(g v)."""
        al, be, ga, de = g
        a2 = self.value(al, ga)
        c2 = self.value(be, de)
        b2 = 2 * (self.a * al * be + self.c * ga * de) + self.b * (al * de + be * ga)
        return QuadForm(a2, b2, c2)

    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)

    def primitive_part(self) -> "QuadForm":
        f = self.content()
        return QuadForm(self.a // f, self.b // f, self.c // f)

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __repr__(self):
        return f"[{self.a},{self.b},{self.c}]"


@dataclass
class PellUnit:
    """(t + u sqrt(D)) / 2 with t, u > 0 minimal; norm = (t^2 - D u^2)/4."""

    t: int
    u: int
    disc: int
    norm: int

    def log_value(self):
        with hp():
            return +mp.log((self.t + self.u * mp.sqrt(self.disc)) / 2)


# ---------------------------------------------------------------------------
# indefinite reduction


def _is_reduced_indefinite(q: QuadForm, d: int) -> bool:
    # |sqrt(D) - 2|a|| < b < sqrt(D), all checks exact
    a, b = q.a, q.b
    if b <= 0 or b * b >= d:
        return False
    if (2 * abs(a) + b) ** 2 <= d:
        return False
    return 2 * abs(a) <= b or (2 * abs(a) - b) ** 2 < d


def _rho_step(q: QuadForm, d: int) -> tuple[QuadForm, Mat]:
    """One reduction step (c, r, (r^2 - D)/(4c)) with transform [[0,-1],[1,m]]."""
    c = q.c
    if c == 0:
        raise ValueError("rho undefined for c = 0 (square discriminant)")
    ac = abs(c)
    root = math.isqrt(d)
    if ac > root:
        hi = ac  # window -|c| < r <= |c|
    else:
        hi = root  # window sqrt(D) - 2|c| < r < sqrt(D)
    lo = hi - 2 * ac + 1
    r = lo + ((-q.b - lo) % (2 * ac))
    m = (r + q.b) // (2 * c)
    g: Mat = (0, -1, 1, m)
    q2 = QuadForm(c, r, (r * r - d) // (4 * c))
    return q2, g


def _cycle_with_transforms(r0: QuadForm) -> tuple[list[QuadForm], Mat]:
    """Full rho-cycle through the reduced form r0 and the automorph of r0."""
    d = r0.disc
    cyc = [r0]
    q, g = _rho_step(r0, d)
    acc = g
    while q != r0:
        cyc.append(q)
        q, g = _rho_step(q, d)
        acc = mat_mul(acc, g)
    return cyc, acc


# ---------------------------------------------------------------------------
# class representatives and class numbers


def _reduced_definite_forms(d: int):
    """The primitive reduced forms of discriminant d < 0, ascending (a, then
    b, fix the form)."""
    amax = math.isqrt(-d // 3) if d < -3 else 1
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            q = QuadForm(a, b, c)
            if q.content() == 1:
                yield q


def _reduced_indefinite_forms(d: int):
    """The primitive reduced forms of discriminant d > 0, unordered: 0 < b <=
    isqrt(d) with b = d mod 2, 4a | b^2 - d, |a| <= (isqrt(d) + b) // 2 + 1."""
    root = math.isqrt(d)
    for b in range(2 - d % 2, root + 1, 2):
        num = b * b - d  # = 4 a c < 0
        for a in range(1, (root + b) // 2 + 2):
            if num % (4 * a):
                continue
            for sa in (a, -a):
                q = QuadForm(sa, b, num // (4 * sa))
                if _is_reduced_indefinite(q, d) and q.content() == 1:
                    yield q


def class_reps(d: int) -> list[QuadForm]:
    """One form per PSL2(Z)-class of discriminant d, of every content,
    ascending.

    d < 0: reduced positive-definite forms.  d > 0 nonsquare: one form per
    cycle of reduced indefinite forms (deterministically the smallest).  The
    forms of content f are f times the primitive ones of discriminant d/f^2,
    and reduction and the rho-cycles commute with that scaling.
    """
    _check_disc(d)
    return sorted(
        QuadForm(f * q.a, f * q.b, f * q.c)
        for f in range(1, math.isqrt(abs(d)) + 1)
        if d % (f * f) == 0 and d // (f * f) % 4 in (0, 1)
        for q in _primitive_reps(d // (f * f))
    )


@lru_cache(maxsize=1024)
def _primitive_reps(d: int) -> tuple[QuadForm, ...]:
    """The primitive class representatives of discriminant d, ascending: the
    reduced forms for d < 0, the least form of each cycle of reduced forms
    for d > 0.  class_reps (all contents) and class_number both read it, so
    a sweep over n enumerates the reduced forms of each n/f^2 once."""
    if d < 0:
        return tuple(_reduced_definite_forms(d))
    # the least form not on a cycle seen so far is the least of its own cycle
    reps: list[QuadForm] = []
    seen: set[QuadForm] = set()
    for start in sorted(_reduced_indefinite_forms(d)):
        if start not in seen:
            reps.append(start)
            seen.update(_cycle_with_transforms(start)[0])
    return tuple(reps)


def _check_disc(d: int) -> None:
    if d == 0 or d % 4 in (2, 3):
        raise ValueError(f"{d} is not a discriminant")
    if d > 0 and math.isqrt(d) ** 2 == d:
        raise ValueError("square discriminants are not supported here")


@lru_cache(maxsize=1024)
def class_number(d: int) -> int:
    """Number of primitive classes; wide class number for d > 0."""
    _check_disc(d)
    count = len(_primitive_reps(d))
    return count // 2 if d > 0 and order_unit_pm(d).norm == 1 else count


@lru_cache(maxsize=1024)
def automorph_unit(d: int) -> PellUnit:
    """Minimal (t, u), t, u > 0, with t^2 - D u^2 = 4, from the cycle of the
    least primitive class representative r0: its automorph is
    ((t - b u)/2, -c u, a u, (t + b u)/2) with (a, b, c) = r0, as for every
    primitive form of discriminant d."""
    _check_disc(d)
    if d < 0:
        raise ValueError("automorph_unit needs d > 0")
    r0 = _primitive_reps(d)[0]
    _, m = _cycle_with_transforms(r0)
    t, u = abs(m[0] + m[3]), abs(m[2] // r0.a)
    if t * t - d * u * u != 4:
        raise AssertionError(f"automorph of disc {d} failed the Pell relation")
    return PellUnit(t=t, u=u, disc=d, norm=1)


def order_unit_pm(d: int) -> PellUnit:
    """Minimal unit (x + y sqrt(d))/2 > 1 with x^2 - d y^2 = +-4 (order level).

    Obtained from the automorph unit: a norm -1 unit exists iff the automorph
    is a square, i.e. x = sqrt(t - 2) is integral and y = u / x divides out.
    """
    aut = automorph_unit(d)
    x2 = aut.t - 2
    x = math.isqrt(x2)
    if x > 0 and x * x == x2 and aut.u % x == 0:
        y = aut.u // x
        if x * x - d * y * y == -4:
            return PellUnit(t=x, u=y, disc=d, norm=-1)
    return PellUnit(t=aut.t, u=aut.u, disc=d, norm=1)


# ---------------------------------------------------------------------------
# automorphs as matrices


def _automorph_matrix(q: QuadForm, t: int, u: int) -> Mat:
    # entries relative to the primitive part; integrality is automatic
    a, b, c = q.a, q.b, q.c
    return ((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)


def automorph_generator(q: QuadForm) -> Mat:
    """Generator (mod +-1) of the infinite cyclic automorph group, indefinite q."""
    q0 = q.primitive_part()
    d0 = q0.disc
    aut = automorph_unit(d0)
    return _automorph_matrix(q0, aut.t, aut.u)


def _weight_sixths(a: int, b: int, c: int) -> int:
    """12 / |Aut| for the reduced definite form (a, b, c), six times its
    weight 2/|Aut| in H: 2 at f(1, 1, 1) (discriminant -3 f^2), 3 at
    f(1, 0, 1) (-4 f^2), else 6."""
    if a == c and b in (0, a):
        return 3 if b == 0 else 2
    return 6


# ---------------------------------------------------------------------------
# Gamma_0(p)-orbit counts


def p1_zero_count(p: int, r: QuadForm) -> int:
    """Number of zeros of r on P^1(F_p), p an odd prime: all p + 1 points
    when p divides the content of r, else 1 + (D/p), D = r.disc, as a nonzero
    binary quadratic form over F_p of discriminant D has that many."""
    return p + 1 if r.content() % p == 0 else 1 + kronecker(r.disc, p)


def weighted_orbit_count(p: int, n: int) -> Fraction:
    """sum over the Gamma_0(p)-orbits of discriminant n < 0 of 1/|stabilizer|
    (projective orders), without building the orbits, over the forms of both
    definiteness signs.

    By orbit-stabilizer an orbit of k zeros of the class representative r has
    projective stabilizer order |Aut(r)| / (2k), so the orbits of r weigh
    2 p1_zero_count(p, r) / |Aut(r)| together, and the negative-definite
    orbits mirror the positive ones, which doubles the sum.
    """
    if n >= 0:
        raise ValueError("weighted_orbit_count needs n < 0")
    _check_disc(n)
    sixths = 0  # six times the positive-definite count
    for r in class_reps(n):
        sixths += p1_zero_count(p, r) * _weight_sixths(*r)
    return Fraction(2 * sixths, 6)


# ---------------------------------------------------------------------------
# geodesic integral


def geodesic_integral(q: QuadForm):
    """Numerical value of the closed-geodesic integral sqrt(D) dtau / Q(tau,1).

    The geodesic is the half-circle over the real roots of Q(tau, 1); one
    period is cut out by the automorph of q acting on a base point.  Returns
    (value, error_estimate), the estimate being mpmath's heuristic one, but
    never less than the value's ulp at the integral's precision; the value
    equals twice the log of the automorph unit of the primitive
    discriminant.
    """
    d = q.disc
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("needs a positive nonsquare discriminant")
    if q.a == 0:
        raise ValueError("needs a != 0")
    m = automorph_generator(q)
    with hp(extra=5):
        sd = mp.sqrt(d)
        center = mp.mpf(-q.b) / (2 * q.a)
        radius = sd / (2 * abs(q.a))
        z0 = mp.mpc(center, radius)  # top of the half-circle, theta = pi/2
        al, be, ga, de = m
        z1 = (al * z0 + be) / (ga * z0 + de)

        def theta_of(z):
            w = (z - center) / radius
            return mp.atan2(w.imag, w.real)

        th0, th1 = mp.pi / 2, theta_of(z1)

        def integrand(th):
            rot = mp.exp(1j * th)
            tau = center + radius * rot
            dtau = 1j * radius * rot
            return sd * dtau / (q.a * tau * tau + q.b * tau + q.c)

        val, err = mp.quad(integrand, [th0, th1], error=True)
        if abs(val.imag) > mp.mpf(10) ** (-(mp.dps - 8)):
            raise ArithmeticError("geodesic integral failed to come out real")
        value = +abs(val.real)
        # mpmath's estimate can lie far below what this precision carries
        return value, max(+mp.mpf(err), mp.ldexp(1, mp.mag(value) - mp.prec))
