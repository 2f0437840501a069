"""Integral binary quadratic forms.

Forms Q = (a, b, c) represent a x^2 + b x y + c y^2 and carry the right
SL2(Z)-action (Q.g)(x, y) = Q(alpha x + beta y, gamma x + delta y).  The
module provides Gauss reduction (definite and indefinite, with transform
tracking), class representatives and class numbers for arbitrary
discriminants, fundamental/automorph units from reduction cycles rather
than brute-force Pell searches, Gamma_0(p)-orbit enumeration with projective
stabilizer orders, and the numerical closed-geodesic integral.

Gamma_0(p)-orbits come from a group action rather than pairwise tests.  The
cosets g Gamma_0(p) of SL2(Z) are the points of P^1(F_p), through the first
column of g, and SL2(Z) acts on them from the left.  For a class
representative r, the form r.g has p | a iff r vanishes mod p at the point of
g, and r.g1, r.g2 are Gamma_0(p)-equivalent iff some automorph of r carries
the point of g2 to the point of g1 (gamma = g1^-1 A g2 lies in Gamma_0(p)
exactly then).  So the orbits of one class are the orbits of Aut(r) on its
admissible points: the 2, 4 or 6 definite automorphs for n < 0, the group
+-<automorph_generator(r)> reduced mod p for n > 0.  gamma0_equivalent decides
the same relation for two arbitrary forms through SL2(Z)-reduction and stays
as the independent oracle.

The imaginary trace needs only the weights sum 1/|stabilizer|, and those
follow from orbit-stabilizer without building an orbit: an Aut(r)-orbit of k
points has projective stabilizer order |Aut(r)| / (2k), so the orbits of r
weigh 2 #{admissible points} / |Aut(r)| together, and the admissible points
are the zeros of r on P^1(F_p), p + 1 of them when p divides the content of
r and 1 + (n/p) otherwise (weighted_orbit_count).

Class numbers and units are cached per discriminant, the 1024 most recently
used of each.

Conventions pinned by the seed-identity runs (see README):
  * for n < 0 the set of forms with p | a carries both definiteness signs;
  * stabilizer orders are taken in the projective group, so weights are
    1/2 and 1/3 at discriminants -4 f^2 and -3 f^2 when the extra
    automorphs land in Gamma_0(p);
  * class numbers of positive discriminants are wide: the cycle count is
    halved unless x^2 - D y^2 = -4 is solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def mat_inv(g: Mat) -> Mat:
    a, b, c, d = g
    if a * d - b * c != 1:
        raise ValueError("not in SL2(Z)")
    return (d, -b, -c, a)


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

    def neg(self) -> "QuadForm":
        return QuadForm(-self.a, -self.b, -self.c)

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

    def value(self):
        with hp():
            return +((self.t + self.u * mp.sqrt(self.disc)) / 2)


@dataclass
class OrbitClass:
    rep: QuadForm
    stabilizer_order: int
    infinite_stabilizer: bool
    orbit_id: int
    content: int = 1
    members: list[QuadForm] = field(default_factory=list)


# ---------------------------------------------------------------------------
# reduction


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


def reduce_definite(q: QuadForm) -> QuadForm:
    """Reduced SL2(Z)-representative of a positive-definite form."""
    return _reduce_definite_transform(q)[0]


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


def _reduce_indefinite_transform(q: QuadForm) -> tuple[QuadForm, Mat]:
    d = q.disc
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("needs a positive nonsquare discriminant")
    g = IDENTITY
    while not _is_reduced_indefinite(q, d):
        q2, step = _rho_step(q, d)
        q, g = q2, mat_mul(g, step)
    return q, g


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


def _reduced_definite_forms(d: int, include_imprimitive: bool) -> list[QuadForm]:
    out = []
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
            if include_imprimitive or q.content() == 1:
                out.append(q)
    return sorted(out)


def _reduced_indefinite_forms(d: int, include_imprimitive: bool) -> list[QuadForm]:
    out = []
    root = math.isqrt(d)
    for b in range(1, root + 1):
        if (b - d) % 2:
            continue
        num = b * b - d  # = 4 a c < 0
        for a in _divisor_range(num, b, d):
            c = num // (4 * a)
            q = QuadForm(a, b, c)
            if _is_reduced_indefinite(q, d) and (
                include_imprimitive or q.content() == 1
            ):
                out.append(q)
    return sorted(out)


def _divisor_range(num: int, b: int, d: int):
    """Candidate leading coefficients a with 4a | num for the reduced window."""
    n4 = abs(num)
    hi = (math.isqrt(d) + b) // 2 + 1
    for a in range(1, hi + 1):
        if n4 % (4 * a) == 0:
            yield a
            yield -a


def class_reps(d: int, include_imprimitive: bool = False) -> list[QuadForm]:
    """One form per PSL2(Z)-class of discriminant d.

    d < 0: reduced positive-definite forms.  d > 0 nonsquare: one form per
    cycle of reduced indefinite forms (deterministically the smallest).
    """
    _check_disc(d)
    if d < 0:
        return _reduced_definite_forms(d, include_imprimitive)
    # the least form not on a cycle seen so far is the least of its own cycle
    reps: list[QuadForm] = []
    seen: set[QuadForm] = set()
    for start in _reduced_indefinite_forms(d, include_imprimitive):
        if start not in seen:
            reps.append(start)
            seen.update(_cycle_with_transforms(start)[0])
    return reps


def _check_disc(d: int) -> None:
    if d == 0 or d % 4 in (2, 3):
        raise ValueError(f"{d} is not a discriminant")
    if d > 0 and math.isqrt(d) ** 2 == d:
        raise ValueError("square discriminants are not supported here")


@lru_cache(maxsize=1024)
def class_number(d: int) -> int:
    """Number of primitive classes; wide class number for d > 0."""
    _check_disc(d)
    if d < 0:
        return len(_reduced_definite_forms(d, include_imprimitive=False))
    narrow = len(class_reps(d, include_imprimitive=False))
    unit = order_unit_pm(d)
    return narrow if unit.norm == -1 else narrow // 2


def principal_form(d: int) -> QuadForm:
    b0 = d % 2
    return QuadForm(1, b0, (b0 * b0 - d) // 4)


@lru_cache(maxsize=1024)
def automorph_unit(d: int) -> PellUnit:
    """Minimal (t, u), t, u > 0, with t^2 - D u^2 = 4, from the principal cycle."""
    _check_disc(d)
    if d < 0:
        raise ValueError("automorph_unit needs d > 0")
    r0, g0 = _reduce_indefinite_transform(principal_form(d))
    _, m = _cycle_with_transforms(r0)
    # conjugate back to the principal form, whose leading coefficient is 1
    m = mat_mul(mat_mul(g0, m), mat_inv(g0))
    t = m[0] + m[3]
    u = m[2]  # u = gamma / a with a = 1
    t, u = abs(t), abs(u)
    if t * t - d * u * u != 4:
        raise AssertionError(f"automorph of disc {d} failed the Pell relation")
    return PellUnit(t=t, u=u, disc=d, norm=1)


@lru_cache(maxsize=1024)
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


def fundamental_unit(t: int) -> PellUnit:
    """Fundamental unit of the real quadratic field of discriminant t."""
    from .lvalues import is_fundamental_discriminant

    if t <= 1 or not is_fundamental_discriminant(t):
        raise ValueError(f"{t} is not a fundamental discriminant > 1")
    return order_unit_pm(t)


# ---------------------------------------------------------------------------
# automorphs as matrices


def _automorph_matrix(q: QuadForm, t: int, u: int) -> Mat:
    # entries relative to the primitive part; integrality is automatic
    a, b, c = q.a, q.b, q.c
    return ((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)


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


def automorph_generator(q: QuadForm) -> Mat:
    """Generator (mod +-1) of the infinite cyclic automorph group, indefinite q."""
    q0 = q.primitive_part()
    d0 = q0.disc
    aut = automorph_unit(d0)
    return _automorph_matrix(q0, aut.t, aut.u)


# ---------------------------------------------------------------------------
# Gamma_0(p) equivalence and orbits


def _sl2_transform(q1: QuadForm, q2: QuadForm) -> Mat | None:
    """Some g with q1.g = q2, or None if the forms are not SL2(Z)-equivalent."""
    d = q1.disc
    if d != q2.disc:
        return None
    if d < 0:
        if (q1.a > 0) != (q2.a > 0):
            return None
        if q1.a < 0:
            q1, q2 = q1.neg(), q2.neg()
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


def _coset_reps(p: int) -> list[Mat]:
    """Representatives of SL2(Z)/Gamma_0(p): lower-triangular L^k and S."""
    reps: list[Mat] = [(1, 0, k, 1) for k in range(p)]
    reps.append(S_MAT)
    return reps


def _p1_point(x: int, y: int, p: int) -> tuple[int, int]:
    """The point [x : y] of P^1(F_p) as (1, y/x) or (0, 1)."""
    x, y = x % p, y % p
    if x:
        return (1, y * pow(x, -1, p) % p)
    return (0, 1)


def _p1_act(m: Mat, pt: tuple[int, int], p: int) -> tuple[int, int]:
    """Left action of m on a point of P^1(F_p) through column vectors."""
    al, be, ga, de = m
    x, y = pt
    return _p1_point(al * x + be * y, ga * x + de * y, p)


def gamma0_orbits(
    p: int, n: int, convention: str = "both-signs", reps: list[QuadForm] | None = None
) -> list[OrbitClass]:
    """Orbit decomposition of the forms of discriminant n with p | a.

    Every such form is r.g for a class representative r and a coset
    g Gamma_0(p), i.e. a point [alpha : gamma] of P^1(F_p), admissible when
    r(alpha, gamma) = 0 mod p.  r.g1 and r.g2 are Gamma_0(p)-equivalent iff
    A g2 Gamma_0(p) = g1 Gamma_0(p) for some automorph A of r, so the orbits
    of one class are the Aut(r)-orbits on its admissible points; forms of
    different classes are never equivalent.  Classes are visited in class_reps
    order and points in _coset_reps order, so orbit_id numbers the orbits by
    their first member, as a pairwise gamma0_equivalent grouping of the same
    candidates would.  For n < 0 the stabilizer order is |Aut(r)| / (2 |orbit|)
    by orbit-stabilizer (projective, the -1 of Aut(r) fixes every point).

    convention applies to n < 0 only: "both-signs" (default, pinned by the
    seed identities) also counts negative-definite orbits, "pos-def" does not.
    reps, when given, must be class_reps(n, include_imprimitive=True), which a
    caller sweeping several p computes once.
    """
    _check_disc(n)
    if convention not in ("both-signs", "pos-def"):
        raise ValueError(f"unknown convention {convention!r}")
    cosets = _coset_reps(p)
    out: list[OrbitClass] = []
    if reps is None:
        reps = class_reps(n, include_imprimitive=True)
    for r in reps:
        auts = automorphs_definite(r) if n < 0 else [automorph_generator(r)]
        images: dict[tuple[int, int], QuadForm] = {}
        for g in cosets:
            img = r.apply(g)
            if img.a % p == 0:
                images[_p1_point(g[0], g[2], p)] = img
        seen: set[tuple[int, int]] = set()
        for start in images:
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            for pt in orbit:  # grows while iterating: closure under auts
                for a in auts:
                    img_pt = _p1_act(a, pt, p)
                    if img_pt not in seen:
                        seen.add(img_pt)
                        orbit.append(img_pt)
            members = sorted({images[pt] for pt in orbit})
            rep = members[0]
            out.append(
                OrbitClass(
                    rep=rep,
                    stabilizer_order=len(auts) // (2 * len(orbit)) if n < 0 else 1,
                    infinite_stabilizer=n > 0,
                    orbit_id=len(out),
                    content=rep.content(),
                    members=members,
                )
            )
    if n < 0 and convention == "both-signs":
        mirrored = []
        base = len(out)
        for oc in out:
            mirrored.append(
                OrbitClass(
                    rep=oc.rep.neg(),
                    stabilizer_order=oc.stabilizer_order,
                    infinite_stabilizer=False,
                    orbit_id=base + oc.orbit_id,
                    content=oc.content,
                    members=[q.neg() for q in oc.members],
                )
            )
        out.extend(mirrored)
    return out


def weighted_orbit_count(p: int, n: int, convention: str = "both-signs") -> Fraction:
    """sum over the Gamma_0(p)-orbits of discriminant n < 0 of 1/|stabilizer|
    (projective orders), without building the orbits.

    The orbits of one class representative r are the Aut(r)-orbits on its
    admissible points, and by orbit-stabilizer an orbit of k points has
    projective stabilizer order |Aut(r)| / (2k), so together they weigh
    2 #{admissible points} / |Aut(r)|.  The admissible points are the zeros of
    r on P^1(F_p): all p + 1 when p divides the content of r, else 1 + (n/p),
    since a nonzero binary quadratic form over F_p (p odd) of discriminant n
    has that many projective zeros.  "both-signs" doubles the sum, as the
    negative-definite orbits mirror the positive ones; gamma0_orbits, which
    builds the orbits, is the test oracle.
    """
    if n >= 0:
        raise ValueError("weighted_orbit_count needs n < 0")
    _check_disc(n)
    if convention not in ("both-signs", "pos-def"):
        raise ValueError(f"unknown convention {convention!r}")
    zeros_if_coprime = 1 + kronecker(n, p)
    sixths = 0  # six times the positive-definite count; 12 / |Aut(r)| is 6, 3 or 2
    for r in class_reps(n, include_imprimitive=True):
        f = r.content()
        zeros = p + 1 if f % p == 0 else zeros_if_coprime
        sixths += zeros * (12 // len(_definite_units(n // (f * f))))
    return Fraction(2 * sixths if convention == "both-signs" else sixths, 6)


def gamma0_stabilizer_index(p: int, q: QuadForm) -> int:
    """Index of the Gamma_0(p)-stabilizer inside the full automorph group.

    For an indefinite form q with p | a the index is the least k >= 1 such
    that M^k has lower-left entry divisible by p, M the automorph generator.
    It is 1 whenever p divides the leading coefficient of the primitive part
    (in particular whenever p does not divide the content), and can reach
    p + 1 for forms whose content absorbs the divisibility by p.
    """
    m = automorph_generator(q)
    x = m
    for k in range(1, 4 * p * (p + 1)):
        if x[2] % p == 0:
            return k
        x = mat_mul(x, m)
    raise AssertionError("stabilizer index exceeded the group-order bound")


# ---------------------------------------------------------------------------
# geodesic integral


def geodesic_integral(q: QuadForm):
    """Numerical value of the closed-geodesic integral sqrt(D) dtau / Q(tau,1).

    The geodesic is the half-circle over the real roots of Q(tau, 1); one
    period is cut out by the automorph of q acting on a base point.  Returns
    (value, error_estimate), the estimate being mpmath's heuristic one; the
    value equals twice the log of the automorph unit of the primitive
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
            tau = center + radius * mp.exp(1j * th)
            dtau = 1j * radius * mp.exp(1j * th)
            return sd * dtau / (q.a * tau * tau + q.b * tau + q.c)

        val, err = mp.quad(integrand, [th0, th1], error=True)
        if abs(val.imag) > mp.mpf(10) ** (-(mp.dps - 8)):
            raise ArithmeticError("geodesic integral failed to come out real")
        return +abs(val.real), +mp.mpf(err)
