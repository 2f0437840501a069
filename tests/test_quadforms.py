"""Quadratic forms: reduction, classes, units, orbits, geodesics."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from quadtrace.quadforms import (
    IDENTITY,
    QuadForm,
    S_MAT,
    _coset_reps,
    _sl2_transform,
    automorph_generator,
    automorph_unit,
    automorphs_definite,
    class_number,
    class_reps,
    fundamental_unit,
    gamma0_equivalent,
    gamma0_orbits,
    gamma0_stabilizer_index,
    geodesic_integral,
    mat_inv,
    mat_mul,
    order_unit_pm,
    reduce_definite,
    weighted_orbit_count,
)

T_MAT = (1, 1, 0, 1)


def enumerate_reduced_oracle(d):
    """Positive-definite reduced forms by exhaustive |b| <= a <= c search."""
    out = []
    for a in range(1, math.isqrt(max(-d, 3) // 3) + 2):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if b == -a:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append((a, b, c))
    return sorted(out)


def pell_search_oracle(d, bound=2000):
    for u in range(1, bound):
        t2 = 4 + d * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return t, u
    raise AssertionError("oracle bound too small")


def pell_pm_search_oracle(d, bound=2000):
    best = None
    for u in range(1, bound):
        for sign in (-1, 1):
            t2 = sign * 4 + d * u * u
            if t2 <= 0:
                continue
            t = math.isqrt(t2)
            if t * t == t2:
                val = (t + u * math.sqrt(d)) / 2
                if best is None or val < best[2]:
                    best = (t, u, val, sign)
        if best:
            return best[0], best[1], -best[3]  # norm = -sign(t^2 - d u^2 = sign*4)...
    raise AssertionError


def test_reduce_definite_examples():
    assert reduce_definite(QuadForm(1, 0, 1)) == QuadForm(1, 0, 1)
    assert reduce_definite(QuadForm(1, 1, 1)) == QuadForm(1, 1, 1)
    assert reduce_definite(QuadForm(2, 2, 3)) == QuadForm(2, 2, 3)


def test_reduce_preserves_class():
    rng = random.Random(7)
    gens = [T_MAT, mat_inv(T_MAT), S_MAT, mat_inv(S_MAT)]
    for _ in range(50):
        q = QuadForm(2, 2, 3)
        g = IDENTITY
        for _ in range(rng.randint(1, 6)):
            g = mat_mul(g, rng.choice(gens))
        moved = q.apply(g)
        assert moved.disc == q.disc
        assert reduce_definite(moved if moved.a > 0 else moved) == q


def test_class_reps_definite_against_oracle():
    for d in range(-3, -200, -1):
        if d % 4 not in (0, 1):
            continue
        reps = class_reps(d)
        assert sorted((q.a, q.b, q.c) for q in reps) == enumerate_reduced_oracle(d)
    assert [tuple(q) for q in class_reps(-3)] == [(1, 1, 1)]
    assert [tuple(q) for q in class_reps(-4)] == [(1, 0, 1)]
    assert len(class_reps(-23)) == 3


def test_class_numbers():
    assert class_number(5) == 1
    assert class_number(-4) == 1
    assert class_number(40) == 2
    assert class_number(-23) == 3


def test_automorph_units_against_pell_oracle():
    for d in (5, 8, 13, 12, 21, 24, 40, 44, 60):
        unit = automorph_unit(d)
        t, u = pell_search_oracle(d)
        assert (unit.t, unit.u) == (t, u)
        assert unit.t**2 - d * unit.u**2 == 4


def test_fundamental_units():
    u5 = fundamental_unit(5)
    assert (u5.t, u5.u, u5.norm) == (1, 1, -1)
    u8 = fundamental_unit(8)
    assert (u8.t, u8.u, u8.norm) == (2, 1, -1)  # (2 + sqrt 8)/2 = 1 + sqrt 2
    u12 = fundamental_unit(12)
    assert (u12.t, u12.u, u12.norm) == (4, 1, 1)  # 2 + sqrt 3
    with pytest.raises(ValueError):
        fundamental_unit(9)


def test_order_unit_large_regulator():
    # continued-fraction-sized solutions must come out exactly
    unit = automorph_unit(61)
    assert unit.t**2 - 61 * unit.u**2 == 4
    pm = order_unit_pm(61)
    assert pm.t**2 - 61 * pm.u**2 == -4 and pm.norm == -1


def gamma0_witness(p, q1, q2):
    """Explicit gamma in Gamma_0(p) carrying q1 to q2, when equivalent."""
    g0 = _sl2_transform(q1, q2)
    if g0 is None:
        return None
    if q1.disc < 0:
        for a in automorphs_definite(q1):
            g = mat_mul(a, g0)
            if g[2] % p == 0:
                return g
        return None
    m = automorph_generator(q1)
    x = IDENTITY
    for _ in range(4 * p * (p + 1)):
        g = mat_mul(x, g0)
        if g[2] % p == 0:
            return g
        x = mat_mul(x, m)
    return None


def test_gamma0_equivalent_trivial_cases():
    q = QuadForm(3, 2, 2)
    assert gamma0_equivalent(3, q, q)
    moved = q.apply(T_MAT)
    assert gamma0_equivalent(3, q, moved)


def test_gamma0_equivalent_split_pair():
    # SL2-equivalent forms sitting in distinct Gamma_0(3)-orbits: the class
    # of discriminant -20 meets the level condition in two coset points
    q1, q2 = QuadForm(3, 2, 2), QuadForm(3, -2, 2)
    assert _sl2_transform(q1, q2) is not None
    assert not gamma0_equivalent(3, q1, q2)


def test_infinite_stabilizer_flagged():
    orbs = gamma0_orbits(5, 5)
    assert orbs and all(oc.infinite_stabilizer for oc in orbs)
    assert all(oc.stabilizer_order == 1 for oc in orbs)


def test_gamma0_equivalence_relation_properties():
    p = 3
    forms = []
    for a in range(-30, 31):
        if a == 0 or a % p:
            continue
        for b in range(-12, 13):
            for n in (-20, -23, 40):
                num = b * b - n
                if num % (4 * a) == 0:
                    forms.append(QuadForm(a, b, num // (4 * a)))
    sample = forms[:40]
    for q in sample:
        assert gamma0_equivalent(p, q, q)
    for q1 in sample[:15]:
        for q2 in sample[:15]:
            if q1.disc != q2.disc:
                continue
            r12 = gamma0_equivalent(p, q1, q2)
            r21 = gamma0_equivalent(p, q2, q1)
            assert r12 == r21


def test_gamma0_equivalent_witnessed():
    # every positive answer is certified by an explicit group element
    for p, n in ((3, -20), (3, 40), (5, -4), (5, 24)):
        orbits = gamma0_orbits(p, n)
        for oc in orbits:
            for member in oc.members:
                w = gamma0_witness(p, oc.rep, member)
                assert w is not None
                assert w[2] % p == 0 and oc.rep.apply(w) == member


def test_orbit_partition_complete_and_disjoint():
    """Brute-enumerated forms land in exactly one orbit, via witnesses."""
    for p, n in ((3, -3), (3, -12), (5, -4), (3, 24), (3, 13), (5, 24), (7, -20)):
        reps = [oc.rep for oc in gamma0_orbits(p, n)]
        bound = 40
        for a in range(-bound, bound + 1):
            if a == 0 or a % p:
                continue
            for b in range(-bound, bound + 1):
                num = b * b - n
                if num % (4 * a):
                    continue
                q = QuadForm(a, b, num // (4 * a))
                hits = [r for r in reps if gamma0_witness(p, r, q) is not None]
                assert len(hits) == 1, (p, n, q, hits)


def test_orbits_definiteness_convention():
    assert weighted_orbit_count(3, -3, "both-signs") == Fraction(2, 3)
    assert weighted_orbit_count(3, -3, "pos-def") == Fraction(1, 3)
    assert weighted_orbit_count(3, -4) == 0  # empty: -4 is a nonresidue mod 3
    with pytest.raises(ValueError):
        weighted_orbit_count(3, 5)


def test_weighted_count_matches_built_orbits():
    """The orbit-stabilizer count against sum 1/|stabilizer| over the orbits
    gamma0_orbits builds, both conventions."""
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for n in range(-1000, 0):
            if n % 4 not in (0, 1):
                continue
            for convention in ("both-signs", "pos-def"):
                orbits = gamma0_orbits(p, n, convention)
                expected = sum((Fraction(1, oc.stabilizer_order) for oc in orbits), Fraction(0))
                assert weighted_orbit_count(p, n, convention) == expected, (p, n, convention)
                cases += 1
    assert cases == 5000


def pairwise_orbits(p, n):
    """(rep, stabilizer order, members) per orbit, grouping the coset images
    of every class by pairwise gamma0_equivalent tests, first member first."""
    candidates = []
    for r in class_reps(n, include_imprimitive=True):
        for g in _coset_reps(p):
            img = r.apply(g)
            if img.a % p == 0:
                candidates.append(img)
    orbits = []
    for q in candidates:
        for orbit in orbits:
            if gamma0_equivalent(p, orbit[0], q):
                orbit.append(q)
                break
        else:
            orbits.append([q])
    out = []
    for orbit in orbits:
        rep = min(orbit)
        stab = 1
        if n < 0:
            stab = sum(1 for a in automorphs_definite(rep) if a[2] % p == 0) // 2
        out.append((rep, stab, sorted(set(orbit))))
    return out


def test_gamma0_orbits_match_pairwise_grouping():
    discs = [
        n
        for m in range(1, 201)
        for n in (-m, m)
        if n % 4 in (0, 1) and not (n > 0 and math.isqrt(n) ** 2 == n)
    ]
    # the sweep reaches the extra automorphs and the imprimitive classes
    assert {-3 * 9, -4 * 9, -3 * 49, -4 * 36, 45, 200} <= set(discs)
    imprimitive = 0
    for p in (3, 5, 7, 11, 13):
        for n in discs:
            orbits = gamma0_orbits(p, n, "pos-def")
            got = [(oc.rep, oc.stabilizer_order, oc.members) for oc in orbits]
            assert got == pairwise_orbits(p, n), (p, n)
            assert [oc.orbit_id for oc in orbits] == list(range(len(orbits)))
            imprimitive += sum(oc.content > 1 for oc in orbits)
            both = gamma0_orbits(p, n)
            if n < 0:
                assert both[: len(orbits)] == orbits
                assert [oc.rep for oc in both[len(orbits) :]] == [oc.rep.neg() for oc in orbits]
            else:
                assert both == orbits
    assert imprimitive > 0


def test_orbit_order_independence(monkeypatch):
    import quadtrace.quadforms as qf

    def orbits_key(p, n):
        return sorted(tuple(oc.rep) for oc in qf.gamma0_orbits(p, n))

    base = {(p, n): orbits_key(p, n) for p, n in ((3, -20), (5, 24), (3, 45))}
    orig = qf._coset_reps
    monkeypatch.setattr(qf, "_coset_reps", lambda p: list(reversed(orig(p))))
    for (p, n), expected in base.items():
        assert orbits_key(p, n) == expected


def test_stabilizer_orders_projective():
    # discriminant -3 orbit at p = 3 carries weight 1/3, disc -4 at p = 5 weight 1/2
    orbs = gamma0_orbits(3, -3, "pos-def")
    assert [oc.stabilizer_order for oc in orbs] == [3]
    orbs = gamma0_orbits(5, -4, "pos-def")
    assert sorted(oc.stabilizer_order for oc in orbs) == [2, 2]


def test_stabilizer_index_sums_to_p_plus_one():
    # for classes whose content carries the level, sum of indices = p + 1
    for p, n in ((3, 45), (3, 72), (5, 125)):
        by_content = {}
        for oc in gamma0_orbits(p, n):
            k = gamma0_stabilizer_index(p, oc.rep)
            by_content.setdefault(oc.content, []).append(k)
        for f, ks in by_content.items():
            if f % p == 0:
                d0 = n // (f * f)
                per_class = len(class_reps(d0))
                assert sum(ks) == per_class * (p + 1)


def test_geodesic_integral_matches_unit_log():
    mp.dps = 30
    rng = random.Random(11)
    gens = [T_MAT, mat_inv(T_MAT), S_MAT]
    for d in (5, 8, 13):
        seed = {5: QuadForm(1, 1, -1), 8: QuadForm(1, 2, -1), 13: QuadForm(1, 3, -1)}[d]
        expected = 2 * automorph_unit(d).log_value()
        forms = [seed]
        while len(forms) < 6:
            g = IDENTITY
            for _ in range(rng.randint(1, 4)):
                g = mat_mul(g, rng.choice(gens))
            q = seed.apply(g)
            if q.a != 0:
                forms.append(q)
        for q in forms:
            val, err = geodesic_integral(q)
            assert abs(val - expected) < mp.mpf("1e-8"), (d, q)
            assert err < mp.mpf("1e-8")
