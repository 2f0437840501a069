"""Quadratic forms: reduction, classes, units, orbit counts, geodesics."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from quadtrace import quadforms
from quadtrace.cli import GEODESIC_SEEDS, GEODESIC_WORDS, _LETTERS, sweep_imaginary
from quadtrace.precision import hp
from quadtrace.quadforms import (
    IDENTITY,
    QuadForm,
    S_MAT,
    _cycle_with_transforms,
    _weight_sixths,
    automorph_generator,
    automorph_unit,
    class_number,
    class_reps,
    geodesic_integral,
    mat_mul,
    order_unit_pm,
    p1_zero_count,
    weighted_orbit_count,
)

from .oracles import (
    _reduce_indefinite_transform,
    _sl2_transform,
    automorphs_definite,
    fundamental_unit,
    gamma0_equivalent,
    mat_inv,
    neg,
    reduce_definite,
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
        reps = [q for q in class_reps(d) if q.content() == 1]
        assert sorted((q.a, q.b, q.c) for q in reps) == enumerate_reduced_oracle(d)
    assert [tuple(q) for q in class_reps(-3)] == [(1, 1, 1)]
    assert [tuple(q) for q in class_reps(-4)] == [(1, 0, 1)]
    assert len(class_reps(-23)) == 3


def test_class_reps_definite_all_contents_against_exhaustive_search():
    # every form |b| <= a <= sqrt(|d|) of every content, reduced by the
    # oracle; each class has its reduced form, a <= sqrt(|d|/3), in that box
    for d in range(-3, -600, -1):
        if d % 4 not in (0, 1):
            continue
        reduced = {
            reduce_definite(QuadForm(a, b, (b * b - d) // (4 * a)))
            for a in range(1, math.isqrt(-d) + 1)
            for b in range(-a, a + 1)
            if (b * b - d) % (4 * a) == 0
        }
        assert class_reps(d) == sorted(reduced), d


def test_imaginary_sweep_enumerates_each_discriminant_once(monkeypatch):
    # the three primes and every content of n read one cached enumeration
    calls = Counter()
    enumerate_forms = quadforms._reduced_definite_forms

    def counted(d):
        calls[d] += 1
        return enumerate_forms(d)

    monkeypatch.setattr(quadforms, "_reduced_definite_forms", counted)
    quadforms._primitive_reps.cache_clear()
    sweep_imaginary((3, 5, 7), 200)
    assert set(calls.values()) == {1} and set(calls) <= set(range(-200, 0))


def test_weight_sixths_is_twelve_over_automorph_count():
    # the weight from the shape of the reduced form against the automorphs
    # the oracle builds, every content of every discriminant down to -2000
    for d in range(-3, -2001, -1):
        if d % 4 in (0, 1):
            for q in class_reps(d):
                assert _weight_sixths(*q) == 12 // len(automorphs_definite(q)), q


def test_class_reps_indefinite_all_contents_against_direct_cycles():
    # every reduced form of every content by exhaustive search, one cycle at
    # a time; class_reps builds content f from the primitive forms of d/f^2
    for d in range(5, 601):
        root = math.isqrt(d)
        if d % 4 not in (0, 1) or root * root == d:
            continue
        forms = set()
        for b in range(1, root + 1):
            for a in range(-root - 1, root + 2):
                num = b * b - d
                if a == 0 or num % (4 * a):
                    continue
                # |sqrt(d) - 2|a|| < b, in integers
                if (2 * abs(a) + b) ** 2 > d and (2 * abs(a) <= b or (2 * abs(a) - b) ** 2 < d):
                    forms.add(QuadForm(a, b, num // (4 * a)))
        reps = []
        while forms:
            least = min(forms)
            reps.append(least)
            forms -= set(_cycle_with_transforms(least)[0])
        assert class_reps(d) == reps, d


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


def test_automorph_unit_against_principal_cycle():
    # the unit from the least class representative r0 against the one
    # conjugated back from the cycle of the reduced principal form, where
    # u = gamma as a = 1; r0 has |a| > 1 at most of these d, so u must be
    # gamma / a there
    count = 0
    for d in range(5, 3000):
        if d % 4 > 1 or math.isqrt(d) ** 2 == d:
            continue
        b0 = d % 2
        r0, g0 = _reduce_indefinite_transform(QuadForm(1, b0, (b0 * b0 - d) // 4))
        m = mat_mul(mat_mul(g0, _cycle_with_transforms(r0)[1]), mat_inv(g0))
        unit = automorph_unit(d)
        assert (unit.t, unit.u) == (abs(m[0] + m[3]), abs(m[2])), d
        count += 1
    assert count == 1445


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
        for rep, members in signed_orbits(p, n):
            for member in members:
                w = gamma0_witness(p, rep, member)
                assert w is not None
                assert w[2] % p == 0 and rep.apply(w) == member


def test_orbit_partition_complete_and_disjoint():
    """Brute-enumerated forms land in exactly one orbit, via witnesses."""
    for p, n in ((3, -3), (3, -12), (5, -4), (3, 24), (3, 13), (5, 24), (7, -20)):
        reps = [rep for rep, _ in signed_orbits(p, n)]
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
    # both signs: twice the one positive-definite orbit of weight 1/3
    positive = [stab for _, stab, _ in pairwise_orbits(3, -3)]
    assert positive == [3]
    assert weighted_orbit_count(3, -3) == 2 * Fraction(1, 3) == Fraction(2, 3)
    assert weighted_orbit_count(3, -4) == 0  # empty: -4 is a nonresidue mod 3
    with pytest.raises(ValueError):
        weighted_orbit_count(3, 5)


def pairwise_orbits(p, n):
    """(rep, stabilizer order, members) per orbit, grouping the coset images
    of each class by pairwise gamma0_equivalent tests, first member first;
    positive-definite forms only for n < 0.  Images of different classes are
    never compared: Gamma_0(p) lies in SL2(Z)."""
    cosets = [(1, 0, k, 1) for k in range(p)] + [S_MAT]  # SL2(Z)/Gamma_0(p)
    orbits = []
    for r in class_reps(n):
        class_orbits = []
        for g in cosets:
            q = r.apply(g)
            if q.a % p:
                continue
            for orbit in class_orbits:
                if gamma0_equivalent(p, orbit[0], q):
                    orbit.append(q)
                    break
            else:
                class_orbits.append([q])
        orbits += class_orbits
    out = []
    for orbit in orbits:
        rep = min(orbit)
        stab = 1
        if n < 0:
            stab = sum(1 for a in automorphs_definite(rep) if a[2] % p == 0) // 2
        out.append((rep, stab, sorted(set(orbit))))
    return out


def signed_orbits(p, n):
    """(rep, members) per orbit of pairwise_orbits and, for n < 0, of its
    negative-definite mirror (the both-signs convention)."""
    orbits = [(rep, members) for rep, _, members in pairwise_orbits(p, n)]
    if n < 0:
        orbits += [(neg(rep), [neg(q) for q in members]) for rep, members in orbits]
    return orbits


def stabilizer_index(p, q):
    """kappa of an indefinite form q with p | a: the least k >= 1 such that
    M^k, M the automorph generator of q, has lower-left entry divisible by p,
    i.e. the index of the Gamma_0(p)-stabilizer of q in its automorph group."""
    m = automorph_generator(q)
    x = m
    for k in range(1, 4 * p * (p + 1)):
        if x[2] % p == 0:
            return k
        x = mat_mul(x, m)
    raise AssertionError("stabilizer index exceeded the group-order bound")


def test_weighted_count_matches_built_orbits():
    """The orbit-stabilizer count against sum 1/|stabilizer| over the orbits
    that pairwise_orbits builds: twice the positive-definite sum, as the
    negative-definite orbits mirror the positive ones."""
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for n in range(-1000, 0):
            if n % 4 not in (0, 1):
                continue
            pos_def = sum((Fraction(1, stab) for _, stab, _ in pairwise_orbits(p, n)), Fraction(0))
            assert weighted_orbit_count(p, n) == 2 * pos_def, (p, n)
            cases += 1
    assert cases == 2500


def test_kappa_sums_match_zero_count():
    """Per content f, the kappas of the built orbits of discriminant n > 0
    sum to the zero counts of the class representatives of content f, which
    is what the real trace weights log eps_{n/f^2} by."""
    discs = [n for n in range(1, 501) if n % 4 in (0, 1) and math.isqrt(n) ** 2 != n]
    # the sweep reaches imprimitive classes whose content carries p
    assert {45, 72, 125, 200, 245} <= set(discs)
    level_content = 0
    for p in (3, 5, 7, 11, 13):
        for n in discs:
            kappas, zeros = {}, {}
            for rep, _, _ in pairwise_orbits(p, n):
                f = rep.content()
                kappas[f] = kappas.get(f, 0) + stabilizer_index(p, rep)
            for r in class_reps(n):
                f = r.content()
                zeros[f] = zeros.get(f, 0) + p1_zero_count(p, r)
                level_content += f % p == 0
            assert kappas == {f: z for f, z in zeros.items() if z}, (p, n)
    assert level_content > 0


def test_zero_count_brute_force():
    """p1_zero_count against the points [x : y] of P^1(F_p) where the form
    vanishes mod p, every class representative of every |n| <= 300."""
    discs = [
        n
        for m in range(1, 301)
        for n in (-m, m)
        if n % 4 in (0, 1) and not (n > 0 and math.isqrt(n) ** 2 == n)
    ]
    for p in (3, 5, 7, 11, 13):
        points = [(1, y) for y in range(p)] + [(0, 1)]
        for n in discs:
            for r in class_reps(n):
                zeros = sum(1 for x, y in points if r.value(x, y) % p == 0)
                assert p1_zero_count(p, r) == zeros, (p, r)


def test_stabilizer_orders_projective():
    # discriminant -3 orbit at p = 3 carries weight 1/3, disc -4 at p = 5 weight 1/2
    assert [stab for _, stab, _ in pairwise_orbits(3, -3)] == [3]
    assert sorted(stab for _, stab, _ in pairwise_orbits(5, -4)) == [2, 2]


def test_stabilizer_index_sums_to_p_plus_one():
    # for classes whose content carries the level, sum of indices = p + 1
    for p, n in ((3, 45), (3, 72), (5, 125)):
        by_content = {}
        for rep, _, _ in pairwise_orbits(p, n):
            by_content.setdefault(rep.content(), []).append(stabilizer_index(p, rep))
        for f, ks in by_content.items():
            if f % p == 0:
                d0 = n // (f * f)
                per_class = sum(q.content() == 1 for q in class_reps(d0))
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


def test_geodesic_error_estimate_is_at_least_an_ulp():
    # the 18 forms of verify geodesic, where mpmath's own estimate read as low
    # as 1e-150 for an integral run at the working + guard + 5 digits
    for seed in GEODESIC_SEEDS.values():
        for word in GEODESIC_WORDS:
            q = seed.apply(functools.reduce(mat_mul, (_LETTERS[c] for c in word), IDENTITY))
            value, err = geodesic_integral(q)
            with hp(extra=5):
                assert err >= mp.ldexp(1, mp.mag(value) - mp.prec) > 0, q
