"""Kloosterman machinery: local sums, closed forms, truncations, factorization."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from quadtrace import cli, kloosterman
from quadtrace.arith import kronecker, smallest_prime_factors
from quadtrace.kloosterman import (
    _inner_sums,
    _jacobi_period,
    _jacobi_table,
    _work_buffers,
    assembled_product,
    kzeta_level_closed,
    kzeta_level_truncated,
    largest_modulus,
    local_factor_2_exact,
    local_factor_p_exact,
    local_series_2,
    local_series_p,
    local_sum_2_exp,
    local_sum_p_exp,
    plus_zeta_batch,
)

from .forks import count_forks, set_cores
from .oracles import euler_phi, kzeta_coprime_closed, local_sum_2, local_sum_p, plus_term


def setup_module():
    mp.dps = 25


def test_local_sum_case_table():
    assert local_sum_2(1) == 1
    assert local_sum_2(2) == 1 + 1j
    assert local_sum_2(3) == 0
    assert local_sum_2(4) == (1 + 1j) * 4
    assert local_sum_p(3, 1) == 0
    assert local_sum_p(3, 2) == 6  # phi(9)
    assert local_sum_p(5, 2) == 20
    with pytest.raises(ValueError):
        local_sum_2(2, n=5)


def test_exponential_sums_match_case_table():
    for j in range(1, 14):
        assert abs(local_sum_2_exp(j, 0) - complex(local_sum_2(j))) < 1e-8
    for p in (3, 5):
        for j in range(1, 7):
            assert abs(local_sum_p_exp(p, j, 0) - complex(local_sum_p(p, j))) < 1e-7


def test_j_weighted_series_closed_values():
    # sum_{j>=2} a(2^j,0) j 2^{-3j/2} = 1+i ; sum_{j>=1} a(p^j,0) j p^{-3j/2} = 2/(p-1)
    s2 = mp.fsum(mp.mpc(local_sum_2(j)) * j * mp.power(2, -1.5 * j) for j in range(2, 220))
    assert abs(s2 - (1 + 1j)) < mp.mpf("1e-20")
    for p in (3, 5):
        sp = mp.fsum(
            mp.mpc(local_sum_p(p, j)) * j * mp.power(p, -1.5 * j) for j in range(1, 140)
        )
        assert abs(sp - mp.mpf(2) / (p - 1)) < mp.mpf("1e-20")


def test_local_series_closed_vs_term_sums():
    # the n != 0 sums terminate at j = nu(n) + 3; a couple of extra terms
    # double as vanishing checks
    for n in (0, 1, 4, 36, 144):
        for sigma in (mp.mpf(3) / 2, mp.mpf("2.2")):
            closed = local_series_2(n, sigma)
            if n == 0:
                direct = mp.fsum(
                    mp.mpc(local_sum_2(j)) * mp.power(2, -j * sigma)
                    for j in range(2, 60)
                )
            else:
                jmax = (n & -n).bit_length() + 6
                direct = sum(
                    local_sum_2_exp(j, n) / 2 ** (j * float(sigma))
                    for j in range(2, jmax)
                )
            assert abs(complex(closed) - complex(direct)) < 1e-7, (n, sigma)
    for p in (3, 5):
        for n in (0, 1, 9, 36):
            for sigma in (mp.mpf(3) / 2, mp.mpf("2.2")):
                closed = local_series_p(p, n, sigma)
                if n == 0:
                    direct = mp.fsum(
                        mp.mpc(local_sum_p(p, j)) * mp.power(p, -j * sigma)
                        for j in range(1, 60)
                    )
                else:
                    nu = 0
                    while n % p ** (nu + 1) == 0:
                        nu += 1
                    direct = sum(
                        local_sum_p_exp(p, j, n) / p ** (j * float(sigma))
                        for j in range(1, nu + 5)
                    )
                assert abs(complex(closed) - complex(direct)) < 1e-7, (p, n, sigma)


def test_local_factor_tables_match_exponential_sums():
    """The rational tables equal the local series at the special point."""
    for p, n in ((3, 12), (3, 13), (3, 24), (3, -4), (3, 45), (5, 24), (5, -3), (3, -8)):
        f2 = sum(local_sum_2_exp(j, n) / 2 ** (1.5 * j) for j in range(2, 10)) + (
            1 + 1j
        ) / 8
        table2 = complex(3 * (1 + 1j) / 8) * float(local_factor_2_exact(n))
        assert abs(f2 - table2) < 1e-9, n
        fp = sum(local_sum_p_exp(p, j, n) / p ** (1.5 * j) for j in range(1, 8))
        assert abs(fp - float(local_factor_p_exact(p, n))) < 1e-9, (p, n)


def test_local_factor_examples():
    from fractions import Fraction

    assert local_factor_2_exact(17) == 1  # nu = 0, 17 = 1 mod 8
    assert local_factor_2_exact(8) == Fraction(1, 2)  # odd nu branch
    assert local_factor_p_exact(3, 5) == Fraction(1, 3) - Fraction(2, 3)


def test_plus_term_small_cases():
    v = plus_term(1, 0, 1)
    assert abs(v - (2 + 2j)) < mp.mpf("1e-20")
    # weight vanishes at no c (odd c carry weight 2, even c weight 1)
    v3 = plus_term(3, 1, 1)
    direct = mp.mpc(0)
    m_mod = 12
    from quadtrace.arith import eps_odd, kronecker

    for r in range(1, m_mod):
        if math.gcd(r, m_mod) != 1:
            continue
        direct += kronecker(m_mod, r) * mp.mpc(eps_odd(r)) * mp.e ** (
            2j * mp.pi * r / m_mod
        )
    assert abs(v3 - 2 * direct) < mp.mpf("1e-18")


def test_plus_term_phase_and_symmetry():
    """Every inner sum lies on the (1+i)-ray: S = i conj(S).

    The naive |S(n)| = |S(-n)| symmetry holds on the plus-space support
    (n = 0 mod 4, where -n is also supported) but fails for n = 1 mod 4
    with even c (counterexample N = 3, c = 2, n = 1), so only the supported
    half is asserted.
    """
    for big_n, c in ((1, 3), (3, 2), (3, 5), (5, 4)):
        for n in (1, 4, 5, 8):
            s_pos = plus_term(big_n, n, c)
            assert abs(s_pos - 1j * mp.conj(s_pos)) < mp.mpf("1e-18")
            if n % 4 == 0:
                s_neg = plus_term(big_n, -n, c)
                assert abs(abs(s_pos) - abs(s_neg)) < mp.mpf("1e-18")


def test_plus_zeta_truncated_edges():
    values, tail = plus_zeta_batch([3], [5], 2.5, 0)[0]
    assert values == [0]
    values, tail = plus_zeta_batch([3], [5], 2.5, 50)[0]
    assert tail is not None and tail > 0
    values, tail = plus_zeta_batch([3, 5], [-4, 5], 2.5, 0)[1]
    assert values == [0, 0] and tail is None
    with pytest.raises(ValueError):
        plus_zeta_batch([3], [-4, 5], 2.5, -1)
    assert kzeta_level_truncated(3, 1.25, 0) == (0, None)
    # the series diverges for s <= 1: no finite bound, not a negative one
    for s in (0.5, 1):
        assert kzeta_level_truncated(3, s, 100)[1] == float("inf")
    with pytest.raises(ValueError):
        kzeta_level_truncated(3, 1.25, -1)


def test_jacobi_table_matches_kronecker():
    spf = smallest_prime_factors(2001)
    for m in range(1, 2002, 2):
        table = _jacobi_table(m, spf)
        assert table.tolist() == [kronecker(x, m) for x in range(m)], m


def _per4n(big_n):
    return np.array([kronecker(4 * big_n, x) for x in range(4 * big_n)], dtype=np.int8)


def test_inner_sums_match_plus_term():
    """The numpy inner sums equal the mpmath oracle divided by its weight.

    c <= 40 covers odd nu_2(c), c_odd = 3 mod 4 and non-squarefree c_odd.
    """
    spf = smallest_prime_factors(100)
    n_list = [-4, -3, 0, 5, 8]
    for big_n in (1, 3, 5, 15):
        per4n = _per4n(big_n)
        work = _work_buffers(4 * big_n * 40)
        for c in range(1, 41):
            weight = 1 + kronecker(4, c)
            sums = _inner_sums(big_n, c, n_list, per4n, _jacobi_period(c, spf), work)
            for n, val in zip(n_list, sums):
                oracle = complex(plus_term(big_n, n, c)) / weight
                assert abs(val - oracle) < 1e-9, (big_n, n, c)


def _hex(z: complex):
    return float(z.real).hex(), float(z.imag).hex()


def _poison(work):
    """NaN in every complex scratch array of work, -1 in the integer ones."""
    for array in work:
        if array.flags.writeable:
            array.fill(np.nan if array.dtype.kind == "c" else -1)


def test_inner_sums_bit_identical_to_direct_exp():
    """The tiled characters, the partial root table and the wrap-mode
    gather give the same floats, signed zeros included, as exp evaluated
    per index.

    The indices reach every branch of the partial table: n = 0, odd n that
    share a factor with 4N, even n with nu_2 in {2, 3, 5} and a large |n|,
    whose gather index wraps many times.
    Each index is summed in the batch and alone, whose tables differ.  All
    calls of one N share one set of work buffers, NaN-filled before each
    call, so a sum that read a root the call never wrote would come out
    NaN; the moduli run in descending and then in ascending order, so an
    entry left by a larger or a smaller M would show.
    """
    spf = smallest_prime_factors(2001)
    n_list = [0, -3, 5, 15, -4, 8, -32, 10**6 + 1]
    cases = [(big_n, range(1, 121)) for big_n in (1, 3, 5, 15)]
    cases += [(big_n, range(1990, 2001)) for big_n in (3, 5)]
    for big_n, cs in cases:
        per4n = _per4n(big_n)
        work = _work_buffers(4 * big_n * cs[-1])
        direct = {}
        for c in cs:
            m_mod = 4 * big_n * c
            r = np.arange(1, m_mod, 2, dtype=np.int64)
            sym = np.array([kronecker(m_mod, x) for x in r.tolist()], dtype=np.int64)
            base = sym * np.where(r % 4 == 1, 1.0 + 0.0j, 1.0j)
            direct[c] = [
                _hex(complex((base * np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))).sum()))
                for n in n_list
            ]
        for c in [*reversed(cs), *cs]:
            jacobi = _jacobi_period(c, spf)
            _poison(work)
            together = _inner_sums(big_n, c, n_list, per4n, jacobi, work)
            for n, val, expected in zip(n_list, together, direct[c]):
                _poison(work)
                alone = _inner_sums(big_n, c, [n], per4n, jacobi, work)[0]
                assert _hex(val) == _hex(alone) == expected, (big_n, n, c)


def test_inner_sums_allocate_no_modulus_sized_array():
    """With warm work buffers, one call allocates O(c_odd) bytes, not O(M).

    c = 2000 is the CLI's largest modulus at N = 5 (c_odd = 125); c = 1536
    (nu_2 odd, c_odd = 3 = 3 mod 4) also takes the (2/r) and the sign
    branches.  Any array of length M/2 that the kernel allocated instead of
    writing into the buffers would hold at least M/2 bytes here.
    """
    big_n, n_list = 5, [-4, -3, 5, 8]
    per4n, spf = _per4n(big_n), smallest_prime_factors(2001)
    work = _work_buffers(4 * big_n * 2000)
    for c in (2000, 1536):
        _inner_sums(big_n, c, n_list, per4n, _jacobi_period(c, spf), work)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _inner_sums(big_n, c, n_list, per4n, _jacobi_period(c, spf), work)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        m_mod = 4 * big_n * c
        assert peak < m_mod // 4, (c, peak, m_mod)


def test_plus_zeta_batch_equals_single_index():
    """Levels and indices summed in one pass over c give the bits of each
    level and index summed alone."""
    levels, n_list = [1, 3], [-4, -3, 0, 5, 8]
    batch = plus_zeta_batch(levels, n_list, 2.5, 60)
    for big_n, (values, tail) in zip(levels, batch):
        for n, value in zip(n_list, values):
            single = plus_zeta_batch([big_n], [n], 2.5, 60)[0]
            assert ([value], tail) == single, (big_n, n)


def test_plus_zeta_tail_decay_empirical():
    """Partial-sum increments shrink with the cutoff at s = 2.5."""
    a, b, c = (plus_zeta_batch([3], [5], 2.5, cutoff)[0][0][0] for cutoff in (50, 100, 200))
    assert abs(c - b) < abs(b - a) + 1e-12


def test_factorization_at_convergent_point():
    """Truncated series equals the assembled product within the tail bound."""
    n_list = [-4, -3, 5, 8]
    for p, (values, tail) in zip((3, 5), plus_zeta_batch([3, 5], n_list, 2.5, 400)):
        for n, value in zip(n_list, values):
            prod = assembled_product(p, n, 2.5)
            assert abs(value - prod) <= tail, (p, n)
            # and far inside it
            assert abs(value - prod) < 1e-4


def test_kzeta_closed_forms():
    # complementary closed forms sum to the zeta ratio
    for p in (3, 5):
        s = mp.mpf("1.25")
        total = kzeta_level_closed(p, s) + kzeta_coprime_closed(p, s)
        assert abs(total - mp.zeta(2 * s - 1) / mp.zeta(2 * s)) < mp.mpf("1e-25")
    assert mp.isfinite(kzeta_level_closed(5, mp.mpf("1.5")))
    with pytest.raises(ValueError):
        kzeta_level_closed(3, 1)


def test_kzeta_truncation_within_bound():
    for p in (3, 5):
        value, tail = kzeta_level_truncated(p, 1.25, 5000)
        closed = kzeta_level_closed(p, 1.25)
        assert abs(value - complex(closed)) <= tail


def test_kzeta_level_truncated_matches_sieve_to_p_cutoff():
    """phi(pk) = phi(k) (p if p | k else p - 1) keeps the bits of phi(c), c = pk."""
    for p in (3, 5, 7, 13):
        total = 0.0
        for k in range(1, 501):
            total += euler_phi(p * k) * float(p * k) ** (-2 * 1.25)
            assert kzeta_level_truncated(p, 1.25, k)[0] == total, (p, k)


# ---------------------------------------------------------------------------
# the per-c sums of plus_zeta_batch, which parallel.fork_map may split


@pytest.mark.parametrize(
    "cores, cutoff, other_thread",
    [(1, 501, False), (2, 501, True)],
)
def test_serial_pass_starts_no_process(monkeypatch, cores, cutoff, other_thread):
    set_cores(monkeypatch, cores)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if other_thread:
        thread.start()
    try:
        plus_zeta_batch([1], [5], 2.5, cutoff)
    finally:
        release.set()
    if other_thread:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_largest_modulus_is_the_largest_sum_formed(monkeypatch, p):
    # the limit of verify kloosterman reads the depths that the local factors sum to
    set_cores(monkeypatch, 1)
    moduli = []
    sum_2, sum_p, buffers = local_sum_2_exp, local_sum_p_exp, _work_buffers

    def record_2(j, n):
        moduli.append(2**j)
        return sum_2(j, n)

    def record_p(q, j, n):
        moduli.append(q**j)
        return sum_p(q, j, n)

    def record_buffers(m_max):
        moduli.append(m_max)
        return buffers(m_max)

    monkeypatch.setattr(kloosterman, "local_sum_2_exp", record_2)
    monkeypatch.setattr(kloosterman, "local_sum_p_exp", record_p)
    monkeypatch.setattr(kloosterman, "_work_buffers", record_buffers)
    cli.sweep_kloosterman((p,), 50)
    assert max(moduli) == max(largest_modulus(p, n, 50) for n in cli.PLUS_ZETA_INDICES)
    if p == 7:
        assert max(moduli) == 7**4
