"""Kloosterman machinery: local sums, closed forms, truncations, factorization."""

import math
import threading

import numpy as np
import pytest
from mpmath import mp

from quadtrace import parallel
from quadtrace.arith import euler_phi, kronecker
from quadtrace.kloosterman import (
    _inner_sums,
    _jacobi_table,
    _spf_table,
    assembled_product,
    kzeta_coprime_closed,
    kzeta_level_closed,
    kzeta_level_truncated,
    local_factor_2_exact,
    local_factor_p_exact,
    local_series_2,
    local_series_p,
    local_sum_2,
    local_sum_2_exp,
    local_sum_p,
    local_sum_p_exp,
    plus_term,
    plus_zeta_batch,
    plus_zeta_truncated,
)

from .forks import count_forks, set_cores


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
    kv = plus_zeta_truncated(3, 5, 2.5, 0)
    assert kv.value == 0
    kv = plus_zeta_truncated(3, 5, 2.5, 50)
    assert kv.tail_bound is not None and kv.tail_bound > 0
    empty = plus_zeta_batch(3, [-4, 5], 2.5, 0)
    assert [kv.value for kv in empty] == [0, 0]
    assert all(kv.tail_bound is None and kv.cutoff == 0 for kv in empty)
    with pytest.raises(ValueError):
        plus_zeta_batch(3, [-4, 5], 2.5, -1)
    kv = kzeta_level_truncated(3, 1.25, 0)
    assert kv.value == 0 and kv.tail_bound is None and kv.cutoff == 0
    # the series diverges for s <= 1: no finite bound, not a negative one
    for s in (0.5, 1):
        assert kzeta_level_truncated(3, s, 100).tail_bound == float("inf")
    with pytest.raises(ValueError):
        kzeta_level_truncated(3, 1.25, -1)


def test_jacobi_table_matches_kronecker():
    spf = _spf_table(2001)
    for m in range(1, 2002, 2):
        table = _jacobi_table(m, spf)
        assert table.tolist() == [kronecker(x, m) for x in range(m)], m


def test_inner_sums_match_plus_term():
    """The numpy inner sums equal the mpmath oracle divided by its weight.

    c <= 40 covers odd nu_2(c), c_odd = 3 mod 4 and non-squarefree c_odd.
    """
    spf = _spf_table(100)
    n_list = [-4, -3, 0, 5, 8]
    for big_n in (1, 3, 5, 15):
        per4n = np.array([kronecker(4 * big_n, x) for x in range(4 * big_n)], dtype=np.int8)
        for c in range(1, 41):
            weight = 1 + kronecker(4, c)
            for n, val in zip(n_list, _inner_sums(big_n, c, n_list, per4n, spf)):
                oracle = complex(plus_term(big_n, n, c)) / weight
                assert abs(val - oracle) < 1e-9, (big_n, n, c)


def _hex(z: complex):
    return float(z.real).hex(), float(z.imag).hex()


def test_inner_sums_bit_identical_to_direct_exp(monkeypatch):
    """The tiled characters and the partial root table give the same floats,
    signed zeros included, as exp evaluated per index.

    The indices reach every branch of the partial table: n = 0, odd n that
    share a factor with 4N, even n with nu_2 in {2, 3, 5} and a large |n|.
    Each index is summed in the batch and alone, whose tables differ.
    np.empty hands out NaN-filled arrays here, so a sum that read an entry
    the kernel never wrote would come out NaN.
    """
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    spf = _spf_table(2001)
    n_list = [0, -3, 5, 15, -4, 8, -32, 10**6 + 1]
    cases = [(big_n, range(1, 121)) for big_n in (1, 3, 5, 15)]
    cases += [(big_n, range(1990, 2001)) for big_n in (3, 5)]
    for big_n, cs in cases:
        per4n = np.array([kronecker(4 * big_n, x) for x in range(4 * big_n)], dtype=np.int8)
        for c in cs:
            m_mod = 4 * big_n * c
            r = np.arange(1, m_mod, 2, dtype=np.int64)
            sym = np.array([kronecker(m_mod, x) for x in r.tolist()], dtype=np.int64)
            base = sym * np.where(r % 4 == 1, 1.0 + 0.0j, 1.0j)
            together = _inner_sums(big_n, c, n_list, per4n, spf)
            for n, val in zip(n_list, together):
                phase = np.exp((2j * np.pi / m_mod) * ((n % m_mod) * r % m_mod))
                direct = _hex(complex((base * phase).sum()))
                alone = _inner_sums(big_n, c, [n], per4n, spf)[0]
                assert _hex(val) == _hex(alone) == direct, (big_n, n, c)


def test_plus_zeta_batch_equals_single_index():
    n_list = [-4, -3, 0, 5, 8]
    for big_n in (1, 3):
        batch = plus_zeta_batch(big_n, n_list, 2.5, 60)
        for n, kv in zip(n_list, batch):
            single = plus_zeta_truncated(big_n, n, 2.5, 60)
            assert kv.value == single.value, (big_n, n)
            assert kv.tail_bound == single.tail_bound


def test_plus_zeta_tail_decay_empirical():
    """Partial-sum increments shrink with the cutoff at s = 2.5."""
    a = plus_zeta_truncated(3, 5, 2.5, 50).value
    b = plus_zeta_truncated(3, 5, 2.5, 100).value
    c = plus_zeta_truncated(3, 5, 2.5, 200).value
    assert abs(c - b) < abs(b - a) + 1e-12


def test_factorization_at_convergent_point():
    """Truncated series equals the assembled product within the tail bound."""
    for p in (3, 5):
        values = plus_zeta_batch(p, [-4, -3, 5, 8], 2.5, 400)
        for kv in values:
            prod = assembled_product(p, kv.params["n"], 2.5)
            assert abs(kv.value - prod) <= kv.tail_bound, (p, kv.params)
            # and far inside it
            assert abs(kv.value - prod) < 1e-4


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
        kv = kzeta_level_truncated(p, 1.25, 5000)
        closed = kzeta_level_closed(p, 1.25)
        assert abs(kv.value - complex(closed)) <= kv.tail_bound


def test_kzeta_level_truncated_matches_sieve_to_p_cutoff():
    """phi(pk) = phi(k) (p if p | k else p - 1) keeps the bits of phi(c), c = pk."""
    for p in (3, 5, 7, 13):
        total = 0.0
        for k in range(1, 501):
            total += euler_phi(p * k) * float(p * k) ** (-2 * 1.25)
            assert kzeta_level_truncated(p, 1.25, k).value == total, (p, k)


# ---------------------------------------------------------------------------
# the per-c sums of plus_zeta_batch, which parallel.fork_map may split


@pytest.mark.parametrize(
    "cores, cutoff, other_thread",
    [(1, 501, False), (2, 501, True)],
)
def test_serial_pass_starts_no_process(monkeypatch, cores, cutoff, other_thread):
    monkeypatch.setattr(parallel, "SERIAL_HEAD_S", 0)
    set_cores(monkeypatch, cores)
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if other_thread:
        thread.start()
    try:
        plus_zeta_batch(1, [5], 2.5, cutoff)
    finally:
        release.set()
    if other_thread:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert forks == []
