"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 2, 4, 5, 6, 8 and 13 run the sweeps of `quadtrace verify`
(`quadtrace.cli`), whose reports carry the tolerances; criteria 6 and 8 add
an absolute bound on the reports' errors.
"""

import time

from mpmath import mp

from quadtrace.cli import (
    CHECKS,
    sweep_coefficient_oracles,
    sweep_negative_two_path,
    sweep_square_traces,
)
from quadtrace.precision import set_working_dps


def setup_module():
    set_working_dps(64)
    mp.dps = 30


def _report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} [{status}] {label} {detail}")
    assert passed, f"criterion {num}: {label} {detail}"


def _failed(reports):
    return [r.params for r in reports if not r.passed]


def _worst(reports, field="rel_err"):
    return max(mp.mpf(getattr(r, field)) for r in reports)


def test_criterion_01_dual_algorithm_class_numbers():
    from quadtrace.classnumbers import (
        hurwitz_class_number_forms,
        hurwitz_class_number_lseries,
    )

    t0 = time.time()
    bad = [
        n
        for n in range(0, 2001)
        if n % 4 in (0, 3)
        and hurwitz_class_number_forms(n) != hurwitz_class_number_lseries(n)
    ]
    elapsed = time.time() - t0
    _report(
        1,
        "dual-route Hurwitz class numbers n <= 2000 exact",
        not bad and elapsed < 60,
        f"({elapsed:.1f}s, mismatches={bad[:5]})",
    )


def test_criterion_02_imaginary_trace_sweep():
    from quadtrace.traces import pin_convention

    t0 = time.time()
    bad = _failed(CHECKS["imaginary"].run((3, 5, 7), n_max=400))
    elapsed = time.time() - t0
    _report(
        2,
        "imaginary trace identity p in {3,5,7}, -400 <= n < 0 exact",
        not bad and elapsed < 300,
        f"(convention={pin_convention()}, {elapsed:.1f}s)",
    )


def test_criterion_03_linear_relation():
    from quadtrace.classnumbers import verify_linear_relation

    bad = [
        (p, n)
        for p in (3, 5, 7)
        for n in range(1, 501)
        if not verify_linear_relation(p, n).passed
    ]
    _report(3, "class-number linear relation p in {3,5,7}, n <= 500 exact", not bad)


def test_criterion_04_real_trace_sweep():
    t0 = time.time()
    reports = CHECKS["real"].run((3, 5), n_max=300)
    _report(
        4,
        "real trace identity p in {3,5}, nonsquare n <= 300, rel 1e-9",
        not _failed(reports),
        f"(worst={mp.nstr(_worst(reports), 3)}, {time.time()-t0:.1f}s)",
    )


def test_criterion_05_negative_coefficient_two_path():
    reports = sweep_negative_two_path((3, 5, 7), n_max=200)
    _report(
        5,
        "negative-index coefficient two-path p in {3,5,7}, n <= 200, rel 1e-9",
        not _failed(reports),
        f"(worst={mp.nstr(_worst(reports), 3)})",
    )


def test_criterion_06_derivative_oracles():
    t0 = time.time()
    worst = _worst(sweep_coefficient_oracles((3, 5), m_max=12), "abs_err")
    _report(
        6,
        "closed coefficients vs derivative oracles, abs 1e-8",
        worst < mp.mpf("1e-8"),
        f"(worst={mp.nstr(worst, 3)}, {time.time()-t0:.1f}s)",
    )


def test_criterion_07_constant_term_system():
    from quadtrace.arith import is_prime
    from quadtrace.coefficients import constant_term_checks

    ok = True
    detail = ""
    for p in range(3, 51):
        if not is_prime(p):
            continue
        reports = constant_term_checks(p)
        # first two exact, third to 1e-12
        if not (reports[0].passed and reports[1].passed):
            ok, detail = False, f"rational bullet failed at p={p}"
            break
        if mp.mpf(reports[2].rel_err) > mp.mpf("1e-12"):
            ok, detail = False, f"theta bullet residual at p={p}"
            break
    _report(7, "constant-term system, odd primes p <= 50", ok, detail)


def test_criterion_08_special_function_grid():
    t0 = time.time()
    worst = _worst(CHECKS["special"].run(()), "abs_err")
    _report(
        8,
        "kernel relation sup over 36-point grid, abs 1e-8",
        worst < mp.mpf("1e-8"),
        f"(worst={mp.nstr(worst, 3)}, {time.time()-t0:.1f}s)",
    )


def test_criterion_09_kloosterman_closed_forms():
    from quadtrace.kloosterman import (
        assembled_product,
        kzeta_level_closed,
        kzeta_level_truncated,
        plus_zeta_batch,
    )

    t0 = time.time()
    ok = True
    detail = []
    for p in (3, 5):
        kv = kzeta_level_truncated(p, 1.25, 5000)
        closed = complex(kzeta_level_closed(p, 1.25))
        if abs(kv.value - closed) > kv.tail_bound:
            ok = False
            detail.append(f"phi-series p={p}")
        values = plus_zeta_batch(p, [-4, -3, 5, 8], 2.5, 2000)
        for item in values:
            prod = assembled_product(p, item.params["n"], 2.5)
            if abs(item.value - prod) > item.tail_bound:
                ok = False
                detail.append(f"factorization p={p} n={item.params['n']}")
    _report(
        9,
        "Kloosterman closed forms within computed tail bounds",
        ok,
        f"({'; '.join(detail)} {time.time()-t0:.1f}s)",
    )


def test_criterion_10_moebius_character_identity():
    from quadtrace.arith import is_squarefree
    from quadtrace.lvalues import moebius_char_squared_sum

    bad = []
    for big_n in range(1, 106):
        if not is_squarefree(big_n):
            continue
        for a in range(1, 211):
            if moebius_char_squared_sum(big_n, a) != (1 if a % big_n == 0 else 0):
                bad.append((big_n, a))
    _report(10, "Moebius character-square identity, N <= 105, a <= 210 exact", not bad)


def test_criterion_11_geodesic_oracle():
    import random

    from quadtrace.quadforms import (
        IDENTITY,
        QuadForm,
        S_MAT,
        automorph_unit,
        geodesic_integral,
        mat_mul,
    )

    t0 = time.time()
    t_mat = (1, 1, 0, 1)
    rng = random.Random(5)
    worst = mp.mpf(0)
    for d in (5, 8, 13):
        seed = {5: (1, 1, -1), 8: (1, 2, -1), 13: (1, 3, -1)}[d]
        expected = 2 * automorph_unit(d).log_value()
        forms = [QuadForm(*seed)]
        while len(forms) < 6:
            g = IDENTITY
            for _ in range(rng.randint(1, 4)):
                g = mat_mul(g, rng.choice([t_mat, (1, -1, 0, 1), S_MAT]))
            q = QuadForm(*seed).apply(g)
            if q.a != 0:
                forms.append(q)
        for q in forms:
            val, _err = geodesic_integral(q)
            worst = max(worst, abs(val - expected))
    _report(
        11,
        "geodesic quadrature equals 2 log(unit), abs 1e-8",
        worst < mp.mpf("1e-8"),
        f"(worst={mp.nstr(worst, 3)}, {time.time()-t0:.1f}s)",
    )


def test_criterion_12_modularity_battery():
    from quadtrace.modular import (
        eval_cohen_eisenstein,
        eval_sesqui_4p,
        eval_theta,
        eval_zagier_eisenstein,
        modularity_residual,
    )
    from .test_modular import battery

    t0 = time.time()
    worst_theta = mp.mpf(0)
    worst_zagier = mp.mpf(0)
    for g, tau in battery():
        worst_theta = max(
            worst_theta,
            modularity_residual(eval_theta, g, mp.mpf(1) / 2, tau, tol=mp.mpf("1e-12")),
        )
        worst_zagier = max(
            worst_zagier,
            modularity_residual(
                eval_zagier_eisenstein, g, mp.mpf(3) / 2, tau, tol=mp.mpf("1e-8")
            ),
        )
    tau2 = mp.mpc("0.21", "0.63")
    worst_ce = mp.mpf(0)
    for g in ((1, 0, 12, 1), (5, 2, 12, 5)):
        worst_ce = max(
            worst_ce,
            modularity_residual(
                lambda t, c: eval_cohen_eisenstein(3, 3, t, c),
                g,
                mp.mpf(3) / 2,
                tau2,
                tol=mp.mpf("1e-7"),
            ),
        )
    tau3 = mp.mpc("0.21", "1.1")
    worst_g = modularity_residual(
        lambda t, c: eval_sesqui_4p(3, t, c),
        (1, 0, 12, 1),
        mp.mpf(1) / 2,
        tau3,
        tol=mp.mpf("2e-5"),
    )
    ok = (
        worst_theta < mp.mpf("1e-10")
        and worst_zagier < mp.mpf("1e-6")
        and worst_ce < mp.mpf("1e-5")
        and worst_g < mp.mpf("1e-4")
    )
    _report(
        12,
        "modularity residual battery",
        ok,
        f"(theta={mp.nstr(worst_theta, 3)}, zagier={mp.nstr(worst_zagier, 3)}, "
        f"cohen={mp.nstr(worst_ce, 3)}, sesqui4p={mp.nstr(worst_g, 3)}, "
        f"{time.time()-t0:.1f}s)",
    )


def test_criterion_13_square_trace_consistency():
    reports = sweep_square_traces((3, 5, 7), m_max=10)
    _report(
        13,
        "square-index trace consistency p in {3,5,7}, m <= 10, rel 1e-10",
        not _failed(reports),
        f"(worst={mp.nstr(_worst(reports), 3)})",
    )
