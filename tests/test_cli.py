"""Command-line interface: formats, exit codes, determinism."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from quadtrace import cli
from quadtrace.cli import CHECKS, main
from quadtrace.specialfns import QuadratureResult

from .forks import set_cores

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_csv(capsys):
    code, out, _ = run(capsys, ["hurwitz", "--p", "3", "--n-max", "100", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,H,H_1p,H_pp,relation_ok"
    assert len(lines) == 102
    row3 = lines[4].split(",")
    assert row3[:3] == ["3", "3", "1/3"]


def test_hurwitz_jsonl_schema(capsys):
    code, out, _ = run(capsys, ["hurwitz", "--p", "3", "--n-max", "8"])
    assert code == 0
    for line in out.strip().splitlines():
        row = json.loads(line)
        assert set(row) == {"p", "n", "H", "H_1p", "H_pp", "relation_ok"}


def test_verify_imaginary_exit_zero(capsys):
    code, out, err = run(
        capsys, ["verify", "imaginary", "--p", "3", "--n-max", "40"]
    )
    assert code == 0
    rows = [json.loads(x) for x in out.strip().splitlines()]
    assert all(r["pass"] for r in rows)
    assert "checks passed" in err


def test_verify_constants(capsys):
    code, out, _ = run(capsys, ["verify", "constants", "--p", "3", "5"])
    assert code == 0


def test_verify_classnumbers_and_geodesic(capsys):
    code, out, err = run(capsys, ["verify", "classnumbers", "--p", "3", "5", "--n-max", "40"])
    assert code == 0
    checks = [json.loads(line)["check"] for line in out.splitlines()]
    # n = 0, 3 (mod 4) up to 40; n <= 40 for each p; the 65 squarefree N <= 105
    assert [checks.count(name) for name in dict.fromkeys(checks)] == [21, 80, 65]
    assert err == "# 166/166 checks passed\n"
    code, out, err = run(capsys, ["verify", "geodesic", "--p", "5"])
    assert code == 0
    assert err == "verify geodesic ignores --p\n# 18/18 checks passed\n"


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, ["verify", "imaginary", "--p", "3", "--n-max", "30"])
    _, out2, _ = run(capsys, ["verify", "imaginary", "--p", "3", "--n-max", "30"])
    assert out1 == out2


def test_config_errors(capsys):
    code, _, err = run(capsys, ["verify", "imaginary", "--p", "4"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "imaginary", "--p", "3", "--prec", "10"])
    assert code == 2


def test_verify_kloosterman_small_cutoff(capsys):
    code, out, err = run(capsys, ["verify", "kloosterman", "--p", "3", "--cutoff", "40"])
    assert code == 0
    rows = [json.loads(x) for x in out.strip().splitlines()]
    assert [r.get("n") for r in rows] == [None, -4, -3, 5, 8]
    assert all(r["cutoff"] == 40 and r["pass"] for r in rows)
    assert "5/5 checks passed" in err


def test_kloosterman_cutoff_below_one_rejected(capsys):
    for bad in ("0", "-3"):
        code, out, err = run(capsys, ["verify", "kloosterman", "--p", "3", "--cutoff", bad])
        assert code == 2
        assert out == ""
        assert "--cutoff must be at least 1" in err
        assert "Traceback" not in err


def test_kloosterman_modulus_above_limit_rejected(capsys):
    for argv, largest in (
        (["--p", "3", "--cutoff", "100000000000"], 1200000000000),
        (["--p", "1000003"], (1000003) ** 4),  # local sum mod p^4 above 4p * 2000
        (["--p", "3", "59", "--cutoff", "10"], 59**4),
    ):
        code, out, err = run(capsys, ["verify", "kloosterman", *argv])
        assert code == 2, argv
        assert out == ""
        assert f"would sum modulo {largest}, above the limit 10000000" in err
        assert "Traceback" not in err


def test_duplicate_p_rejected(capsys):
    for argv, dup in (
        (["verify", "kloosterman", "--p", "3", "3", "--cutoff", "10"], 3),
        (["hurwitz", "--p", "5", "3", "5"], 5),
        (["coeffs", "--p", "7", "7"], 7),
        (["verify", "special", "--p", "3", "3"], 3),
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert f"duplicate --p value {dup}" in err
        assert "Traceback" not in err


def test_range_below_one_rejected(capsys):
    for argv in (
        ["verify", "real", "--p", "3", "--n-max", "0"],
        ["verify", "real", "--p", "3", "--n-max", "-5"],
        ["hurwitz", "--p", "3", "--n-max", "0"],
        ["verify", "coefficients", "--p", "3", "--m-max", "0"],
        ["coeffs", "--p", "3", "--m-max", "0"],
    ):
        code, out, err = run(capsys, argv)
        flag = argv[-2]
        assert code == 2, argv
        assert out == ""
        assert f"{flag} must be at least 1 (got {argv[-1]})" in err
        assert "Traceback" not in err


def test_verify_without_checks_rejected(capsys):
    # --n-max 4 leaves no nonsquare discriminant: nothing to verify is not a pass
    code, out, err = run(capsys, ["verify", "real", "--p", "3", "--n-max", "4"])
    assert code == 2
    assert out == ""
    assert "no checks" in err and "0/0" not in err


def test_coeffs_table(capsys):
    code, out, _ = run(
        capsys, ["coeffs", "--p", "3", "--m-max", "3", "--format", "csv", "--prec", "40"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,value,oracle,delta"
    assert len(lines) == 5


def test_coefficient_oracle_gate_is_shared(monkeypatch, capsys):
    # a relative error of 1e-7 is at most 4.5e-9 absolute at p = 3, m <= 2,
    # below 1e-8: both commands gate it relative to the larger side
    oracle = cli.coeff_oracle_4p
    monkeypatch.setattr(cli, "coeff_oracle_4p", lambda p, m: oracle(p, m) * (1 + mp.mpf("1e-7")))
    for command in (["verify", "coefficients"], ["coeffs"]):
        assert run(capsys, [*command, "--p", "3", "--m-max", "2"])[0] == 1, command


def test_verify_coefficients_reports_each_check_once():
    # b(m^2) does not depend on p: its rows come once, with the first prime
    reports = CHECKS["coefficients"].run([3, 5], m_max=2)
    keys = [(r.check, tuple(sorted(r.params.items()))) for r in reports]
    assert len(keys) == len(set(keys))
    b_rows = [(i, r.params) for i, r in enumerate(reports) if r.check == "coeff-b-oracle"]
    assert b_rows == [(1, {"m": 1}), (3, {"m": 2})]


def test_verify_names_the_flags_it_ignores(capsys):
    argv = ["verify", "real", "--p", "3", "--n-max", "30"]
    code, out, err = run(capsys, argv + ["--m-max", "4", "--cutoff", "7"])
    assert code == 0
    assert "verify real ignores --m-max\nverify real ignores --cutoff\n" in err
    _, plain_out, plain_err = run(capsys, argv)
    assert out == plain_out and "ignores" not in plain_err
    assert CHECKS["special"].flags() == CHECKS["modularity"].flags() == set()
    assert CHECKS["geodesic"].flags() == set()
    assert CHECKS["classnumbers"].flags() == {"p", "n_max"}
    assert CHECKS["coefficients"].flags() == {"p", "m_max", "n_max"}


def test_tables_name_the_flags_they_ignore(capsys):
    for argv, ignored, notes in (
        (
            ["hurwitz", "--p", "3", "--n-max", "5"],
            ["--cutoff", "7", "--m-max", "3"],
            "hurwitz ignores --m-max\nhurwitz ignores --cutoff\n",
        ),
        (
            ["coeffs", "--p", "3", "--m-max", "2"],
            ["--n-max", "9", "--cutoff", "5"],
            "coeffs ignores --n-max\ncoeffs ignores --cutoff\n",
        ),
    ):
        code, out, err = run(capsys, argv + ignored)
        assert code == 0
        assert err == notes
        plain_code, plain_out, plain_err = run(capsys, argv)
        assert (plain_code, plain_out, plain_err) == (code, out, "")


def test_removed_flags_are_rejected(capsys):
    # a bad --format is refused the same way
    for flag, message in (
        (["--convention", "both-signs"], "unrecognized arguments: --convention both-signs"),
        (["--seed-cases"], "unrecognized arguments: --seed-cases"),
        (["--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ):
        code, out, err = run(capsys, ["verify", "imaginary", "--p", "3", "--n-max", "20", *flag])
        assert code == 2, flag
        assert out == ""
        assert err.startswith("usage: quadtrace")
        assert message in err


def test_help_returns_zero(capsys):
    code, out, err = run(capsys, ["verify", "--help"])
    assert code == 0
    assert out.startswith("usage: quadtrace verify")
    assert err == ""


def _readme_inventory() -> dict:
    """target -> (flags, defaults) from the rows of the README's
    verification-inventory table, such as "| `real` | `--p`, `--n-max 300` |"."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Verification inventory", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    inventory = {}
    for row in rows:
        targets, flags = (cell.strip() for cell in row.strip("|").split("|"))
        read, defaults = set(), {}
        for token in flags.split("`")[1::2]:
            flag, *default = token.split()
            name = flag.removeprefix("--").replace("-", "_")
            read.add(name)
            if default:
                defaults[name] = int(default[0])
        for target in targets.split("`")[1::2]:
            inventory[target] = read, defaults
    return inventory


def test_readme_cli_block_matches_checks():
    readme = (ROOT / "README.md").read_text()
    lines = [line.split() for line in readme.splitlines()]
    named = {words[2] for words in lines if words[:2] == ["quadtrace", "verify"]}
    assert named == set(CHECKS)
    # the inventory table names each target's flags and defaults as CHECKS has them
    inventory = _readme_inventory()
    assert set(inventory) == set(CHECKS)
    for target, check in CHECKS.items():
        assert inventory[target] == (check.flags(), check.defaults), target


def test_special_fails_an_unconverged_side(monkeypatch):
    # both sides agree exactly; only the companion at m = 2 missed its target
    def fake_companion(t):
        unconverged = abs(t - 4 * mp.sqrt(mp.pi)) < 1e-20
        return QuadratureResult(mp.mpf(-1), mp.mpf(0), 1, converged=not unconverged)

    monkeypatch.setattr(cli, "alpha_companion", fake_companion)
    converged = QuadratureResult(mp.mpf(2), mp.mpf(0), 1, converged=True)
    monkeypatch.setattr(cli, "alpha", lambda y: converged)
    reports = CHECKS["special"].run(())
    failed = [r for r in reports if not r.passed]
    assert [r.params for r in failed] == [{"N": 1, "v": "1", "m": 2}]
    assert failed[0].flags == {"quadrature": "unconverged"}
    assert all(r.flags == {} for r in reports if r.passed)


def test_special_runs_each_distinct_quadrature_once(monkeypatch):
    # the 36 grid points form only 30 bit-distinct argument pairs (t, y)
    companions, alphas = [], []
    converged = QuadratureResult(mp.mpf(1), mp.mpf(0), 1, converged=True)
    monkeypatch.setattr(cli, "alpha_companion", lambda t: companions.append(t) or converged)
    monkeypatch.setattr(cli, "alpha", lambda y: alphas.append(y) or converged)
    set_cores(monkeypatch, 1)
    assert len(CHECKS["special"].run(())) == 36
    assert len(companions) == len(alphas) == 30


# invocations of perfbench/digests.json cheap enough for the unit suite
DRIFT_ARGV = (
    "hurwitz --p 3 5 7 --n-max 2000",
    "verify constants --p 3 5 7",
    "coeffs --p 3 --m-max 12",
    "verify coefficients --p 3 --m-max 12",
    "verify special",
    "verify kloosterman --p 3 5 --cutoff 2000",
    "verify modularity",
    "verify imaginary --p 3 5 7 --n-max 1000",
    "verify real --p 3 5 7 --n-max 600",
    "verify real --p 7 11 13 --n-max 600",
)


def _fresh_stdout_digest(argv: str) -> str:
    """sha256 of the stdout of argv in a fresh interpreter, as the benchmark
    runs it: the sweeps read the ambient mp.dps, which other tests change."""
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadtrace.cli", *argv.split()],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def _recorded_digest(argv: str) -> str:
    return json.loads((ROOT / "perfbench" / "digests.json").read_text())[argv]["sha256"]


@pytest.mark.parametrize("argv", DRIFT_ARGV)
def test_stdout_matches_recorded_digest(argv):
    assert _fresh_stdout_digest(argv) == _recorded_digest(argv)


def test_default_coefficients_run_is_the_m_max_12_run():
    # --m-max sets the one range of every coefficient family, the square
    # traces included, so spelling out its default changes no byte
    recorded = _recorded_digest("verify coefficients --p 3 --m-max 12")
    assert _fresh_stdout_digest("verify coefficients --p 3") == recorded


# commands whose every printed byte is a function of --prec already; their
# caches are keyed by precision or hold exact values
PREC_ONLY_ARGV = (
    "verify real --p 3 5 --n-max 120",
    "verify coefficients --p 3 --m-max 4",
    "verify constants --p 3 5",
    "verify geodesic",
    "verify classnumbers --p 3 --n-max 200",
    "verify imaginary --p 3 --n-max 100",
    "verify kloosterman --p 3 --cutoff 200",
    "hurwitz --p 3 --n-max 100",
    "coeffs --p 3 --m-max 4",
)


def _stdout_of_runs(runs) -> list[str]:
    """The stdout of each argv of runs, all run in one fresh interpreter (the
    acceptance suite changes the ambient mp.dps of this one)."""
    code = (
        "import contextlib, io, json, sys\n"
        "from quadtrace import cli\n"
        "outs = []\n"
        "for argv in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv.split()) == 0, argv\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps(outs))\n"
    )
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *runs],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_output_at_a_precision_ignores_earlier_runs():
    """Each command at --prec 64, run after itself at --prec 40 in the same
    interpreter, prints what it prints in a fresh one: no cache hands a
    value computed at one working precision to a run at another."""
    after_40 = _stdout_of_runs([f"{a} --prec {dps}" for a in PREC_ONLY_ARGV for dps in (40, 64)])
    for argv, out in zip(PREC_ONLY_ARGV, after_40[1::2]):
        assert out and out == _stdout_of_runs([f"{argv} --prec 64"])[0], argv


def test_benchmark_cache_probes_name_cached_functions():
    """perfbench/child.py reads cache_info() of each function in its CACHES
    after cli.main returns, so a cache removed from quadtrace would fail
    every benchmark run; here it fails one test."""
    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.CACHES
    for cache in child.CACHES:
        module, name = cache.split(".")
        function = getattr(importlib.import_module(f"quadtrace.{module}"), name)
        assert callable(getattr(function, "cache_info", None)), cache


# small cases of the commands that run without numpy (verify special and
# verify modularity take seconds even at their smallest, so they are left out)
NUMPY_FREE_ARGV = (
    "hurwitz --p 3 --n-max 50",
    "coeffs --p 3 --m-max 4",
    "verify imaginary --p 3 --n-max 40",
    "verify real --p 3 --n-max 40",
    "verify constants --p 3",
    "verify coefficients --p 3 --m-max 4",
    "verify classnumbers --p 3 --n-max 40",
    "verify geodesic",
)


def test_only_verify_kloosterman_loads_numpy():
    # numpy would be most of the CLI's import time, so only the float
    # Kloosterman kernels import it; a fresh interpreter, since other tests
    # of the suite import numpy
    code = (
        "import contextlib, io, sys\n"
        "from quadtrace import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    print(code, 'numpy' in sys.modules)\n"
    )
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [*NUMPY_FREE_ARGV, "verify kloosterman --p 3 --cutoff 5"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False"] * len(NUMPY_FREE_ARGV) + ["0 True"]


@pytest.mark.parametrize(
    "argv", ["hurwitz --p 3 --n-max 2000", "verify imaginary --p 3 5 7 --n-max 1000"]
)
def test_closed_stdout_ends_quietly(argv):
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # output (over 128 KB) is more than the pipe holds, so the command hits it
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadtrace.cli", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == cli.BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err, err


REPORT_NAMES = ("exact_report", "numeric_report", "tail_bound_report", "VerificationReport")


def test_only_the_cli_builds_reports():
    # a check is named, gated and reported in the cli sweep that runs it; the
    # mathematical modules return values
    sources = sorted((ROOT / "src" / "quadtrace").glob("*.py"))
    assert ROOT / "src" / "quadtrace" / "cli.py" in sources
    found = []
    for path in sources:
        if path.name in ("cli.py", "report.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name in REPORT_NAMES]
            elif isinstance(node, ast.Attribute) and node.attr in REPORT_NAMES:
                found.append(f"{path.name}: {node.attr}")
    assert found == []
