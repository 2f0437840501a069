"""Command-line interface: formats, exit codes, determinism."""

import json

from quadtrace.cli import main


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
