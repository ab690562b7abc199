"""End-to-end CLI behavior: flags, files, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import starinv
from starinv import cli, generators
from starinv.cli import counterexample_evidence, main
from starinv.matrices import ExactMatrix, parse_matrix
from starinv.scalars import QQ


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- verify


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--ring", "q", "--n", "2", "--trials", "3",
        "--seed", "1", "--theorems", "thm24,cor25", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["theorems"] == ["thm24", "cor25"]
    assert payload["theorems"]["thm24"]["failed"] == 0


def test_verify_defaults_echoed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "gf:2", "--theorems", "lemma22")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 100
    assert payload["config"]["seed"] == 0
    assert payload["config"]["n"] == 2


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--ring", "q", "--trials", "2", "--theorems", "lemma22",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem,trial,status,failing_checks"
    assert len(lines) == 3


def test_verify_rejects_oversized_n(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("built a matrix or ran a campaign for an oversized --n")

    monkeypatch.setattr(ExactMatrix, "__init__", must_not_run)
    monkeypatch.setattr(cli, "run_campaign", must_not_run)
    for n in ("18446744073709551616", "2000"):  # n*n past the 2**20 cap
        code, _, err = run_cli(capsys, "verify", "--ring", "q", "--n", n)
        assert code == 2
        assert "too large" in err


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--ring", "nope")[0] == 2
    assert run_cli(capsys, "verify", "--ring", "q", "--theorems", "bogus")[0] == 2
    assert run_cli(capsys, "verify", "--ring", "q", "--trials", "0")[0] == 2
    assert run_cli(capsys, "verify", "--ring", "gf:4")[0] == 2
    assert run_cli(capsys, "verify", "--ring", "q", "--trials", "2",
                   "--theorems", "thm24,thm24")[0] == 2
    for huge in ("gf:1000000007", "gf:1000000000000000003"):
        code, _, err = run_cli(capsys, "verify", "--ring", huge, "--n", "2", "--trials", "1")
        assert code == 2
        assert "cap" in err
    for spelling in ("gf:+3", "gf: 3", "gf:0_3", "gf:03", "gf:\uff13"):  # int() reads 3
        assert run_cli(capsys, "verify", "--ring", spelling, "--trials", "1")[0] == 2


def test_bad_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


# ------------------------------------------------------------------- inverse


def write_matrix(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    return str(path)


def test_inverse_mp(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 2\ncols 2\n1/2 0\n0 0\n")
    code, out, _ = run_cli(capsys, "inverse", "--kind", "mp", "--in", path)
    assert code == 0
    result = parse_matrix(out)
    assert result.field == QQ
    assert result.entry(0, 0) == 2 and result.entry(1, 1) == 0


def test_inverse_mp_zero(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 2\ncols 3\n0 0 0\n0 0 0\n")
    code, out, _ = run_cli(capsys, "inverse", "--kind", "mp", "--in", path)
    assert code == 0
    result = parse_matrix(out)
    assert result.rows == 3 and result.cols == 2 and result.is_zero()


def test_inverse_mp_nonexistent(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring GF 2\nrows 2\ncols 2\n1 1\n1 1\n")
    code, out, _ = run_cli(capsys, "inverse", "--kind", "mp", "--in", path)
    assert code == 1
    payload = json.loads(out)
    assert payload == {"error": "NotMPInvertible", "kind": "mp"}


def test_inverse_group_nonexistent(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 2\ncols 2\n0 1\n0 0\n")
    code, out, _ = run_cli(capsys, "inverse", "--kind", "group", "--in", path)
    assert code == 1
    assert json.loads(out)["error"] == "NoGroupInverse"


def test_inverse_drazin_reports_index(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 2\ncols 2\n0 1\n0 0\n")
    code, out, err = run_cli(capsys, "inverse", "--kind", "drazin", "--in", path)
    assert code == 0
    assert "drazin index: 2" in err
    assert parse_matrix(out).is_zero()


def test_inverse_drazin_requires_square(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 1\ncols 2\n1 2\n")
    assert run_cli(capsys, "inverse", "--kind", "drazin", "--in", path)[0] == 2


def test_inverse_parse_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring Q\nrows 2\ncols 2\n1 x\n0 0\n")
    code, _, err = run_cli(capsys, "inverse", "--kind", "mp", "--in", path)
    assert code == 2
    assert "line 4, entry 2" in err


def test_inverse_refuses_a_noncanonical_modulus(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring GF 03\nrows 1\ncols 1\n1\n")
    code, _, err = run_cli(capsys, "inverse", "--kind", "mp", "--in", path)
    assert code == 2
    assert "line 1" in err


def test_inverse_huge_gf_modulus_fails_fast(tmp_path):
    # trial division of this modulus never finishes; the cap is checked first
    path = write_matrix(tmp_path, "ring GF 1000000000000000003\nrows 1\ncols 1\n1\n")
    src = str(Path(starinv.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "starinv.cli", "inverse", "--kind", "mp", "--in", path],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert done.returncode == 2
    assert "line 1" in done.stderr and "cap" in done.stderr


def test_inverse_missing_file(capsys):
    assert run_cli(capsys, "inverse", "--kind", "mp", "--in", "/nonexistent")[0] == 2


def test_inverse_writes_file(tmp_path, capsys):
    path = write_matrix(tmp_path, "ring QI\nrows 1\ncols 1\n0,1\n")
    out_path = tmp_path / "result.txt"
    code, _, _ = run_cli(
        capsys, "inverse", "--kind", "mp", "--in", path, "--out", str(out_path)
    )
    assert code == 0
    result = parse_matrix(out_path.read_text())
    assert QQ.format(result.entry(0, 0).im) == "-1"


def _unreachable(*args):
    raise AssertionError("work started before --out was opened")


def test_verify_unwritable_out_exits_2_before_the_campaign(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_campaign", _unreachable)
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run_cli(capsys, "verify", "--ring", "gf:2", "--n", "2", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write {out}: ")


def test_inverse_unwritable_out_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "mp_inverse", _unreachable)
    path = write_matrix(tmp_path, "ring Q\nrows 1\ncols 1\n2\n")
    out = tmp_path / "missing" / "result.txt"
    code, stdout, err = run_cli(capsys, "inverse", "--kind", "mp", "--in", path, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write {out}: ")


# ------------------------------------------------------------ counterexample


def test_counterexample_reproduces_claim(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    assert "p(1-q)p = 0" in out
    assert "MP inverse: none among 64 candidates" in out
    assert "claim reproduced" in out


def test_counterexample_deterministic(capsys):
    _, first, _ = run_cli(capsys, "counterexample")
    _, second, _ = run_cli(capsys, "counterexample")
    assert first == second


def test_counterexample_json(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reproduced"] is True
    assert payload["p"] == "X"
    assert payload["q"] == "1 + Y"
    assert payload["corner"]["mp"] == "0"
    assert payload["product"]["mp_exists"] is False
    assert payload["product"]["rejections"]["eq1"] == 64


def test_counterexample_evidence_shape():
    evidence = counterexample_evidence()
    assert evidence["elements"] == 64
    assert evidence["corner"]["element"] == "0"
    assert evidence["product"]["element"] == "XY"


# ----------------------------------------------------------------- enumerate


def test_enumerate_example26_projections(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "example26", "--what", "projections")
    assert code == 0
    lines = out.strip().splitlines()
    assert "X" in lines
    assert "1 + Y" in lines
    assert len(lines) == 12


def test_enumerate_example26_mp_invertible(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "example26", "--what", "mp-invertible")
    assert code == 0
    lines = out.strip().splitlines()
    assert "0" in lines
    assert "1" in lines
    assert "XY" not in lines


def test_enumerate_gf2_projections(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "gf:2", "--n", "2", "--what", "projections"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "1 0; 0 1" in lines
    assert "0 0; 0 0" in lines


def test_enumerate_gf2_mp_invertible(capsys):
    from starinv.matrices import ExactMatrix, mp_inverse
    from starinv.scalars import PrimeField

    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "gf:2", "--n", "2", "--what", "mp-invertible"
    )
    assert code == 0
    field = PrimeField(2)
    expected = sum(
        mp_inverse(ExactMatrix(field, 2, 2, [(m >> k) & 1 for k in range(4)])) is not None
        for m in range(16)
    )
    assert len(out.strip().splitlines()) == expected > 0


def test_enumerate_too_large(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("built a matrix past the cap")

    monkeypatch.setattr(generators, "inverse", must_not_run)
    for n in ("9", "1000"):  # GF(2)^9 has 8,283,458 subspaces
        code, _, err = run_cli(
            capsys, "enumerate", "--ring", "gf:2", "--n", n, "--what", "projections"
        )
        assert code == 2
        assert "cap" in err


def test_enumerate_gf7_projections_beyond_the_matrix_cap(capsys):
    # 7^9 matrices, but only 116 subspaces of GF(7)^3 to walk
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "gf:7", "--n", "3", "--what", "projections"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 100
    assert "1 0 0; 0 1 0; 0 0 1" in lines


def test_enumerate_mp_invertible_keeps_the_matrix_cap(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("scanned matrices past the cap")

    monkeypatch.setattr(cli, "mp_inverse", must_not_run)
    for n in ("3", "1000"):
        code, _, err = run_cli(
            capsys, "enumerate", "--ring", "gf:7", "--n", n, "--what", "mp-invertible"
        )
        assert code == 2
        assert "cap" in err


def test_enumerate_rejects_nonpositive_size(capsys):
    for what in ("projections", "mp-invertible"):
        for n in ("0", "-1"):
            code, _, err = run_cli(capsys, "enumerate", "--ring", "gf:2", "--n", n, "--what", what)
            assert code == 2
            assert "--n must be positive" in err


def test_enumerate_rejects_infinite_ring(capsys):
    for ring in ("q", "qi"):
        code, _, err = run_cli(capsys, "enumerate", "--ring", ring, "--what", "projections")
        assert code == 2 and "finite ring" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("starinv ")
