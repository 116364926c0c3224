"""Command-line interface: literals, exit codes, config files, CSV output."""

import json

import pytest

from defectbench.bench import convergence
from defectbench.cli import parse_complex, run
from defectbench.eigensolve import EigsNotConvergedError, eigs_near


# ------------------------------------------------------------ complex parsing


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("3i", 3j),
        ("-0.5i", -0.5j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("-1.5e-3+2E+4i", -1.5e-3 + 2e4j),
        ("5.250721274740938+6.750931815875402i", 5.250721274740938 + 6.750931815875402j),
    ],
)
def test_parse_complex_literals(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "1+2j", "1 + 2i", "i", "1+i2", "abc"])
def test_parse_complex_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_complex(text)


# ------------------------------------------------------------------ commands


def test_verify_published_case(capsys):
    assert run(["verify", "--case", "regular1d"]) == 0
    out = capsys.readouterr().out
    assert "ascent 3" in out


def test_unknown_case_is_usage_error(capsys):
    assert run(["verify", "--case", "nope"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_convergence_writes_table_and_rates(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run(["convergence", "--case", "regular1d", "--p", "1",
                "--levels", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4 * 4  # header + 4 levels x (3 eigs + mean)
    rates = tmp_path / "conv.rates.csv"
    assert rates.exists()
    assert len(rates.read_text().strip().split("\n")) == 1 + 4  # err1..3, mean


def test_config_file_supplies_parameters(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "b": 0.5,
        "a_R": "0.1069220800406739+0.08937533852238478i",
        "c": "-0.9634059612381408+0.5989684988897067i",
        "lambda": "5.250721274740938+6.750931815875402i",
    }))
    assert run(["verify", "--config", str(cfg)]) == 0
    assert "ascent 3" in capsys.readouterr().out


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": "1+0i"}))  # would break the ascent
    code = run(["verify", "--config", str(cfg),
                "--lambda", "5.250721274740938+6.750931815875402i"])
    assert code == 0
    assert "ascent 3" in capsys.readouterr().out


def test_find_params_roundtrips_into_verify(tmp_path, capsys):
    out = tmp_path / "forged.json"
    assert run(["find-params", "--case", "regular1d",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ascent"] == 3
    # verify accepts the forged file directly
    assert run(["verify", "--config", str(out)]) == 0
    assert "ascent 3" in capsys.readouterr().out


def test_malformed_complex_flag_is_usage_error(capsys):
    assert run(["verify", "--lambda", "5+2j"]) == 2


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert run(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_eigenfunction_command_runs(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code = run(["eigenfunction", "--case", "regular1d", "--p", "1",
                "--levels", "4", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "rates" in capsys.readouterr().out


def test_config_file_ascent_applies_without_defect_flag(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["find-params", "--case", "regular1d", "--defect", "2",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ascent"] == 2
    assert run(["verify", "--config", str(out)]) == 0
    assert "ascent 2" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["convergence", "--case", "regular2d_tri", "--p", "3"],
    ["adaptive", "--case", "reduced2d_tri", "--p", "3"],
    ["adaptive", "--case", "regular1d"],
    ["eigenfunction", "--case", "regular2d_tri"],
    ["sensitivity", "--case", "regular2d_tensor"],
])
def test_study_the_case_cannot_run_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "t.csv"
    assert run(argv + ["--levels", "3", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_failed_level_is_named_and_exits_1(tmp_path, capsys, monkeypatch):
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise EigsNotConvergedError("residuals above 1.0e-09")
        return eigs_near(*args, **kwargs)

    monkeypatch.setattr(convergence, "eigs_near", fake)
    out = tmp_path / "conv.csv"
    code = run(["convergence", "--case", "regular1d", "--p", "1",
                "--levels", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("regular1d level 1 failed: EigsNotConvergedError: "
            "residuals above 1.0e-09") in err
    # the good levels are still written
    assert len(out.read_text().strip().split("\n")) == 1 + 3 * 4
