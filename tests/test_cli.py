"""Command-line interface: literals, exit codes, config files, CSV output."""

import json
import shlex
from pathlib import Path

import pytest

from defectbench import cli
from defectbench.bench import REGULAR_CONFIG, convergence
from defectbench.cli import parse_complex, run
from defectbench.eigensolve import EigsNotConvergedError, eigs_near
from defectbench.paramfind import (SolverDivergedError, config_to_json,
                                   solve_defect_system)

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def no_computation(monkeypatch):
    """Make every computing entry point of the CLI fail the test."""
    def computed(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("verify_configuration", "solve_defect_system",
                 "run_convergence", "sensitivity_study", "adaptive_loop",
                 "eigenfunction_convergence"):
        monkeypatch.setattr(cli, name, computed)


@pytest.fixture
def no_study(monkeypatch):
    """Make every study of the CLI fail the test; certification still runs."""
    def computed(*args, **kwargs):
        raise AssertionError("study started")

    for name in ("run_convergence", "sensitivity_study", "adaptive_loop",
                 "eigenfunction_convergence"):
        monkeypatch.setattr(cli, name, computed)


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
    ["convergence", "--case", "regular2d_tri", "--p", "3", "--levels", "3"],
    ["adaptive", "--case", "reduced2d_tri", "--p", "3"],
    ["adaptive", "--case", "regular1d"],
    ["eigenfunction", "--case", "regular2d_tri", "--levels", "3"],
    ["sensitivity", "--case", "regular2d_tensor", "--levels", "3"],
])
def test_study_the_case_cannot_run_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "t.csv"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")  # the study's rule, not argparse's
    assert not out.exists()


@pytest.mark.parametrize("b", ["0.4", "0.3"])
def test_aligned_triangle_case_needs_b_on_the_initial_mesh(no_computation,
                                                           capsys, b):
    # the triangle meshes have lines at multiples of 1/4 only, so the
    # jump would cut triangles of a case that claims aligned meshes
    assert run(["convergence", "--case", "regular2d_tri", "--b", b,
                "--levels", "5"]) == 2
    assert f"b = {b} is not a line" in capsys.readouterr().err
    # the tensor meshes force a node at any b: certification is reached
    with pytest.raises(AssertionError, match="computation started"):
        run(["convergence", "--case", "regular2d_tensor", "--b", b,
             "--levels", "5"])


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


@pytest.mark.parametrize("argv", [
    ["find-params", "--defect", "4"],
    ["sensitivity", "--deltas", "-1"],
    ["sensitivity", "--deltas", "x"],
    ["adaptive", "--case", "reduced2d_tri", "--theta", "2"],
    ["convergence", "--levels", "2"],
    ["eigenfunction", "--levels", "1"],
    ["sensitivity", "--levels", "2"],
    ["adaptive", "--case", "reduced2d_tri", "--max-dofs", "10"],
    ["adaptive", "--case", "reduced2d_tri", "--max-dofs", "0"],
])
def test_bad_option_value_is_usage_error_before_computing(no_computation,
                                                           capsys, tmp_path,
                                                           argv):
    out = tmp_path / "t.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert "computation failed" not in capsys.readouterr().err
    assert not out.exists()


def test_declared_failure_exits_1_with_its_type(monkeypatch, capsys):
    def diverged(*args, **kwargs):
        raise SolverDivergedError("line search failed")

    monkeypatch.setattr(cli, "solve_defect_system", diverged)
    assert run(["find-params", "--case", "regular1d"]) == 1
    assert ("computation failed: SolverDivergedError: line search failed"
            in capsys.readouterr().err)


def test_programming_error_propagates_out_of_run(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(convergence, "eigs_near", broken)
    with pytest.raises(TypeError, match="bad argument"):
        run(["convergence", "--case", "regular1d", "--levels", "3"])


@pytest.mark.parametrize("argv", [
    ["verify", "--levels", "0"],
    ["verify", "--p", "3"],
    ["verify", "--out", "x.csv"],
    ["find-params", "--p", "2"],
    ["adaptive", "--case", "reduced2d_tri", "--levels", "3"],
])
def test_flag_the_command_does_not_read_is_usage_error(no_computation, capsys,
                                                       tmp_path, monkeypatch,
                                                       argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_defect_flag_applies_without_other_parameters(capsys):
    # regular1d has ascent 3, so the claim of ascent 2 must not be certified
    assert run(["verify", "--case", "regular1d", "--defect", "2"]) == 1
    assert "converged False" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"levels": 2, "p": 2, "case": "nope"},
    {"ascent": "x"},
    {"ascent": 2.5},
    {"b": True},
    {"a_R": {"re": 1.0, "im": None}},
])
def test_malformed_config_value_is_usage_error(no_computation, tmp_path,
                                               capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    assert run(["convergence", "--config", str(cfg), "--levels", "3",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    (["--b", "x"], "error: --b: could not convert string to float: 'x'"),
    (["--lambda", "5+2j"], "error: --lambda: malformed complex literal"),
    (["--defect", "2.5"], "error: --defect: invalid literal for int()"),
])
def test_malformed_flag_value_is_named(no_computation, capsys, argv, error):
    assert run(["convergence", "--levels", "3"] + argv) == 2
    assert capsys.readouterr().err.startswith(error)


@pytest.mark.parametrize("doc,key", [({"ascent": "x"}, "ascent"),
                                     ({"b": True}, "b"),
                                     ({"a_R": {"re": 1.0, "im": None}}, "a_R")])
def test_malformed_config_value_is_named(no_computation, tmp_path, capsys,
                                         doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["convergence", "--config", str(cfg), "--levels", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {key}: ")


@pytest.mark.parametrize("argv,error", [
    (["convergence", "--case", "regular1d", "--defect", "2", "--levels", "8"],
     "error: case regular1d: certified ascent 3, not 2"),
    (["convergence", "--case", "regular1d", "--defect", "4", "--levels", "8"],
     "error: case regular1d: certified ascent 3, not 4"),
    (["convergence", "--case", "regular2d_tri", "--b", "0.25", "--levels", "3"],
     "error: case regular2d_tri: certified ascent 0, not 3"),
    (["sensitivity", "--case", "regular1d", "--defect", "2"],
     "certified ascent 3, not 2"),
    (["eigenfunction", "--case", "regular1d", "--lambda", "5+6i"],
     "certified ascent 0, not 3"),
    (["adaptive", "--case", "reduced2d_tri", "--defect", "1"],
     "certified ascent 3, not 1"),
])
def test_study_of_an_uncertified_ascent_is_usage_error(no_study, tmp_path,
                                                       capsys, argv, error):
    out = tmp_path / "t.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_uncertifiable_set_is_uncertified_in_verify_and_studies(tmp_path,
                                                               capsys):
    # the contour rule of --lambda 1e5 does not converge: verify reports
    # ascent 0 and a study refuses the set, instead of either raising
    assert run(["verify", "--lambda", "1e5"]) == 1
    assert capsys.readouterr().out == (
        "case regular1d: ascent 0, residual nan, converged False\n")
    out = tmp_path / "t.csv"
    assert run(["convergence", "--lambda", "1e5", "--levels", "3",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: case regular1d: certified ascent 0, not 3\n")
    assert not out.exists()


def test_sensitivity_without_a_reference_exits_1(capsys):
    assert run(["sensitivity", "--case", "regular1d", "--deltas", "0.5",
                "--levels", "3"]) == 1
    assert ("computation failed: RootCountError: delta 0.5: det M has 1 roots"
            in capsys.readouterr().err)


def test_sensitivity_separations_are_those_of_the_roots_of_det(capsys):
    # the separations come from the references alone, not from the levels
    assert run(["sensitivity", "--case", "reduced1d", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "delta=0.01: separation 12.078," in out
    assert "delta=1e-06: separation 0.533," in out


def test_cluster_size_follows_the_ascent(tmp_path, capsys):
    par = REGULAR_CONFIG.params
    forged = solve_defect_system(0.4, 2, (par.a_R, par.c, REGULAR_CONFIG.lam))
    assert forged.certified_ascent == 2
    cfg = tmp_path / "ascent2.json"
    cfg.write_text(config_to_json(forged.solution))
    out = tmp_path / "conv.csv"
    assert run(["convergence", "--config", str(cfg), "--levels", "8",
                "--p", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 8 * (2 + 1)  # header + 8 levels x (2 eigs + mean)
    rates = {line.split(",")[2]: float(line.split(",")[3])
             for line in (tmp_path / "conv.rates.csv").read_text().split()[1:]}
    assert set(rates) == {"err1", "err2", "mean"}
    assert rates["mean"] == pytest.approx(-2.0, abs=0.1)  # P1 in 1D: h^2


def test_study_that_fits_no_rate_exits_1(tmp_path, capsys):
    out = tmp_path / "amr.csv"
    # 16 free P1 DOFs: the budget admits the initial mesh only
    assert run(["adaptive", "--case", "reduced2d_tri", "--max-dofs", "16",
                "--out", str(out)]) == 1
    assert ("reduced2d_tri: no rate fitted from 1 good levels"
            in capsys.readouterr().err)
    assert len(out.read_text().strip().split("\n")) == 1 + 9 + 1


def test_readme_commands_parse():
    commands = [line.split("#")[0] for line in README.read_text().splitlines()
                if line.startswith("defectbench ")]
    assert len(commands) >= 7
    parser = cli._build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
