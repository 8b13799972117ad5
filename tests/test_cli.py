"""CLI contract: schemas, precedence, determinism, exit codes."""

import json
import math

import pytest

from thetawell import cli
from thetawell.cli import ConfigError, JobConfig, main
from thetawell.numerics import cutoff_for
from thetawell.verification import CheckResult
from thetawell.wavefunction import NATURAL_UNITS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


# ---------------------------------------------------------------- schemas


def test_density_csv_schema(capsys):
    code, out, _ = run_cli(capsys, ["density", "--grid-x", "5", "--grid-t", "3"])
    assert code == 0
    meta = [line for line in out.splitlines() if line.startswith("#")]
    assert meta[0] == "# thetawell density"
    assert any(line.startswith("# units:") for line in meta)
    body = data_lines(out)
    assert body[0] == "x,t,value,tag"
    rows = [line.split(",") for line in body[1:]]
    assert len(rows) == 5 * 3
    for x, t, value, tag in rows:
        assert tag == "finite"
        assert float(value) >= 0.0  # tiny truncation residue is clamped
        assert 0.0 <= float(x) <= 1.0 and float(t) >= 0.0


def test_no_timestamps_in_metadata(capsys):
    _, out, _ = run_cli(capsys, ["density", "--grid-x", "2", "--grid-t", "2"])
    meta = [line for line in out.splitlines() if line.startswith("#")]
    allowed = (
        "# thetawell ",
        "# mu = ",
        "# beta = ",
        "# grid_x = ",
        "# grid_t = ",
        "# t_span = ",
        "# m = ",
        "# l = ",
        "# hbar = ",
        "# tol = ",
        "# units: ",
    )
    for line in meta:
        assert line.startswith(allowed)


def test_density_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["density", "--grid-x", "4", "--grid-t", "2", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert set(rows[0]) == {"x", "t", "value", "tag"}
    assert all(row["tag"] == "finite" for row in rows)


def test_averaged_density_has_no_time(capsys):
    code, out, _ = run_cli(capsys, ["averaged-density", "--grid-x", "4"])
    assert code == 0
    rows = [line.split(",") for line in data_lines(out)[1:]]
    assert len(rows) == 4
    assert all(row[1] == "" for row in rows)  # t column stays empty

    _, out_json, _ = run_cli(
        capsys, ["averaged-density", "--grid-x", "4", "--format", "json"]
    )
    assert all(row["t"] is None for row in json.loads(out_json))


def test_velocity_wall_rows_tagged(capsys):
    code, out, _ = run_cli(capsys, ["velocity", "--grid-x", "3", "--grid-t", "2"])
    assert code == 0
    rows = [line.split(",") for line in data_lines(out)[1:]]
    walls = [row for row in rows if float(row[0]) in (0.0, 1.0)]
    assert walls and all(row[2] == "" and row[3] == "node-undefined" for row in walls)
    interior = [row for row in rows if row[3] == "finite"]
    assert interior and all(math.isfinite(float(row[2])) for row in interior)


def test_energy_pole_rows(capsys):
    _, out, _ = run_cli(
        capsys, ["energy", "--grid-x", "3", "--grid-t", "2", "--format", "json"]
    )
    rows = json.loads(out)
    walls = [row for row in rows if row["x"] in (0.0, 1.0)]
    assert walls and all(row["value"] is None and row["tag"] == "pole" for row in walls)


def test_wigner_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["wigner", "--grid-x", "3", "--grid-t", "2", "--beta", "0.5"]
    )
    assert code == 0
    body = data_lines(out)
    assert body[0] == "x,t,s,momentum,weight"
    rows = [line.split(",") for line in body[1:]]
    atoms = 2 * (2 * cutoff_for(0.5) + 1) + 1
    assert len(rows) == 3 * 2 * atoms
    svals = {int(row[2]) for row in rows}
    assert max(svals) == -min(svals) == (atoms - 1) // 2


def test_thermo_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["thermo", "--mu", "1..3", "--beta-sweep", "0.5:1.0:3", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["mu"], r["beta"]) for r in rows] == [
        (mu, b) for mu in (1, 2, 3) for b in (0.5, 0.75, 1.0)
    ]
    assert set(rows[0]) == {"mu", "beta", "mean_energy", "entropy"}
    # entropy is mu-independent; energy scales as mu^2
    by = {(r["mu"], r["beta"]): r for r in rows}
    assert by[(3, 0.5)]["entropy"] == pytest.approx(by[(1, 0.5)]["entropy"], abs=1e-12)
    assert by[(2, 1.0)]["mean_energy"] == pytest.approx(
        4.0 * by[(1, 1.0)]["mean_energy"], rel=1e-12
    )


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--grid-x", "4", "--grid-t", "3", "--beta", "0.2"],
        ["thermo", "--mu", "1..2", "--beta-sweep", "0.1:1.0:4"],
        ["wigner", "--grid-x", "2", "--grid-t", "2", "--format", "json"],
    ],
)
def test_reruns_byte_identical(capsys, argv):
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["density", "--grid-x", "3", "--grid-t", "2"]
    _, out, _ = run_cli(capsys, argv)
    target = tmp_path / "field.csv"
    code, silent, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert silent == ""
    assert target.read_text(encoding="utf-8") == out


# ---------------------------------------------------------------- precedence


def test_config_file_beats_default(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("beta = 0.5  # half width\ngrid_x = 3\n", encoding="utf-8")
    _, out, _ = run_cli(capsys, ["density", "--grid-t", "2", "--config", str(cfg)])
    assert "# beta = 0.5" in out
    assert "# grid_x = 3" in out


def test_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("beta = 0.5\n", encoding="utf-8")
    _, out, _ = run_cli(
        capsys, ["density", "--grid-x", "2", "--grid-t", "2", "--beta", "0.7", "--config", str(cfg)]
    )
    assert "# beta = 0.7" in out


def test_env_tol_beats_default(capsys, monkeypatch):
    monkeypatch.setenv("THETAWELL_TOL", "1e-6")
    _, out, _ = run_cli(capsys, ["density", "--grid-x", "2", "--grid-t", "2"])
    assert "# tol = 1e-06" in out


def test_config_file_beats_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("THETAWELL_TOL", "1e-6")
    cfg = tmp_path / "job.cfg"
    cfg.write_text("tol = 1e-8\n", encoding="utf-8")
    _, out, _ = run_cli(
        capsys, ["density", "--grid-x", "2", "--grid-t", "2", "--config", str(cfg)]
    )
    assert "# tol = 1e-08" in out


def test_flag_beats_env_and_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("THETAWELL_TOL", "1e-6")
    cfg = tmp_path / "job.cfg"
    cfg.write_text("tol = 1e-8\n", encoding="utf-8")
    _, out, _ = run_cli(
        capsys,
        ["density", "--grid-x", "2", "--grid-t", "2", "--tol", "1e-10", "--config", str(cfg)],
    )
    assert "# tol = 1e-10" in out


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--grid-x", "1"],
        ["density", "--tol", "0.5"],
        ["density", "--tol", "0"],
        ["density", "--beta", "-1"],
        ["density", "--mu", "0"],
        ["density", "--mu", "1..3"],  # range is thermo-only
        ["density", "--format", "xml"],
        ["thermo", "--beta-sweep", "0.5:0.1:3"],
        ["thermo", "--beta-sweep", "a:b:3"],
        ["bogus"],
    ],
)
def test_invalid_configuration_exits_1(capsys, argv):
    code, _, _ = run_cli(capsys, argv)
    assert code == 1


def test_invalid_env_tol_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("THETAWELL_TOL", "abc")
    code, _, _ = run_cli(capsys, ["density", "--grid-x", "2", "--grid-t", "2"])
    assert code == 1


def test_unknown_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("betta = 0.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["density", "--config", str(cfg)])
    assert code == 1
    assert "betta" in err


def test_truncation_overflow_exits_2(capsys):
    code, _, err = run_cli(capsys, ["density", "--beta", "1e-8", "--grid-x", "2", "--grid-t", "2"])
    assert code == 2
    assert err
    # the boundary: beta = 6.10e-7 needs cutoff 4101 > 4096, beta = 6.12e-7 needs 4095
    code, _, err = run_cli(capsys, ["density", "--beta", "6.10e-7", "--grid-x", "2", "--grid-t", "2"])
    assert code == 2
    assert "cutoff 4101" in err
    code, out, _ = run_cli(capsys, ["density", "--beta", "6.12e-7", "--grid-x", "2", "--grid-t", "2"])
    assert code == 0
    assert len(data_lines(out)) == 1 + 2 * 2


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "thetawell" in out


# ---------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert len(records) == 14
    assert all(r["passed"] for r in records)
    assert all(
        set(r) == {"check", "passed", "measured", "tolerance", "detail"} for r in records
    )


def test_verify_text_lines(capsys, monkeypatch):
    # stub the registry so the text shape is testable without a full run
    stub = [
        CheckResult("alpha", True, 1e-12, 1e-9, "fine"),
        CheckResult("omega", False, 2e-3, 1e-9, "broken"),
    ]
    monkeypatch.setattr(cli, "run_all_checks", lambda *a, **k: stub)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("# thetawell verify")
    assert lines[1].startswith("PASS alpha")
    assert lines[3].startswith("FAIL omega")


# ---------------------------------------------------------------- JobConfig


def test_job_config_validates_directly():
    with pytest.raises(ConfigError):
        JobConfig(command="density", grid_t=1).validate()
    with pytest.raises(ConfigError):
        JobConfig(command="velocity", beta_sweep=(0.1, 1.0, 3)).validate()
    with pytest.raises(ConfigError):
        JobConfig(command="thermo", mu=3, mu_hi=2).validate()
    JobConfig(command="thermo", mu=1, mu_hi=4, beta_sweep=(0.1, 1.0, 5)).validate()


def test_clamp_only_truncation_residue():
    assert cli._clamp_density(-1e-13, NATURAL_UNITS) == 0.0
    assert cli._clamp_density(-1e-3, NATURAL_UNITS) == -1e-3
    assert cli._clamp_density(0.25, NATURAL_UNITS) == 0.25
