"""CLI contract: schemas, precedence, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from thetawell import cli
from thetawell.cli import ConfigError, JobConfig, main
from thetawell.density import averaged_density, density
from thetawell.numerics import FieldTag, cutoff_for
from thetawell.phase_space import moments, velocity_field, wigner_comb
from thetawell.thermo import entropy, gibbs_params, mean_energy_gibbs
from thetawell.verification import CheckResult
from thetawell.wavefunction import NATURAL_UNITS, QuantumState


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


def test_o1_term_commands_need_no_cutoff(capsys):
    """The averaged density and the Gibbs layer take the Poisson dual at small beta: no overflow."""
    code, out, err = run_cli(capsys, ["thermo", "--beta-sweep", "1e-8:1e-6:3"])
    assert code == 0, err
    rows = [line.split(",") for line in data_lines(out)[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[2:])
    code, out, err = run_cli(capsys, ["averaged-density", "--beta", "1e-7", "--grid-x", "9"])
    assert code == 0, err
    values = [float(line.split(",")[2]) for line in data_lines(out)[1:]]
    assert len(values) == 9 and all(math.isfinite(v) for v in values)
    assert values[0] == values[-1] == 0.0 and values[4] == 2.0
    # the instantaneous density still needs K ~ beta^(-1/2) modes
    code, _, err = run_cli(capsys, ["density", "--beta", "1e-7", "--grid-x", "2", "--grid-t", "2"])
    assert code == 2
    assert "truncation overflow" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "thetawell" in out


# ---------------------------------------------------------------- writer reference
# The row-dict emitters the column writer replaced, kept as its reference:
# one dict per row, ``json.dumps(rows, indent=1)``, and a CSV join of
# ``_fmt`` cells.  The writer must reproduce them byte for byte.


def _reference_fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _reference_emit(fmt, columns, rows, meta):
    if fmt == "json":
        return json.dumps(rows, indent=1)
    out = list(meta)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join("" if row[c] is None else _reference_fmt(row[c]) for c in columns))
    return "\n".join(out) + "\n"


def _reference_rows(config):
    """(columns, row dicts, units), built point by point for the wigner comb."""
    sys_params, trunc = config.system(), config.truncation()
    if config.command == "thermo":
        betas = [config.beta]
        if config.beta_sweep is not None:
            betas = [float(b) for b in np.linspace(*config.beta_sweep)]
        rows = []
        for mu in range(config.mu, (config.mu_hi or config.mu) + 1):
            for beta in betas:
                state = QuantumState(mu, beta)
                gp = gibbs_params(state, sys_params)
                rows.append(
                    {
                        "mu": mu,
                        "beta": beta,
                        "mean_energy": float(mean_energy_gibbs(gp, state, trunc)),
                        "entropy": float(entropy(gp, state, trunc)),
                    }
                )
        return ["mu", "beta", "mean_energy", "entropy"], rows, {"mean_energy": "energy", "entropy": "k_B"}
    state = QuantumState(config.mu, config.beta)
    xs, ts = cli._grids(config, sys_params)
    rows = []
    if config.command == "averaged-density":
        values = cli._clamp_density(averaged_density(xs, state, sys_params, trunc), sys_params)
        for x, value in zip(xs, values):
            rows.append({"x": float(x), "t": None, "value": float(value), "tag": "finite"})
        return ["x", "t", "value", "tag"], rows, {"x": "length", "value": "1/length"}
    if config.command == "wigner":
        for t in ts:
            for x in xs:
                for atom in wigner_comb(float(x), float(t), state, sys_params, trunc).atoms:
                    rows.append(
                        {"x": float(x), "t": float(t), "s": atom.s, "momentum": atom.momentum, "weight": atom.weight}
                    )
        units = {"x": "length", "t": "time", "momentum": "mass*length/time", "weight": "1/(length*action)"}
        return ["x", "t", "s", "momentum", "weight"], rows, units
    if config.command == "density":
        f = cli._clamp_density(density(xs[None, :], ts[:, None], state, sys_params, trunc), sys_params)
        value, tag, unit = f, np.full(f.shape, FieldTag.FINITE), "1/length"
    elif config.command == "velocity":
        sample = velocity_field(xs[None, :], ts[:, None], state, sys_params, trunc)
        value, tag, unit = sample.value, sample.tag, "length/time"
    else:
        sample = moments(xs[None, :], ts[:, None], state, sys_params, trunc).energy_density
        value, tag, unit = sample.value, sample.tag, "energy"
    for (i, j), cell_tag in np.ndenumerate(tag):
        cell = float(value[i, j]) if cell_tag is FieldTag.FINITE else None
        rows.append({"x": float(xs[j]), "t": float(ts[i]), "value": cell, "tag": str(cell_tag)})
    return ["x", "t", "value", "tag"], rows, {"x": "length", "t": "time", "value": unit}


WRITER_CASES = [
    ["density", "--grid-x", "5", "--grid-t", "3"],
    ["averaged-density", "--grid-x", "6"],
    ["velocity", "--mu", "2", "--grid-x", "5", "--grid-t", "3"],
    ["wigner", "--grid-x", "3", "--grid-t", "2", "--beta", "0.5", "--hbar", "0.6"],
    ["energy", "--mu", "2", "--m", "1.7", "--hbar", "0.6", "--grid-x", "5", "--grid-t", "3"],
    ["thermo", "--mu", "1..2", "--beta-sweep", "0.5:1.0:3"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_thermo_readme_sweep_matches_row_reference(capsys, fmt):
    """The README sweep (one Gibbs-sum call for its 40 widths) equals the per-row scalar readers."""
    argv = ["thermo", "--mu", "1..5", "--beta-sweep", "0.05:2.0:40", "--format", fmt]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    config = cli._build_config(cli._make_parser().parse_args(argv))
    columns, rows, units = _reference_rows(config)
    meta = cli._meta_lines(config, config.system(), columns, units)
    assert out == _reference_emit(fmt, columns, rows, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", WRITER_CASES, ids=lambda argv: argv[0])
def test_writer_matches_row_dict_reference(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    config = cli._build_config(cli._make_parser().parse_args(argv))
    columns, rows, units = _reference_rows(config)
    if config.command in ("velocity", "energy"):  # the walls' cells are null
        assert any(row["value"] is None for row in rows)
    assert out == _reference_emit(fmt, columns, rows, cli._meta_lines(config, config.system(), columns, units))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_edge_cells(fmt):
    # equal values of different kinds or signs keep their own tokens: -0.0 == 0.0 and 1 == True
    cells = [0.0, -0.0, 1, True, False, 0, None, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
    cells += ['say "hi" \\ \u03b2 \u2264 1e-9', "tab\tnew\nline\x01", ""]
    axis = [-0.0, 0.0, 1.0, -0.0]  # indexed: formatted once per position, never merged by value
    index = np.arange(len(cells)) % len(axis)
    columns = {"cell": cli._Column(cells), "axis": cli._Column(axis, index)}
    rows = [{"cell": cell, "axis": axis[i]} for cell, i in zip(cells, index)]
    meta = ["# edge cells"]
    assert cli._table_text(fmt, columns, meta) == _reference_emit(fmt, list(columns), rows, meta)


def test_writer_empty_table():
    assert cli._table_text("json", {"x": cli._Column([])}, []) == json.dumps([], indent=1)
    assert cli._table_text("csv", {"x": cli._Column([])}, ["# none"]) == _reference_emit("csv", ["x"], [], ["# none"])


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


def test_verify_json_matches_json_dumps(capsys, monkeypatch):
    stub = [
        CheckResult("alpha", True, 1e-12, 1e-9, 'fine: "quoted" \\ \u03b2 \u2264 1e-9\n'),
        CheckResult("omega", False, math.inf, 1e-9, "diverged"),
        CheckResult("nan", False, math.nan, -0.0, ""),
    ]
    monkeypatch.setattr(cli, "run_all_checks", lambda *a, **k: stub)
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 3
    records = [
        {"check": r.name, "passed": r.passed, "measured": r.measured, "tolerance": r.tolerance, "detail": r.detail}
        for r in stub
    ]
    assert out == json.dumps(records, indent=1)


def test_parser_reused_across_runs(capsys):
    assert cli._make_parser() is cli._make_parser()
    # a failed parse leaves nothing behind for the next one
    assert run_cli(capsys, ["density", "--grid-x", "two"])[0] == 1
    assert run_cli(capsys, ["--help"])[0] == 0
    code, out, _ = run_cli(capsys, ["density", "--grid-x", "2", "--grid-t", "2"])
    assert code == 0 and "# grid_x = 2" in out and "# beta = 0.1" in out


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
