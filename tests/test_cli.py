"""CLI contract: schemas, precedence, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell import cli, verification
from thetawell.cli import ConfigError, JobConfig, main
from thetawell.density import averaged_density, density, period
from thetawell.numerics import DEFAULT_TRUNCATION, FieldTag, cutoff_for
from thetawell.phase_space import _energy_field, moments, velocity_field, wigner_comb
from thetawell.thermo import entropy, gibbs_params, mean_energy_gibbs
from thetawell.verification import CheckResult
from thetawell.wavefunction import NATURAL_UNITS, QuantumState, jet_forms


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


def test_out_file_longer_than_one_write_matches_stdout_bytes(capsys, tmp_path):
    """--out writes the table a slice at a time; the file still holds stdout's bytes exactly."""
    argv = ["wigner", "--grid-x", "16", "--grid-t", "4", "--format", "json"]
    _, out, _ = run_cli(capsys, argv)
    assert len(out) > 2 * cli._WRITE_CHARS and len(out) % cli._WRITE_CHARS
    target = tmp_path / "comb.json"
    code, silent, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert (code, silent) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


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
        ["velocity", "--t-span", "inf"],
        ["density", "--t-span", "inf"],
        ["bogus"],
    ],
)
def test_invalid_configuration_exits_1(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 1 and len(err.splitlines()) == 1, err


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


def test_unwritable_out_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, ["density", "--grid-x", "2", "--grid-t", "2", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"thetawell: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.parent.exists()


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


_EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
_CELL_KINDS = {
    "float": _FLOATS,
    "float-or-none": st.one_of(_FLOATS, st.none()),
    "mixed": st.one_of(
        _FLOATS, st.integers(-(2**64), 2**64), st.booleans(), st.text(max_size=6), st.none()
    ),
    "float64": st.one_of(_FLOATS.map(np.float64), _FLOATS),
}


@st.composite
def _tables(draw):
    """(columns, reference rows, meta): 0-40 rows, each column of one kind, plain or indexed."""
    n = draw(st.integers(0, 40))
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        cells = _CELL_KINDS[draw(st.sampled_from(sorted(_CELL_KINDS)))]
        if draw(st.booleans()):
            values = draw(st.lists(cells, min_size=n, max_size=n))
            columns[name] = cli._Column(values)
        else:  # indexed: positions repeat by index, never merged by value
            values = draw(st.lists(cells, min_size=1, max_size=6))
            index = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
            columns[name] = cli._Column(values, np.array(index, dtype=int))
    rows = [
        {name: c.values[r if c.index is None else c.index[r]] for name, c in columns.items()} for r in range(n)
    ]
    meta = draw(st.lists(st.text(alphabet=st.characters(exclude_characters="\n\r"), max_size=8), max_size=2))
    return columns, rows, meta


@settings(max_examples=200, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_writer_matches_reference_on_random_tables(table, fmt):
    columns, rows, meta = table
    assert cli._table_text(fmt, columns, meta) == _reference_emit(fmt, list(columns), rows, meta)


def test_writer_peak_memory_is_bounded_by_its_text():
    """The README ``wigner --format json`` table peaks at most 3x its text under tracemalloc.

    The token lists and the one join's item list are what the writer holds
    beside the text; a per-row string or a copy of the body would exceed it.
    """
    argv = ["wigner", "--grid-x", "32", "--grid-t", "8", "--format", "json"]
    config = cli._build_config(cli._make_parser().parse_args(argv))
    columns, units = cli._field_table(config)
    meta = cli._meta_lines(config, config.system(), list(columns), units)
    tracemalloc.start()
    try:
        text = cli._table_text("json", columns, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), (peak, len(text))


PHENOMENA_GRID = "phenomena"


@pytest.mark.parametrize(
    "argv",
    [
        WRITER_CASES[4],
        ["energy", "--beta", "0.2"],
        ["energy", "--mu", "2", "--beta", "0.1"],
        ["energy", "--beta", "0.02"],
        PHENOMENA_GRID,
    ],
    ids=["writer-case", "readme", "mu2-beta0.1", "beta0.02", "phenomena-grid"],
)
def test_energy_field_equals_moment_set(argv):
    """The energy command's field, from an order-2 jet, is ``moments(...).energy_density`` bit for bit.

    The last case is the phenomena check's 49 x 13 grid at the registry
    state, through the order-2 jet field that the check reads.
    """
    if argv == PHENOMENA_GRID:
        state, sys_params, trunc = QuantumState(1, 0.1), NATURAL_UNITS, DEFAULT_TRUNCATION
        xs = np.linspace(0.02 * sys_params.l, 0.98 * sys_params.l, 49)
        ts = np.linspace(0.0, period(state, sys_params), 13)
        got = _energy_field(jet_forms(xs[None, :], ts[:, None], state, sys_params, trunc, order=2), sys_params)
        tags = got.tag.ravel().astype(str)
        values = np.where(got.tag.ravel() == FieldTag.FINITE, got.value.ravel(), None).tolist()
    else:
        config = cli._build_config(cli._make_parser().parse_args(argv))
        sys_params, trunc = config.system(), config.truncation()
        state = QuantumState(config.mu, config.beta)
        xs, ts = cli._grids(config, sys_params)
        columns, _ = cli._field_table(config)
        tags = np.array(columns["tag"].values, dtype=object)[columns["tag"].index].astype(str)
        values = columns["value"].values
    want = moments(xs[None, :], ts[:, None], state, sys_params, trunc).energy_density
    # the CLI grids reach the walls, where the field is a pole; the phenomena grid stops short of them
    assert (want.tag == FieldTag.POLE).any() == (argv != PHENOMENA_GRID) and (want.tag == FieldTag.FINITE).any()
    assert tags.tolist() == [str(tag) for tag in want.tag.ravel().tolist()]
    finite = want.tag.ravel() == FieldTag.FINITE
    want_values = np.where(finite, want.value.ravel(), None).tolist()
    assert list(map(repr, values)) == list(map(repr, want_values))  # repr keeps every bit


# ---------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert len(records) == 14
    assert all(r["passed"] for r in records)
    assert all(
        set(r) == {"check", "passed", "measured", "tolerance", "margin", "detail"} for r in records
    )
    assert all(r["margin"] == r["tolerance"] / r["measured"] > 1.0 for r in records if r["measured"])


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
        {
            "check": r.name,
            "passed": r.passed,
            "measured": r.measured,
            "tolerance": r.tolerance,
            "margin": r.margin,
            "detail": r.detail,
        }
        for r in stub
    ]
    assert out == json.dumps(records, indent=1)


def test_verify_prints_margins(capsys, monkeypatch):
    """Each check's margin, tolerance / measured, on its text line and in its JSON record.

    A figure of 0 has an infinite margin; a NaN figure a NaN one, and its
    check fails however it was judged.
    """
    results = [
        verification._verdict("passing", [("a", 2e-12, 1e-9), ("b", 0.0, 1e-6)]),
        verification._verdict("failing", [("a", 5e-9, 1e-9)]),
        verification._verdict("zero", [("a", 0.0, 1e-9)]),
        verification._verdict("nan", [("a", 1e-12, 1e-9), ("b", math.nan, 1e-6)]),
    ]
    assert [r.passed for r in results] == [True, False, True, False]
    monkeypatch.setattr(cli, "run_all_checks", lambda *a, **k: results)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 3
    status = out.splitlines()[1::2]
    assert [line.split()[0] for line in status] == ["PASS", "FAIL", "PASS", "FAIL"]
    assert [line.split()[-1] for line in status] == ["margin=500", "margin=0.2", "margin=inf", "margin=nan"]
    code, out, _ = run_cli(capsys, ["verify", "--format", "json"])
    margins = [r["margin"] for r in json.loads(out)]
    assert margins[:3] == [1e-9 / 2e-12, 1e-9 / 5e-9, math.inf] and math.isnan(margins[3])


def test_python_m_thetawell_runs_the_cli(capsys):
    """``python3 -m thetawell`` from a checkout (package on PYTHONPATH) is the ``thetawell`` command."""
    argv = ["density", "--grid-x", "2", "--grid-t", "2"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "thetawell", *argv], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    code, out, err = run_cli(capsys, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")
    assert len(data_lines(out)) == 1 + 2 * 2


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
