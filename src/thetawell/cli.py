"""Command-line front end: tabulate fields onto grids and export CSV or JSON.

Every command is deterministic: the same configuration produces byte-identical
output (the library has no hidden randomness, and no timestamps are written).
CSV starts with ``#``-prefixed metadata lines echoing the resolved
configuration and the units of each column; pole and node samples serialize
with an empty value and a tag, never as fake numbers.

Tables are written column by column (``_table_text``): a column of plain
floats is tokenized by one ``float.__repr__`` pass, every other column cell by
cell through ``_fmt`` or ``_json_token``, and the text is one join of the
token lists with fixed separators.  JSON output equals
``json.dumps(rows, indent=1)`` of the row dicts, byte for byte.

Configuration precedence: command-line flags beat a ``--config`` key=value
file, which beats the ``THETAWELL_TOL`` environment variable, which beats the
built-in defaults.

Exit codes: 0 success, 1 invalid configuration, 2 truncation overflow,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .density import averaged_density, density, period
from .numerics import DEFAULT_TRUNCATION, FieldSample, FieldTag, Truncation, TruncationOverflowError
from .phase_space import _energy_field, _floor_for, comb_atoms, velocity_field
from .thermo import gibbs_table
from .verification import run_all_checks
from .wavefunction import QuantumState, SystemParams, jet_forms

__all__ = ["JobConfig", "run", "main"]

_COMMANDS = ("density", "averaged-density", "velocity", "wigner", "energy", "thermo", "verify")

_ENV_TOL = "THETAWELL_TOL"


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 1."""


@dataclass(frozen=True)
class JobConfig:
    """Fully resolved description of one CLI job."""

    command: str
    mu: int = 1
    mu_hi: int | None = None  # inclusive upper end of a mu range (thermo sweeps)
    beta: float = 0.1
    beta_sweep: tuple[float, float, int] | None = None  # (start, stop, count)
    grid_x: int = 64
    grid_t: int = 16
    t_span: float = 1.0  # time window in multiples of the period
    m: float = 1.0
    l: float = 1.0
    hbar: float = 1.0
    tol: float = DEFAULT_TRUNCATION.tol
    out_path: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.mu < 1:
            raise ConfigError("mu must be a positive integer")
        if self.mu_hi is not None:
            if self.command != "thermo":
                raise ConfigError("a mu range is only meaningful for the thermo command")
            if self.mu_hi < self.mu:
                raise ConfigError("mu range upper end must be >= its lower end")
        if self.beta_sweep is not None:
            if self.command != "thermo":
                raise ConfigError("--beta-sweep is only meaningful for the thermo command")
            start, stop, count = self.beta_sweep
            if not (0.0 < start <= stop) or count < 2:
                raise ConfigError("beta sweep needs 0 < start <= stop and count >= 2")
        if not self.beta > 0.0:
            raise ConfigError("beta must be positive")
        if self.grid_x < 2 or self.grid_t < 2:
            raise ConfigError("grid sizes must be at least 2")
        if not (self.t_span > 0.0 and math.isfinite(self.t_span)):
            raise ConfigError("t-span must be positive and finite")
        if not (0.0 < self.tol <= 1e-4):
            raise ConfigError("tol must lie in (0, 1e-4]")
        if min(self.m, self.l, self.hbar) <= 0.0:
            raise ConfigError("m, l, hbar must be positive")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")

    def system(self) -> SystemParams:
        return SystemParams(m=self.m, l=self.l, hbar=self.hbar)

    def truncation(self) -> Truncation:
        return Truncation(tol=self.tol, max_index=DEFAULT_TRUNCATION.max_index)


def _parse_mu(text: str) -> tuple[int, int | None]:
    """Parse '3' or an inclusive range '1..5'."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(lo), None
    except ValueError:
        raise ConfigError(f"cannot parse mu {text!r}") from None


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"beta sweep must be start:stop:count, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"cannot parse beta sweep {text!r}") from None


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return out


_FILE_KEYS = {
    "mu": str,
    "beta": float,
    "beta_sweep": str,
    "grid_x": int,
    "grid_t": int,
    "t_span": float,
    "m": float,
    "l": float,
    "hbar": float,
    "tol": float,
    "out": str,
    "format": str,
}


def _build_config(args: argparse.Namespace) -> JobConfig:
    """Merge defaults, environment, config file, and flags into one JobConfig."""
    merged: dict[str, object] = {"command": args.command}

    env_tol = os.environ.get(_ENV_TOL)
    if env_tol is not None:
        try:
            merged["tol"] = float(env_tol)
        except ValueError:
            raise ConfigError(f"{_ENV_TOL} must be a float, got {env_tol!r}") from None

    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown config file key {key!r}")
            try:
                value: object = _FILE_KEYS[key](raw)
            except ValueError:
                raise ConfigError(f"config file value for {key!r} is invalid: {raw!r}") from None
            if key == "mu":
                merged["mu"], merged["mu_hi"] = _parse_mu(str(value))
            elif key == "beta_sweep":
                merged["beta_sweep"] = _parse_sweep(str(value))
            elif key == "out":
                merged["out_path"] = value
            else:
                merged[key] = value

    flag_map = {
        "beta": "beta",
        "grid_x": "grid_x",
        "grid_t": "grid_t",
        "t_span": "t_span",
        "m": "m",
        "l": "l",
        "hbar": "hbar",
        "tol": "tol",
        "out": "out_path",
        "format": "format",
    }
    for flag, field in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            merged[field] = value
    if getattr(args, "mu", None) is not None:
        merged["mu"], merged["mu_hi"] = _parse_mu(args.mu)
    if getattr(args, "beta_sweep", None) is not None:
        merged["beta_sweep"] = _parse_sweep(args.beta_sweep)

    allowed = {f.name for f in fields(JobConfig)}
    config = JobConfig(**{k: v for k, v in merged.items() if k in allowed})  # type: ignore[arg-type]
    config.validate()
    return config


@functools.lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves no state in the parser
    parser = argparse.ArgumentParser(
        prog="thetawell",
        description="Tabulate exact infinite-well fields and run the verification suite.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name, exit_on_error=False)
        p.add_argument("--mu", help="quantum number, or an inclusive range like 1..5 (thermo)")
        p.add_argument("--beta", type=float)
        p.add_argument("--grid-x", dest="grid_x", type=int)
        p.add_argument("--grid-t", dest="grid_t", type=int)
        p.add_argument("--t-span", dest="t_span", type=float, help="time window in periods")
        p.add_argument("--m", type=float)
        p.add_argument("--l", type=float)
        p.add_argument("--hbar", type=float)
        p.add_argument("--tol", type=float, help="series truncation tolerance, in (0, 1e-4]")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--config", help="flat key=value configuration file")
        if name == "thermo":
            p.add_argument("--beta-sweep", dest="beta_sweep", help="start:stop:count")
    return parser


@dataclass(frozen=True)
class _Column:
    """One table column: row r holds ``values[index[r]]``, or ``values[r]`` without an index.

    ``values`` are Python scalars (float, int, str, bool or None).  Each is
    formatted once however many rows repeat it, so a grid axis costs one
    token per grid line.  Repeats come from the index, never from comparing
    values, which would merge -0.0 with 0.0 and 1 with True.
    """

    values: list
    index: np.ndarray | None = None


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_token(value: object) -> str:
    """``value`` exactly as ``json.dumps`` writes it inside a list or dict."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    return json.dumps(value)


def _fmt(value: object) -> str:
    """``value`` as a CSV cell or metadata value: floats by repr, None as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _tokens(fmt: str, values: list) -> list[str]:
    """The text of every value in a column: ``_json_token`` or ``_fmt`` of each.

    A column of plain Python floats takes one C-level ``float.__repr__`` pass,
    mapped to the JSON spellings only if some value is not finite; every other
    column (ints, bools, strings, None, float subclasses, mixed) goes value by
    value, so equal values of different kinds keep their own tokens.
    """
    if set(map(type, values)) <= {float}:
        tokens = list(map(float.__repr__, values))
        if fmt == "json" and not all(map(math.isfinite, values)):
            tokens = list(map(_JSON_NONFINITE.get, tokens, tokens))
        return tokens
    return list(map(_json_token if fmt == "json" else _fmt, values))


def _table_text(fmt: str, columns: dict[str, _Column], meta: list[str]) -> str:
    """The table as CSV (``meta``, a header, one line per row) or as ``json.dumps(rows, indent=1)``.

    Each column is tokenized once (``_tokens``); an indexed column's tokens
    are then gathered by its index.  The text is one ``"".join`` that
    interleaves the token lists with fixed separators, head and tail
    included, so no row is formatted on its own and the body is never copied.
    """
    cells = []
    for column in columns.values():
        tokens = _tokens(fmt, column.values)
        if column.index is not None:
            tokens = np.array(tokens, dtype=object)[column.index].tolist()
        cells.append(tokens)
    if fmt == "json":
        if not cells[0]:
            return "[]"
        first, *rest = (f"  {json.dumps(name)}: " for name in columns)
        head, lead, tail = f"[\n {{\n{first}", f"\n }},\n {{\n{first}", "\n }\n]"
        separators = [f",\n{key}" for key in rest]
    else:
        head = "\n".join([*meta, ",".join(columns), ""])
        if not cells[0]:
            return head
        lead, tail = "\n", "\n"
        separators = [","] * (len(cells) - 1)
    # row r is: its lead (the head for row 0), then token, separator, token, ...
    leads = itertools.chain([head], itertools.repeat(lead))
    streams = [leads, cells[0]]
    for separator, tokens in zip(separators, cells[1:]):
        streams += [itertools.repeat(separator), tokens]
    return "".join(itertools.chain(itertools.chain.from_iterable(zip(*streams)), [tail]))


def _meta_lines(config: JobConfig, sys_params: SystemParams, columns: list[str], units: dict[str, str]) -> list[str]:
    lines = [f"# thetawell {config.command}"]
    echo: list[tuple[str, object]] = [
        ("mu", config.mu if config.mu_hi is None else f"{config.mu}..{config.mu_hi}"),
        ("beta", config.beta),
    ]
    if config.beta_sweep is not None:
        start, stop, count = config.beta_sweep
        echo.append(("beta_sweep", f"{_fmt(start)}:{_fmt(stop)}:{count}"))
    if config.command not in ("thermo", "verify"):
        echo += [("grid_x", config.grid_x), ("grid_t", config.grid_t), ("t_span", config.t_span)]
    echo += [("m", sys_params.m), ("l", sys_params.l), ("hbar", sys_params.hbar), ("tol", config.tol)]
    lines += [f"# {key} = {_fmt(value)}" for key, value in echo]
    lines.append("# units: " + ", ".join(f"{c} [{units[c]}]" for c in columns if c in units))
    return lines


def _clamp_density(value, sys_params: SystemParams) -> np.ndarray:
    # tiny negative truncation residue is clamped to zero in output only
    residue = (-_floor_for(sys_params) < value) & (value < 0.0)
    return np.where(residue, 0.0, value)


def _grids(config: JobConfig, sys_params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    state = QuantumState(config.mu, config.beta)
    t_mu = period(state, sys_params)
    xs = np.linspace(0.0, sys_params.l, config.grid_x)
    ts = np.linspace(0.0, config.t_span * t_mu, config.grid_t)
    return xs, ts


def _along(shape: tuple[int, ...], axis: int) -> np.ndarray:
    """For each row of a C-ordered grid of ``shape``, its position along ``axis``."""
    position = np.arange(shape[axis]).reshape([-1 if a == axis else 1 for a in range(len(shape))])
    return np.broadcast_to(position, shape).ravel()


def _field_table(config: JobConfig) -> tuple[dict[str, _Column], dict[str, str]]:
    sys_params = config.system()
    trunc = config.truncation()
    state = QuantumState(config.mu, config.beta)
    xs, ts = _grids(config, sys_params)

    def clamped_density(x, t) -> FieldSample:
        f = _clamp_density(density(x, t, state, sys_params, trunc), sys_params)
        return FieldSample(f, np.full(f.shape, FieldTag.FINITE))

    grid_fields = {
        "density": ("1/length", clamped_density),
        "velocity": ("length/time", lambda x, t: velocity_field(x, t, state, sys_params, trunc)),
        "energy": (
            "energy",
            lambda x, t: _energy_field(jet_forms(x, t, state, sys_params, trunc, order=2), sys_params),
        ),
    }
    if config.command in grid_fields:
        value_unit, field = grid_fields[config.command]
        units = {"x": "length", "t": "time", "value": value_unit}
        sample = field(xs[None, :], ts[:, None])  # rows in t, columns in x
        shape = sample.tag.shape
        finite = sample.tag == FieldTag.FINITE
        values = sample.value.astype(object)  # Python floats, None where not finite
        values[~finite] = None
        tags = list(FieldTag)
        tag_index = np.zeros(shape, dtype=int)
        for k, tag in enumerate(tags):
            tag_index[sample.tag == tag] = k
        columns = {
            "x": _Column(xs.tolist(), _along(shape, 1)),
            "t": _Column(ts.tolist(), _along(shape, 0)),
            "value": _Column(values.ravel().tolist()),
            "tag": _Column([str(tag) for tag in tags], tag_index.ravel()),
        }
    elif config.command == "averaged-density":
        units = {"x": "length", "value": "1/length"}
        values = _clamp_density(averaged_density(xs, state, sys_params, trunc), sys_params)
        constant = np.zeros(xs.size, dtype=int)
        columns = {
            "x": _Column(xs.tolist()),
            "t": _Column([None], constant),
            "value": _Column(values.tolist()),
            "tag": _Column(["finite"], constant),
        }
    else:  # wigner
        units = {
            "x": "length",
            "t": "time",
            "momentum": "mass*length/time",
            "weight": "1/(length*action)",
        }
        labels, momenta, weights = comb_atoms(xs[None, :], ts[:, None], state, sys_params, trunc)
        weights = np.moveaxis(weights, 0, -1)  # rows in t, then x, then s: each point's atoms together
        shape = weights.shape
        columns = {
            "x": _Column(xs.tolist(), _along(shape, 1)),
            "t": _Column(ts.tolist(), _along(shape, 0)),
            "s": _Column(labels.tolist(), _along(shape, 2)),
            "momentum": _Column(momenta.tolist(), _along(shape, 2)),
            "weight": _Column(weights.ravel().tolist()),
        }
    return columns, units


def _thermo_table(config: JobConfig) -> tuple[dict[str, _Column], dict[str, str]]:
    sys_params = config.system()
    trunc = config.truncation()
    mus = list(range(config.mu, (config.mu_hi if config.mu_hi is not None else config.mu) + 1))
    if config.beta_sweep is None:
        betas = [float(config.beta)]
    else:
        start, stop, count = config.beta_sweep
        betas = np.linspace(start, stop, count).tolist()
    units = {"mean_energy": "energy", "entropy": "k_B"}
    _, energies, entropies = gibbs_table(betas, mus, sys_params, trunc)
    shape = (len(mus), len(betas))
    columns = {
        "mu": _Column(mus, _along(shape, 0)),
        "beta": _Column(betas, _along(shape, 1)),
        "mean_energy": _Column(energies.ravel().tolist()),
        "entropy": _Column(entropies.ravel().tolist()),
    }
    return columns, units


def _run_verify(config: JobConfig) -> tuple[str, int]:
    state = QuantumState(config.mu, config.beta)
    results = run_all_checks(state, config.system(), config.truncation())
    if config.format == "json":
        records = {
            "check": _Column([r.name for r in results]),
            "passed": _Column([r.passed for r in results]),
            "measured": _Column([r.measured for r in results]),
            "tolerance": _Column([r.tolerance for r in results]),
            "margin": _Column([r.margin for r in results]),
            "detail": _Column([r.detail for r in results]),
        }
        text = _table_text("json", records, [])
    else:
        lines = [f"# thetawell verify (mu={config.mu}, beta={_fmt(config.beta)})"]
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.name:22s} measured={r.measured:.6e} tolerance={r.tolerance:.1e} margin={r.margin:.3g}"
            )
            lines.append(f"     {r.detail}")
        text = "\n".join(lines) + "\n"
    return text, 0 if all(r.passed for r in results) else 3


# characters per write to --out: a text file encodes each write whole, so
# one write of a whole table would hold a second, encoded copy of it
_WRITE_CHARS = 1 << 16


def run(config: JobConfig) -> int:
    """Execute one job; returns the process exit code.

    An output path that cannot be opened or written raises ``ConfigError``.
    """
    config.validate()
    if config.command == "verify":
        text, code = _run_verify(config)
    else:
        table = _thermo_table if config.command == "thermo" else _field_table
        columns, units = table(config)
        meta = _meta_lines(config, config.system(), list(columns), units)
        text = _table_text(config.format, columns, meta)
        code = 0
    if config.out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(text[lo : lo + _WRITE_CHARS] for lo in range(0, len(text), _WRITE_CHARS))
        except OSError as exc:
            raise ConfigError(f"cannot write {config.out_path}: {exc.strerror or exc}") from None
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        config = _build_config(args)
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"thetawell: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse usage errors exit with its own code 2
        return 0 if exc.code in (0, None) else 1
    try:
        return run(config)
    except TruncationOverflowError as exc:
        print(f"thetawell: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"thetawell: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
