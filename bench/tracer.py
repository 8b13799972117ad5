"""Spans around the public functions of thetawell, recorded from outside the package.

``Tracer.install`` replaces every binding of each traced function in every
``thetawell.*`` namespace (the package itself, the defining module, and every
module that imported the name) with a wrapper that records one span per call:
name, start, end, parent span and the beta-ladder rung active at the time.
``Tracer.remove`` puts the original objects back, and ``patched_bindings``
lets a caller prove that nothing is left behind.  No file of the package is
edited: callers inside the package reach the wrappers through their module
globals, exactly as they reach the originals.

Spans are kept in memory for one pass and folded into ``PassStats`` by
``Tracer.collect``, which also clears them, so a traced run holds one pass of
spans at a time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# traced functions, as "module.function", with the statistics reported for
# each; the per-layer metric names in BENCHMARK.json are built from these
TRACED = {
    "wavefunction.psi": ("calls", "self_s"),
    "wavefunction.scaled_norm_sum": ("calls", "distinct_ratio"),
    "numerics.cutoff_for": ("calls", "self_s", "distinct_ratio"),
    "numerics.integrate": ("self_s",),
    "series.folded_sum": ("calls", "self_s"),
    "series.comb_rows": ("calls", "self_s"),
    "series.build_table": ("calls", "distinct_ratio"),
    "theta.theta_char": ("calls", "self_s"),
    "density.density": ("calls", "self_s"),
    "density.averaged_density": ("calls", "self_s"),
    "density.density_derivatives": ("calls", "self_s"),
    "phase_space.velocity_field": ("calls", "self_s"),
    "phase_space.moments": ("calls", "self_s"),
    "phase_space.wigner_comb": ("calls", "self_s"),
    "phase_space.flux": ("calls", "self_s"),
    "phase_space.velocity_from_vlasov": ("calls", "self_s"),
    "phase_space.kinetic_energy_density": ("calls", "self_s"),
    "thermo.double_avg_energy": ("total_s",),
    "thermo.mean_energy_gibbs": ("total_s",),
    "thermo.entropy": ("total_s",),
}

# functions whose argument keys are recorded, to measure repeated work:
# name -> names of the two parameters; the second defaults to DEFAULT_TRUNCATION
_KEYED = {
    "numerics.cutoff_for": ("beta", "trunc"),
    "wavefunction.scaled_norm_sum": ("state", "trunc"),
    "series.build_table": ("state", "trunc"),
}

_MARK = "__thetawell_bench_wrapped__"


def _package_modules():
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "thetawell" or name.startswith("thetawell."))
    ]


def patched_bindings() -> list[str]:
    """Every ``module.name`` in the package that is currently bound to a wrapper."""
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if getattr(value, _MARK, False)
    )


@dataclass
class PassStats:
    """Per-layer figures of one traced pass.

    ``calls``/``self_s``/``total_s`` are keyed by span name; the ``*_rung``
    maps by (name, rung).  ``total_s`` counts only the outermost span of a
    name, so recursive layers (nested quadrature) are not counted twice.
    """

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    distinct: dict = field(default_factory=dict)
    calls_rung: dict = field(default_factory=lambda: defaultdict(int))
    total_rung: dict = field(default_factory=lambda: defaultdict(float))
    self_rung: dict = field(default_factory=lambda: defaultdict(float))
    term_points: dict = field(default_factory=lambda: defaultdict(int))
    term_points_rung: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Records spans for the benchmark's traced run; inert until ``install``."""

    def __init__(self) -> None:
        self.rung: str | None = None
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._terms_cache: dict[tuple[int, int, int], tuple[object, int]] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        # record: name, start, end, parent index, rung, outermost, key, term_points
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rung,
               self._depth[name] == 0, None, 0]
        self._stack.append(len(self._spans))
        self._spans.append(rec)
        self._depth[name] += 1
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        self._depth[rec[0]] -= 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a CLI command, a check, a rung)."""
        rec = self._open(name)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._close(rec)

    def _term_points(self, args, kwargs) -> int:
        """Terms kept times broadcast points for one folded_sum(table, x, t, ...) call."""
        bound = dict(zip(("table", "x", "t", "state", "sys", "s_power", "j_power"), args))
        bound.update(kwargs)
        table, a, b = bound["table"], bound.get("s_power", 0), bound.get("j_power", 0)
        # the rows folded_sum keeps: coefficient w * sigma^a * iota^b nonzero
        key = (id(table), a, b)
        hit = self._terms_cache.get(key)
        if hit is None or hit[0] is not table:
            coeff = table.w * table.sigma.astype(float) ** a * table.iota.astype(float) ** b
            hit = (table, int(np.count_nonzero(coeff)))
            self._terms_cache[key] = hit
        return hit[1] * np.broadcast(np.asarray(bound["x"]), np.asarray(bound["t"])).size

    def _wrap(self, name: str, fn):
        keyed = _KEYED.get(name)
        default_trunc = sys.modules["thetawell.numerics"].DEFAULT_TRUNCATION
        folded = name == "series.folded_sum"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._close(rec)
                if keyed is not None:
                    first = args[0] if args else kwargs[keyed[0]]
                    second = args[1] if len(args) > 1 else kwargs.get(keyed[1], default_trunc)
                    rec[6] = (first, second)
                elif folded:
                    rec[7] = self._term_points(args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"thetawell.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding ``install`` replaced."""
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def collect(self) -> PassStats:
        """Fold the spans recorded since the last call into per-layer figures."""
        spans, self._spans = self._spans, []
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        st = PassStats()
        keys: dict[str, set] = defaultdict(set)
        for i, (name, start, end, _parent, rung, outer, key, tp) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            st.calls[name] += 1
            st.self_s[name] += own
            if outer:
                st.total_s[name] += dur
            if rung is not None:
                st.calls_rung[name, rung] += 1
                st.self_rung[name, rung] += own
                if outer:
                    st.total_rung[name, rung] += dur
            if key is not None:
                keys[name].add(key)
            if tp:
                st.term_points[name] += tp
                if rung is not None:
                    st.term_points_rung[name, rung] += tp
        st.distinct = {name: len(k) for name, k in keys.items()}
        return st
