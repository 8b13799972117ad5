"""Truncation control, quadrature, and tagged-sample plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetawell.density import density, period
from thetawell.numerics import (
    DEFAULT_TRUNCATION,
    FieldSample,
    FieldTag,
    NonIntegrableSampleError,
    Truncation,
    TruncationOverflowError,
    cutoff_for,
    integrate,
    tagged,
)
from thetawell.wavefunction import QuantumState

from stencils import finite_diff


def brute_cutoff(beta, tol):
    # defining inequality, scanned K = 0, 1, 2, ... with no closed-form seed
    k = 0
    while (2 * k + 1) ** 2 < 2.0 + 4.0 / (math.pi * beta) * math.log(1.0 / tol):
        k += 1
    return k


@pytest.mark.parametrize(
    "beta,tol,expected",
    [
        (2.0, 1e-16, 3),
        (0.1, 1e-14, 10),
        (10.0, 1e-10, 1),
        (1e-6, 1e-12, 2966),
    ],
)
def test_cutoff_frozen_values(beta, tol, expected):
    trunc = Truncation(tol=tol, max_index=4096)
    assert cutoff_for(beta, trunc) == expected
    assert brute_cutoff(beta, tol) == expected


@given(
    beta=st.floats(min_value=1e-4, max_value=50.0),
    tol=st.floats(min_value=1e-16, max_value=1e-4),
)
@settings(max_examples=200, deadline=None)
def test_cutoff_matches_brute_scan(beta, tol):
    trunc = Truncation(tol=tol, max_index=100_000)
    assert cutoff_for(beta, trunc) == brute_cutoff(beta, tol)


@given(
    beta=st.floats(min_value=1e-3, max_value=20.0),
    factor=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_cutoff_monotone_in_beta(beta, factor):
    trunc = Truncation(tol=1e-12, max_index=100_000)
    assert cutoff_for(beta, trunc) >= cutoff_for(beta * factor, trunc)


def test_cutoff_overflow():
    with pytest.raises(TruncationOverflowError):
        cutoff_for(1e-6, Truncation(tol=1e-12, max_index=1000))
    # the same series fits under the default ceiling
    assert cutoff_for(1e-6, Truncation(tol=1e-12, max_index=4096)) == 2966


def test_cutoff_rejects_bad_beta():
    with pytest.raises(ValueError):
        cutoff_for(0.0)
    with pytest.raises(ValueError):
        cutoff_for(-1.0)


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(tol=0.0)
    with pytest.raises(ValueError):
        Truncation(tol=1.5)
    with pytest.raises(ValueError):
        Truncation(tol=1e-12, max_index=0)
    assert DEFAULT_TRUNCATION.tol == 1e-14
    assert DEFAULT_TRUNCATION.max_index == 4096


def test_simpson_exact_on_cubics():
    assert integrate(lambda x: x**3 - 2 * x + 1, 0.0, 2.0, 1) == pytest.approx(2.0, abs=1e-14)


def test_simpson_fourth_order():
    exact = 1.0 - math.cos(1.0)
    err = [abs(integrate(np.sin, 0.0, 1.0, n) - exact) for n in (8, 16, 32)]
    assert err[0] / err[1] > 8.0
    assert err[1] / err[2] > 8.0
    assert err[2] < 1e-9


def test_simpson_rejects_non_integrable():
    with pytest.raises(NonIntegrableSampleError):
        integrate(lambda x: np.where(x > 0.5, math.inf, 0.0), 0.0, 1.0, 4)


def test_simpson_rows_equal_per_row_calls():
    # a 2-D integrand gives one integral per row, each equal to its own 1-D call
    coefs = np.array([0.5, -1.25, 3.0])
    rows = integrate(lambda x: coefs[:, None] * x * x, 0.0, 2.0, 7)
    assert rows.shape == (3,)
    for c, row in zip(coefs, rows):
        assert row == integrate(lambda x: c * x * x, 0.0, 2.0, 7)
    # the registry's time average: one (x, t) density grid against per-x calls
    state = QuantumState(1, 0.1)
    t_mu = period(state)
    xs = np.linspace(0.0, 1.0, 9)
    grid = integrate(lambda t: density(xs[:, None], t, state), 0.0, t_mu, 63)
    for x, row in zip(xs, grid):
        assert row == integrate(lambda t: density(float(x), t, state), 0.0, t_mu, 63)


def simpson_loop(f, a, b, n_panels):
    # the point-by-point reference: one call per node, summed in node order
    n = 2 * n_panels
    h = (b - a) / n
    total = 0.0
    for i in range(n + 1):
        w = 1.0 if i in (0, n) else (4.0 if i % 2 else 2.0)
        total += w * float(f(a + i * h))
    return total * h / 3.0


@pytest.mark.parametrize("beta", [1.0, 0.1, 1e-3])
def test_simpson_matches_loop_reference(beta):
    # the sum is pairwise now, not in node order: agreement within the
    # rounding bound (n + 1) eps sum |w y| h / 3, fixed from the dtype
    state = QuantumState(2, beta)
    t = 0.31 * period(state)
    for f in (lambda x: density(x, t, state), lambda x: np.sin(40.0 * x) * np.exp(x)):
        got = integrate(f, 0.0, 1.0, 512)
        want = simpson_loop(f, 0.0, 1.0, 512)
        bound = 1025 * np.finfo(float).eps * simpson_loop(lambda x: abs(f(x)), 0.0, 1.0, 512)
        assert abs(got - want) <= bound


def test_simpson_calls_integrand_once_on_the_nodes():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    assert integrate(f, 0.5, 1.5, 4) == 1.0
    assert len(calls) == 1
    assert calls[0].tolist() == [0.5 + i * 0.125 for i in range(9)]


def test_simpson_names_the_non_finite_node():
    with pytest.raises(NonIntegrableSampleError, match=r"x=0\.625: nan"):
        integrate(lambda x: np.where(x == 0.625, math.nan, x), 0.0, 1.0, 4)
    # in a 2-D integrand the node is named by its column
    with pytest.raises(NonIntegrableSampleError, match=r"x=0\.25: -inf"):
        integrate(lambda x: np.stack([x, np.where(x == 0.25, -math.inf, x)]), 0.0, 1.0, 4)


def test_finite_diff_orders():
    assert finite_diff(math.exp, 1.0, 1, 1e-6) == pytest.approx(math.e, abs=1e-8)
    assert finite_diff(math.exp, 1.0, 2, 1e-4) == pytest.approx(math.e, abs=1e-6)
    with pytest.raises(ValueError):
        finite_diff(math.exp, 1.0, 3, 1e-4)
    with pytest.raises(ValueError):
        finite_diff(math.exp, 1.0, 1, 0.0)


def test_field_sample_consistency():
    ok = FieldSample(1.25)
    assert ok.is_finite and ok.tag is FieldTag.FINITE
    pole = FieldSample(math.nan, FieldTag.POLE)
    assert not pole.is_finite
    assert str(pole.tag) == "pole"
    assert str(FieldTag.NODE_UNDEFINED) == "node-undefined"
    with pytest.raises(ValueError):
        FieldSample(math.nan, FieldTag.FINITE)
    with pytest.raises(ValueError):
        FieldSample(1.0, FieldTag.POLE)


def test_field_sample_arrays():
    tags = np.array([FieldTag.FINITE, FieldTag.POLE, FieldTag.NODE_UNDEFINED], dtype=object)
    grid = FieldSample(np.array([1.5, math.nan, math.nan]), tags)
    assert grid.is_finite.tolist() == [True, False, False]
    # a tag that disagrees with its value, either way, is refused
    with pytest.raises(ValueError):
        FieldSample(np.array([1.5, 2.0, math.nan]), tags)
    with pytest.raises(ValueError):
        FieldSample(np.array([math.nan, math.nan, math.nan]), tags)
    # so is a tag array of another shape
    with pytest.raises(ValueError):
        FieldSample(np.array([1.5, math.nan]), tags)
    with pytest.raises(ValueError):
        FieldSample(np.array([1.5]), FieldTag.FINITE)


def test_tagged_points_and_grids():
    point = tagged(np.float64(2.0), np.True_, FieldTag.POLE)
    assert point.value == 2.0 and type(point.value) is float and point.tag is FieldTag.FINITE
    hole = tagged(np.float64(math.inf), np.False_, FieldTag.POLE)
    assert math.isnan(hole.value) and hole.tag is FieldTag.POLE
    grid = tagged(np.array([[1.0, math.inf]]), np.array([[True, False]]), FieldTag.NODE_UNDEFINED)
    assert grid.tag.tolist() == [[FieldTag.FINITE, FieldTag.NODE_UNDEFINED]]
    assert grid.value[0, 0] == 1.0 and math.isnan(grid.value[0, 1])


# ---------------------------------------------------------------- array cutoffs


def test_array_cutoff_equals_scalar():
    betas = np.geomspace(6.2e-7, 50.0, 3001)
    ks = cutoff_for(betas)
    assert ks.shape == betas.shape and ks.dtype.kind == "i"
    assert ks.tolist() == [cutoff_for(float(b)) for b in betas]
    for trunc in (Truncation(tol=1e-8), Truncation(tol=1e-12, max_index=5000)):
        sample = betas[::37]
        assert cutoff_for(sample, trunc).tolist() == [cutoff_for(float(b), trunc) for b in sample]
    grid = betas[:12].reshape(3, 4)
    assert cutoff_for(grid).tolist() == [[cutoff_for(float(b)) for b in row] for row in grid]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_array_cutoff_rejects_what_the_scalar_rejects(bad):
    with pytest.raises(ValueError) as scalar:
        cutoff_for(bad)
    with pytest.raises(ValueError) as array:
        cutoff_for(np.array([0.5, bad, 0.1]))
    assert str(array.value) == str(scalar.value)


def test_array_cutoff_overflow_names_the_beta():
    # 6.10e-7 needs cutoff 4101 > 4096; below ~1e-100 the closed form's k and
    # k - 1 are the same float, and it overflows a 64-bit integer
    for bad in (6.10e-7, 1e-8, 1e-100, 1e-300):
        with pytest.raises(TruncationOverflowError) as scalar:
            cutoff_for(bad)
        with pytest.raises(TruncationOverflowError) as array:
            cutoff_for(np.array([1.0, bad, 1e-8]))
        assert str(array.value) == str(scalar.value)
        assert f"beta={bad}" in str(array.value)
