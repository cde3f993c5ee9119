"""The chains-last helpers equal numpy bit for bit.

The Langevin target contracts its ``(m, d)`` states with the ``(n, d)``
signed records twice: the margins ``einsum("md,nd->mn")`` and the risk
gradient ``einsum("mn,nd->md")``. On the ``langevin`` audit's shapes
(d = 2, n = 3) :mod:`repro.utils.numerics` computes both by whole
columns instead (``row_dots``, ``row_combinations``), and the MALA step
sums its ``(d, m)`` arrays per chain with ``column_sums``. The
comparison is on the bits (``view(np.int64)``), so signed zeros count:

* d ∈ {1, 2} for the margins and n ∈ 1…7 for the gradient, at 1, 7 and
  3 000 rows;
* random values over the whole exponent range (overflow included), and
  values drawn from signed zeros, ±inf, subnormals and ±1e308;
* C-ordered, Fortran-ordered and transposed-``(d, m)`` states and
  weights, against einsum on C-ordered ones, which is what the target
  computed before it was handed chains-last views;
* the shapes that must still go to einsum: margins from 3 columns or 8
  records, gradients from 8 records, one column, or Fortran-ordered
  records;
* ``column_sums`` against numpy's sum of the C-ordered transpose, at
  1 to 9, 16 and 800 rows, for C-ordered and transposed inputs.

NaN inputs are left out of the einsum comparisons: they give NaN where
einsum does, but einsum's choice among NaN payloads depends on its inner
loop.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.utils import numerics
from repro.utils.numerics import column_sums, row_combinations, row_dots

SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, -0.75,
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e308, -1e308, 1.7976931348623157e308,
])
ROWS = (1, 7, 3_000)


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def _draws(rng, shape):
    """Random values over the exponent range, then special values."""
    scales = 10.0 ** rng.integers(-300, 300, size=shape)
    yield rng.standard_normal(shape) * scales
    yield rng.choice(SPECIALS, size=shape)


def _layouts(values):
    """The same ``(m, k)`` values C-ordered, Fortran-ordered and as the
    transpose of a ``(k, m)`` array with a gap between its rows."""
    yield values
    yield np.asfortranarray(values)
    padded = np.zeros((values.shape[1], 2 * values.shape[0]))
    padded[:, ::2] = values.T
    yield padded[:, ::2].T


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("records", range(1, 8))
def test_row_dots_equal_einsum(rows, width, records):
    rng = np.random.default_rng([rows, width, records])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for states in _draws(rng, (rows, width)):
            for signed in _draws(rng, (records, width)):
                want = np.einsum("md,nd->mn", states, signed)
                for layout in _layouts(states):
                    got = row_dots(layout, signed)
                    assert got.shape == (rows, records)
                    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("records", range(1, 8))
def test_row_combinations_equal_einsum(rows, width, records):
    rng = np.random.default_rng([rows, width, records, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for weights in _draws(rng, (rows, records)):
            for signed in _draws(rng, (records, width)):
                want = np.einsum("mn,nd->md", weights, signed)
                for layout in _layouts(weights):
                    got = row_combinations(layout, signed)
                    assert got.shape == (rows, width)
                    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rows", [*range(1, 10), 16, 800])
def test_column_sums_equal_numpy_on_c_rows(rows):
    rng = np.random.default_rng(rows)
    specials = np.concatenate([SPECIALS, [np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for columns in (
            *_draws(rng, (rows, 300)),
            rng.choice(specials, size=(rows, 300)),
        ):
            want = np.ascontiguousarray(columns.T).sum(axis=1)
            for layout in (columns, np.asfortranarray(columns)):
                np.testing.assert_array_equal(
                    _bits(column_sums(layout)), _bits(want)
                )


def test_negative_zero_products_sum_to_positive_zero():
    states = np.full((4, 2), -0.0)
    signed = np.ones((3, 2))
    margins = row_dots(states, signed)
    assert not np.signbit(margins).any()
    np.testing.assert_array_equal(
        _bits(margins), _bits(np.einsum("md,nd->mn", states, signed))
    )
    weights = np.full((4, 3), -0.0)
    grad = row_combinations(weights, signed)
    assert not np.signbit(grad).any()
    np.testing.assert_array_equal(
        _bits(grad), _bits(np.einsum("mn,nd->md", weights, signed))
    )


def test_column_results_are_chains_last():
    """The column forms return transposes of C-ordered ``(n, m)`` and
    ``(d, m)`` arrays, which the chains-last step reads without a copy."""
    states = np.ones((2, 5)).T
    signed = np.ones((3, 2))
    assert row_dots(states, signed).T.flags.c_contiguous
    assert row_combinations(np.ones((3, 5)).T, signed).T.flags.c_contiguous


@pytest.fixture
def einsum_calls(monkeypatch):
    """Count the calls the helpers make to ``np.einsum``."""
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(numerics.np, "einsum", counted)
    return calls


@pytest.mark.parametrize(
    "width, records, to_einsum",
    [(1, 7, False), (2, 7, False), (3, 3, True), (16, 5, True),
     (2, 8, True), (16, 800, True)],
)
def test_row_dots_routes_to_einsum(einsum_calls, width, records, to_einsum):
    rng = np.random.default_rng(width)
    states = np.asfortranarray(rng.standard_normal((9, width)))
    signed = rng.standard_normal((records, width))
    got = row_dots(states, signed)
    assert bool(einsum_calls) == to_einsum
    want = np.einsum("md,nd->mn", np.ascontiguousarray(states), signed)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    if to_einsum:
        assert got.flags.c_contiguous


@pytest.mark.parametrize(
    "width, records, fortran, to_einsum",
    [(2, 7, False, False), (16, 7, False, False), (2, 8, False, True),
     (16, 800, False, True), (1, 3, False, True), (2, 3, True, True)],
)
def test_row_combinations_route_to_einsum(
    einsum_calls, width, records, fortran, to_einsum
):
    rng = np.random.default_rng(records)
    weights = np.asfortranarray(rng.standard_normal((9, records)))
    signed = rng.standard_normal((records, width))
    if fortran:
        signed = np.asfortranarray(signed)
    got = row_combinations(weights, signed)
    assert bool(einsum_calls) == to_einsum
    want = np.einsum("mn,nd->md", np.ascontiguousarray(weights), signed)
    np.testing.assert_array_equal(_bits(got), _bits(want))
