"""``row_sums`` equals ``values.sum(axis=1)`` bit for bit, and MALA keeps its bits.

Below 8 columns numpy adds each row left to right from +0.0;
:func:`repro.utils.numerics.row_sums` adds whole columns in the same order,
and hands 0 columns and 8 or more to numpy. The comparison is on the bits
(``view(np.int64)``), so signed zeros and NaN payloads count:

* widths 0 to 9, 16 and 800, at 1, 7 and 12 000 rows (1 200 rows for
  width 800: at 12 000 its five layouts would take about 0.5 GB);
* random values over the whole exponent range, and rows drawn from signed
  zeros, ±inf, NaNs with distinct payloads, subnormals and ±1e308;
* C-ordered, Fortran-ordered and strided views of the same values;
* ``row_sums(v) / w`` against ``v.mean(axis=1)``, which is how numpy's
  ``mean`` computes it.

The MALA step and the Langevin target sum their rows through the helper.
The ``langevin`` audit report, as ``audit_nightly`` runs it at seeds 0
and 7, is pinned to its digest from before the change.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.testing import build_audit, derive_seed, run_audit
from repro.utils.numerics import row_sums

SHAPES = [
    (rows, width)
    for width in (*range(10), 16, 800)
    for rows in (1, 7, 1_200 if width == 800 else 12_000)
]

_NAN_PAYLOADS = np.array(
    [0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001],
    dtype=np.uint64,
).view(np.float64)
SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0],
    [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310],
    [1e308, -1e308, 1.7976931348623157e308],
    _NAN_PAYLOADS,
])

# sha256 prefixes of json.dumps(report.to_dict(), sort_keys=True) for
# run_audit(build_audit("langevin"), n_samples=12_000,
# random_state=derive_seed("langevin", base_seed=seed)), before the change.
LANGEVIN_DIGESTS = {0: "905515185490cb03", 7: "5a221e9a360fe6bc"}


def _inputs(rng, rows, width):
    """Random values over the exponent range, then rows of special values."""
    scales = 10.0 ** rng.integers(-320, 308, size=(rows, width))
    yield rng.standard_normal((rows, width)) * scales
    yield rng.choice(SPECIALS, size=(rows, width))


def _layouts(values):
    """The same values C-ordered, Fortran-ordered and as strided views."""
    yield values
    yield np.asfortranarray(values)
    yield np.repeat(values, 2, axis=1)[:, ::2]
    yield np.repeat(values, 3, axis=0)[1::3]
    yield np.ascontiguousarray(values[::-1, ::-1])[::-1, ::-1]


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("rows, width", SHAPES)
def test_row_sums_equals_numpy_bit_for_bit(rows, width):
    rng = np.random.default_rng([width, rows])
    checked = 0
    with warnings.catch_warnings():
        # Overflow and inf - inf warn in both; only the bits are compared.
        warnings.simplefilter("ignore", RuntimeWarning)
        for values in _inputs(rng, rows, width):
            for layout in _layouts(values):
                want = layout.sum(axis=1)
                got = row_sums(layout)
                assert got.shape == want.shape == (rows,)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(_bits(got), _bits(want))
                if width:
                    np.testing.assert_array_equal(
                        _bits(row_sums(layout) / width),
                        _bits(layout.mean(axis=1)),
                    )
                checked += 1
    assert checked == 10


def test_signed_zero_rows_sum_to_positive_zero():
    values = np.full((4, 3), -0.0)
    assert np.signbit(values.sum(axis=1)).tolist() == [False] * 4
    np.testing.assert_array_equal(_bits(row_sums(values)), _bits(values.sum(axis=1)))


def test_nan_payload_of_the_first_nan_in_a_row_wins():
    """One row and many: numpy keeps the payload of the earlier operand,
    which an in-place column add on a single row would not."""
    for rows in (1, 2, 9):
        values = np.tile(_NAN_PAYLOADS[:2], (rows, 1))
        np.testing.assert_array_equal(
            _bits(row_sums(values)), _bits(values.sum(axis=1))
        )
        assert _bits(row_sums(values))[0] == _bits(_NAN_PAYLOADS[:1])[0]


def test_every_special_pair_and_triple():
    """Every ordered pair and triple of special values, as rows."""
    for width in (2, 3):
        grids = np.meshgrid(*[SPECIALS] * width, indexing="ij")
        values = np.stack([grid.ravel() for grid in grids], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            want = values.sum(axis=1)
            got = row_sums(values)
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("seed", sorted(LANGEVIN_DIGESTS))
def test_langevin_audit_report_is_unchanged(seed):
    report = run_audit(
        build_audit("langevin"),
        n_samples=12_000,
        random_state=derive_seed("langevin", base_seed=seed),
    )
    digest = hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()
    ).hexdigest()[:16]
    assert report.satisfied
    assert digest == LANGEVIN_DIGESTS[seed]
