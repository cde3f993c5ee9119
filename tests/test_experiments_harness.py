"""Unit tests for the experiment harness."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    ResultTable,
    ascii_curve,
    expand_grid,
    run_configurations,
)


class TestResultTable:
    def test_render_aligns_columns(self):
        table = ResultTable(["epsilon", "risk"], title="demo")
        table.add_row(0.1, 0.51234)
        table.add_row(10.0, 0.2)
        text = table.render()
        assert "demo" in text
        assert "epsilon" in text
        assert len(text.splitlines()) == 5

    def test_named_rows(self):
        table = ResultTable(["a", "b"])
        table.add_row(b=2, a=1)
        assert table.column("a") == ["1"]
        assert table.column("b") == ["2"]

    def test_named_rows_missing_column(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValidationError):
            table.add_row(a=1)

    def test_mixed_call_rejected(self):
        table = ResultTable(["a"])
        with pytest.raises(ValidationError):
            table.add_row(1, a=1)

    def test_float_formatting(self):
        table = ResultTable(["x"])
        table.add_row(1.23456789e-7)
        assert "e-07" in table.column("x")[0]

    def test_bool_formatting(self):
        table = ResultTable(["ok"])
        table.add_row(True)
        assert table.column("ok") == ["yes"]

    def test_wrong_width_rejected(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValidationError):
            table.add_row(1)

    def test_unknown_column_lookup(self):
        table = ResultTable(["a"])
        with pytest.raises(ValidationError):
            table.column("z")

    def test_numpy_scalars_format_like_python_scalars(self):
        # Regression: np.float32 is not a float instance and np.bool_ is
        # not a bool instance, so both used to fall through to repr.
        table = ResultTable(["f32", "f64", "i64", "ok"])
        table.add_row(
            np.float32(0.5), np.float64(1.5), np.int64(7), np.bool_(True)
        )
        assert table.column("f32") == ["0.5000"]
        assert table.column("f64") == ["1.5000"]
        assert table.column("i64") == ["7"]
        assert table.column("ok") == ["yes"]


class TestAsciiCurve:
    def test_contains_points_and_labels(self):
        text = ascii_curve(
            [1, 2, 3], [1, 4, 9], title="squares", x_label="n", y_label="n^2"
        )
        assert "squares" in text
        assert "*" in text
        assert "n^2" in text

    def test_constant_series_ok(self):
        text = ascii_curve([1, 2], [5, 5])
        assert "*" in text

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            ascii_curve([1, 2], [1])

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValidationError):
            ascii_curve([1, 2], [1, 2], width=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # Regression: NaN/inf used to crash deep inside the scaler with
        # an unhelpful numpy error instead of a ValidationError.
        with pytest.raises(ValidationError, match="finite"):
            ascii_curve([1, 2, 3], [1, bad, 3])
        with pytest.raises(ValidationError, match="finite"):
            ascii_curve([1, bad, 3], [1, 2, 3])


class TestRunner:
    def test_run_experiment_wraps_output(self):
        (record,) = run_configurations("double", lambda x: {"y": 2 * x}, [{"x": 3}])
        assert record.ok
        assert record.outputs == {"y": 6}
        assert record.parameters == {"x": 3}
        assert record.seconds >= 0

    def test_run_experiment_rejects_non_mapping(self):
        (record,) = run_configurations("bad", lambda: 42, [{}])
        assert not record.ok
        assert record.error.startswith("ValidationError")

    def test_sweep_cartesian_product(self):
        records = run_configurations(
            "add",
            lambda a, b, c: {"s": a + b + c},
            expand_grid({"a": [1, 2], "b": [10, 20]}, {"c": 100}),
        )
        assert [r.outputs["s"] for r in records] == [111, 121, 112, 122]

    def test_sweep_rejects_overlap(self):
        with pytest.raises(ValidationError):
            expand_grid({"a": [1]}, {"a": 2})

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            expand_grid({})
