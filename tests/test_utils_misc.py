"""Unit tests for table rendering and the fixed-point solver."""

import pytest

from repro.errors import SimulationError
from repro.utils.fixedpoint import solve_fixed_point
from repro.utils.tables import format_percent, format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/rows align

    def test_float_formatting(self):
        out = format_table(["v"], [[1.23456]])
        assert "1.235" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows_ok(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestFormatHelpers:
    def test_percent(self):
        assert format_percent(0.742) == "74.2%"
        assert format_percent(1.0, digits=0) == "100%"


class TestFixedPoint:
    def test_constant_function(self):
        assert solve_fixed_point(lambda x: 5.0, initial=1.0) == pytest.approx(5.0, rel=1e-6)

    def test_decreasing_function(self):
        # x = 10/x -> x = sqrt(10); monotone decreasing in x.
        root = solve_fixed_point(lambda x: 10.0 / x, initial=1.0)
        assert root == pytest.approx(10.0 ** 0.5, rel=1e-5)

    def test_affine_decreasing(self):
        # x = 100 - 0.5x -> x = 200/3
        root = solve_fixed_point(lambda x: 100.0 - 0.5 * x, initial=1.0)
        assert root == pytest.approx(200.0 / 3.0, rel=1e-5)

    def test_bad_initial(self):
        with pytest.raises(SimulationError):
            solve_fixed_point(lambda x: x, initial=0.0)

    def test_timing_like_shape(self):
        # Mimics the timing model: base + queueing that falls with x.
        def f(x):
            rho = min(1000.0 / x, 0.98)
            return 50.0 + 30.0 * rho / (1.0 - rho)

        root = solve_fixed_point(f, initial=1.0)
        assert root == pytest.approx(f(root), rel=1e-5)
