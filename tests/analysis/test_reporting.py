"""Reporting helper tests."""

import pytest

from repro.analysis.reporting import format_table, shape_check


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, "x"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_number_formatting(self):
        out = format_table(["v"], [[12345.6], [0.1234], [12.34]])
        assert "12,346" in out
        assert "0.123" in out
        assert "12.3" in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out


class TestShapeCheck:
    def test_accepts_within_band(self):
        shape_check(110.0, 100.0, 0.5, label="ok")

    def test_rejects_outside_band(self):
        with pytest.raises(AssertionError, match="outside"):
            shape_check(300.0, 100.0, 0.5, label="bad")

    def test_rejects_zero_paper_value(self):
        with pytest.raises(AssertionError, match="zero"):
            shape_check(1.0, 0.0, 0.5)

    def test_band_is_multiplicative(self):
        shape_check(50.0, 100.0, 1.0)   # 100/2 is in [100/2, 200]
        with pytest.raises(AssertionError):
            shape_check(49.0, 100.0, 1.0)
