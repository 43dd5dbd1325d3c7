"""Unit tests for table rendering."""

import pytest

from repro.analysis.tables import TextTable, format_pct


class TestFormatPct:
    def test_default(self):
        assert format_pct(0.1234) == "12.3%"

    def test_digits(self):
        assert format_pct(0.5, 0) == "50%"
        assert format_pct(0.01234, 2) == "1.23%"


class TestTextTable:
    def test_renders_header_and_rows(self):
        t = TextTable(["a", "bb"], title="T")
        t.add_row("1", "2")
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert lines[3].strip().startswith("1")

    def test_column_alignment(self):
        t = TextTable(["col"])
        t.add_row("xxxxxxxx")
        t.add_row("y")
        lines = t.render().splitlines()
        assert len(lines[-1]) == len(lines[-2])

    def test_wrong_cell_count(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_str(self):
        t = TextTable(["a"])
        t.add_row("1")
        assert str(t) == t.render()

    def test_non_string_cells(self):
        t = TextTable(["n", "f"])
        t.add_row(42, 3.5)
        assert "42" in t.render()
