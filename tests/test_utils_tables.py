"""Tests for the table renderer."""

import pytest

from repro.utils.tables import Table


class TestTable:
    def test_renders_header_and_rows(self):
        table = Table(["system", "P"], title="demo")
        table.add_row(["KBQA", 0.85])
        text = table.render()
        assert "demo" in text
        assert "system" in text
        assert "KBQA" in text
        assert "0.85" in text

    def test_column_alignment(self):
        table = Table(["a", "b"])
        table.add_row(["xxxxxxx", 1])
        lines = table.render().splitlines()
        # header and row should be padded to the same width
        assert len(lines[0]) == len(lines[2])

    def test_wrong_cell_count_raises(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_columns_raise(self):
        with pytest.raises(ValueError):
            Table([])

    def test_none_renders_as_dash(self):
        table = Table(["a"])
        table.add_row([None])
        assert "-" in table.render().splitlines()[-1]

    def test_integer_valued_floats(self):
        table = Table(["a"])
        table.add_row([2.0])
        assert "2.0" in table.render()

