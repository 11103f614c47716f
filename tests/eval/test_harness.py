"""Unit tests for the table renderer."""

from repro.eval.harness import format_table


class TestFormatTable:
    def test_empty(self):
        assert "(empty)" in format_table([], title="nothing")

    def test_columns_and_rows_rendered(self):
        rows = [
            {"method": "qut", "latency": 0.0123},
            {"method": "range+s2t", "latency": 1.5},
        ]
        text = format_table(rows, title="E7")
        assert "E7" in text
        assert "method" in text and "latency" in text
        assert "qut" in text and "range+s2t" in text
        assert "0.0123" in text

    def test_missing_cells_rendered_as_none(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "None" in text
