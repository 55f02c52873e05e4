"""Unit tests for report table formatting."""

from repro.analysis.report import (
    format_table,
    rows_from_dicts,
)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["beta-long-name", 22.123456]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert lines[1].startswith("=")
        assert "name" in lines[2] and "value" in lines[2]
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "22.123" in text

    def test_float_formatting_modes(self):
        text = format_table(["x"], [[0.000001], [123456.0], [float("nan")], [True]])
        assert "e-06" in text
        assert "e+05" in text or "123456" in text
        assert "nan" in text
        assert "yes" in text

    def test_handles_ragged_rows_gracefully(self):
        text = format_table(["a", "b"], [["only-one"]])
        assert "only-one" in text


class TestRowsFromDicts:
    def test_union_of_keys_in_first_seen_order(self):
        records = [{"a": 1, "b": 2}, {"b": 3, "c": 4}]
        headers, rows = rows_from_dicts(records)
        assert headers == ["a", "b", "c"]
        assert rows[0] == [1, 2, ""]
        assert rows[1] == ["", 3, 4]

    def test_explicit_columns(self):
        records = [{"a": 1, "b": 2}]
        headers, rows = rows_from_dicts(records, columns=["b"])
        assert headers == ["b"]
        assert rows == [[2]]
