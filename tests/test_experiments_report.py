"""Unit tests for report formatting helpers."""

from repro.experiments import format_row


class TestFormatRow:
    def test_label_and_values(self):
        row = format_row("energy", [1.0, 2.5])
        assert row.startswith("energy")
        assert "1.000" in row and "2.500" in row

    def test_custom_format(self):
        row = format_row("x", [0.123456], fmt="{:>8.1f}")
        assert "0.1" in row

