"""Unit tests for the ASCII visualization helpers."""

import numpy as np
import pytest

from repro.viz import (
    bar_chart,
    cdf_plot,
    line_plot,
    tile_grid_map,
)


class TestBarChart:
    def test_basic(self):
        lines = bar_chart({"a": 1.0, "b": 0.5}, width=10)
        assert len(lines) == 2
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_title(self):
        lines = bar_chart({"a": 1.0}, title="T")
        assert lines[0] == "T"

    def test_values_printed(self):
        lines = bar_chart({"a": 0.503}, fmt="{:.3f}")
        assert "0.503" in lines[0]

    def test_all_zero(self):
        lines = bar_chart({"a": 0.0, "b": 0.0})
        assert all("█" not in ln for ln in lines)

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 1.0}, width=0)


class TestLinePlot:
    def test_canvas_dimensions(self):
        lines = line_plot({"s": ([0, 1, 2], [0, 1, 4])}, width=20, height=8)
        plot_rows = [ln for ln in lines if "|" in ln and not ln.startswith(" " * 9)]
        assert len(plot_rows) == 8

    def test_markers_present(self):
        lines = line_plot({"s": ([0, 1], [0, 1])})
        assert any("*" in ln for ln in lines)

    def test_multi_series_markers(self):
        lines = line_plot(
            {"a": ([0, 1], [0, 1]), "b": ([0, 1], [1, 0])}
        )
        joined = "\n".join(lines)
        assert "*" in joined and "o" in joined
        assert "*=a" in joined and "o=b" in joined

    def test_constant_series(self):
        lines = line_plot({"flat": ([0, 1, 2], [5, 5, 5])})
        assert lines  # no division-by-zero on a flat series

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"s": ([0], [0])}, width=1)


class TestCdfPlot:
    def test_monotone_rendering(self):
        data = np.random.default_rng(0).normal(size=200)
        lines = cdf_plot({"n": data})
        assert any("CDF" in ln for ln in lines)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_plot({"x": []})


class TestTileGridMap:
    def test_renders_ptiles(self, ptiles2):
        sp = next(sp for sp in ptiles2 if sp.num_ptiles > 0)
        lines = tile_grid_map(sp)
        assert len(lines) == 4  # 4 rows
        joined = "".join(lines)
        assert "A" in joined
        assert "." in joined

    def test_empty_segment(self, ptiles2):
        import dataclasses

        sp = dataclasses.replace(
            ptiles2[0], ptiles=(), remainders={}
        )
        lines = tile_grid_map(sp)
        assert all(set(ln) <= {".", " "} for ln in lines)
