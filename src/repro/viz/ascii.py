"""Terminal (ASCII/Unicode) rendering of the paper's figures.

The library keeps its dependency footprint to numpy/scipy, so figures
render as text: horizontal bar charts for the Fig. 9/11 comparisons,
line canvases for the Fig. 5/8 CDFs, and tile-grid maps for Ptiles.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "bar_chart",
    "line_plot",
    "cdf_plot",
    "tile_grid_map",
]

_MARKERS = "*o+x#@"


def bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    title: str | None = None,
    fmt: str = "{:.3f}",
    fill: str = "█",
) -> list[str]:
    """Horizontal bar chart; bars scale to the maximum value."""
    if not values:
        raise ValueError("no values to chart")
    if width < 1:
        raise ValueError("width must be positive")
    numbers = {k: float(v) for k, v in values.items()}
    peak = max(abs(v) for v in numbers.values())
    label_width = max(len(k) for k in numbers)
    lines = [title] if title else []
    for label, value in numbers.items():
        length = 0 if peak == 0 else int(round(abs(value) / peak * width))
        bar = fill * length
        lines.append(f"{label:<{label_width}} |{bar:<{width}}| " + fmt.format(value))
    return lines


def line_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 60,
    height: int = 16,
    title: str | None = None,
    x_label: str = "",
    y_label: str = "",
) -> list[str]:
    """Multi-series scatter/line canvas.

    ``series`` maps a name to ``(xs, ys)``; each series gets its own
    marker character and a legend line.
    """
    if not series:
        raise ValueError("no series to plot")
    if width < 2 or height < 2:
        raise ValueError("canvas too small")
    all_x = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if all_x.size == 0:
        raise ValueError("series are empty")
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = int(round((float(x) - x0) / x_span * (width - 1)))
            row = height - 1 - int(round((float(y) - y0) / y_span * (height - 1)))
            canvas[row][col] = marker

    lines = [title] if title else []
    if y_label:
        lines.append(y_label)
    for row_index, row in enumerate(canvas):
        y_val = y1 - row_index / (height - 1) * y_span
        lines.append(f"{y_val:>8.2f} |" + "".join(row))
    axis = " " * 9 + "+" + "-" * width
    lines.append(axis)
    lines.append(
        " " * 10 + f"{x0:<.3g}" + " " * max(1, width - 12) + f"{x1:>.3g}"
        + (f"  {x_label}" if x_label else "")
    )
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return lines


def cdf_plot(
    data_by_name: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 14,
    title: str | None = None,
    points: int = 40,
) -> list[str]:
    """Empirical CDFs of one or more samples on a shared canvas."""
    series = {}
    for name, data in data_by_name.items():
        values = np.sort(np.asarray(data, dtype=float))
        if values.size == 0:
            raise ValueError(f"series {name!r} is empty")
        grid = np.linspace(values[0], values[-1], points)
        cdf = np.searchsorted(values, grid, side="right") / values.size
        series[name] = (grid, cdf)
    return line_plot(series, width=width, height=height, title=title,
                     x_label="value", y_label="CDF")


def tile_grid_map(segment_ptiles, grid=None) -> list[str]:
    """Map of a segment's Ptiles on the tile grid.

    Letters mark Ptiles (A = Ptile 0), dots the low-quality remainder.
    Ptiles may overlap (each is encoded independently); overlapping
    tiles show the highest-index Ptile's letter.
    """
    from ..geometry.tiling import DEFAULT_GRID, Tile

    grid = grid or DEFAULT_GRID
    labels = {}
    for ptile in segment_ptiles.ptiles:
        letter = chr(ord("A") + ptile.index % 26)
        for tile in ptile.tiles:
            labels[tile] = letter
    lines = []
    for row in range(grid.rows):
        cells = [labels.get(Tile(row, col), ".") for col in range(grid.cols)]
        lines.append(" ".join(cells))
    return lines
