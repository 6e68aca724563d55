"""Terminal visualization: ASCII charts for the paper's figures."""

from .ascii import (
    bar_chart,
    cdf_plot,
    line_plot,
    tile_grid_map,
)

__all__ = [
    "bar_chart",
    "cdf_plot",
    "line_plot",
    "tile_grid_map",
]
