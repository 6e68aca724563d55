"""Paper-style report formatting.

Small helpers that print experiment outputs as the rows/series the paper
reports, so benchmark logs read like the original tables and figures.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["format_row", "print_lines"]


def format_row(label: str, values: Iterable[float], fmt: str = "{:>8.3f}") -> str:
    """One labelled row of numbers."""
    cells = "".join(fmt.format(v) for v in values)
    return f"{label:<22}{cells}"


def print_lines(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)
