"""Paper-style report formatting.

Small helpers that print experiment outputs as the rows/series the paper
reports, so benchmark logs read like the original tables and figures.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["print_lines"]


def print_lines(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)
