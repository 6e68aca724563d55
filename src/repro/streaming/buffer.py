"""Playback-buffer dynamics (paper Eq. 6 and 7).

The buffer holds downloaded-but-not-yet-viewed video (seconds).  When
the buffered video after a download reaches the threshold beta, the
player waits ``dt = max(B - beta, 0)`` before requesting the next
segment; while downloading, the buffer drains in real time; a segment
adds L seconds when it arrives.  A download outlasting the buffer causes
a stall (rebuffering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BufferEvent", "PlaybackBuffer", "request_gate", "drain"]


def request_gate(level_s, threshold_s):
    """``(wait, level at request)``: the player idles ``dt = max(B -
    beta, 0)`` before requesting, draining the buffer by as much.
    Elementwise over arrays (one level per session)."""
    wait = np.maximum(level_s - threshold_s, 0.0)
    return wait, level_s - wait


def drain(level_at_request_s, download_time_s, segment_s):
    """``(stall, level after)`` of a download issued at
    ``level_at_request_s`` (Eq. 6): the buffer drains while it runs, a
    download outlasting it stalls, and the segment adds ``segment_s``."""
    stall = np.maximum(download_time_s - level_at_request_s, 0.0)
    level = np.maximum(level_at_request_s - download_time_s, 0.0) + segment_s
    return stall, level


@dataclass(frozen=True)
class BufferEvent:
    """Outcome of downloading one segment against the buffer."""

    wait_s: float  # time waited before issuing the request
    stall_s: float  # rebuffering time caused by this download
    level_before_s: float  # buffer level when the request was issued
    level_after_s: float  # buffer level after the segment arrived


class PlaybackBuffer:
    """Client playback buffer with threshold-gated requests.

    ``threshold_s`` is beta; ``segment_s`` is L.  The level starts empty
    (cold start: the first download always stalls for its own duration,
    i.e. startup delay).
    """

    def __init__(self, threshold_s: float = 3.0, segment_s: float = 1.0):
        if threshold_s <= 0 or segment_s <= 0:
            raise ValueError("threshold and segment duration must be positive")
        self.threshold_s = threshold_s
        self.segment_s = segment_s
        self._level = 0.0

    @property
    def level_s(self) -> float:
        return self._level

    def advance(self, download_time_s: float) -> BufferEvent:
        """Simulate waiting for the gate, downloading, and enqueueing.

        Implements Eq. 6: ``B_{k+1} = max(B_k - S/R, 0) + L - dt_k``
        (the wait happens first, draining the buffer to the threshold,
        which is equivalent to subtracting dt at the end).
        """
        if download_time_s < 0:
            raise ValueError("download time must be non-negative")
        wait, level_at_request = request_gate(self._level, self.threshold_s)
        stall, level = drain(level_at_request, download_time_s, self.segment_s)
        self._level = float(level)
        return BufferEvent(
            wait_s=float(wait),
            stall_s=float(stall),
            level_before_s=float(level_at_request),
            level_after_s=self._level,
        )
