"""Plan-request model and validation for the decision service.

A :class:`PlanRequest` carries exactly what the in-process planner
reads from a :class:`~repro.streaming.schemes.PlanContext`: which
segment of which video, the client's buffer level and bandwidth
estimate, the predicted viewport and head-switching speed, and the
lookahead window length.  Everything else the service reconstructs
from its own per-video state (manifests, Ptiles, plan tables), which
is what makes service-sourced decisions bit-identical to local
planning: the context rebuilt server-side contains the same floats the
client would have assembled.

Validation is split in two layers.  :meth:`PlanRequest.validate`
checks everything knowable without a video (finiteness, signs, field
types) and raises :class:`PlanRequestError` with a stable machine-
readable ``code``; the per-video bounds (segment range, window length,
fps agreement) live in :class:`~repro.serving.planner.VideoPlanner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PlanRequest", "PlanRequestError", "request_from_context"]


class PlanRequestError(ValueError):
    """A malformed or unserviceable plan request.

    ``code`` is a stable identifier carried over the wire protocol
    (``unknown_video``, ``bad_segment``, ``bad_buffer``, ...);
    ``message`` describes the specific failure.  Subclassing
    :class:`ValueError` keeps the in-process client contract: callers
    that don't care about codes can catch the stdlib type.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _require_finite(code: str, name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanRequestError(code, f"{name} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise PlanRequestError(code, f"{name} must be finite, got {value!r}")
    return value


def _require_int(code: str, name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanRequestError(code, f"{name} must be an integer")
    return value


@dataclass(frozen=True)
class PlanRequest:
    """One segment-plan request as the decision service sees it."""

    video_id: int
    segment_index: int
    buffer_s: float
    bandwidth_mbps: float
    yaw: float
    pitch: float
    fov_h: float = 100.0
    fov_v: float = 100.0
    speed_deg_s: float = 0.0
    # Lookahead length the client would have used (run_session clips
    # the horizon at the end of the video and at max_segments; the
    # service cannot know max_segments, so the request carries the
    # resulting window).  None = the service's full horizon.
    window: int | None = None
    segment_seconds: float = 1.0
    # When given, must match the video's source frame rate (tables are
    # built at the manifest fps; serving a different one would silently
    # change the Eq. 4 factors).
    fps: float | None = None
    # False replicates a client planning without Ptiles (pure fallback).
    use_ptile: bool = True

    def validate(self) -> None:
        """Check everything knowable without the video's manifest."""
        _require_int("bad_request", "video_id", self.video_id)
        segment = _require_int("bad_segment", "segment_index",
                               self.segment_index)
        if segment < 0:
            raise PlanRequestError(
                "bad_segment", f"segment_index {segment} is negative"
            )
        buffer_s = _require_finite("bad_buffer", "buffer_s", self.buffer_s)
        if buffer_s < 0:
            raise PlanRequestError(
                "bad_buffer", f"buffer_s {buffer_s!r} is negative"
            )
        bandwidth = _require_finite(
            "bad_bandwidth", "bandwidth_mbps", self.bandwidth_mbps
        )
        if bandwidth <= 0:
            raise PlanRequestError(
                "bad_bandwidth",
                f"bandwidth_mbps {bandwidth!r} must be positive",
            )
        _require_finite("bad_viewport", "yaw", self.yaw)
        _require_finite("bad_viewport", "pitch", self.pitch)
        fov_h = _require_finite("bad_viewport", "fov_h", self.fov_h)
        fov_v = _require_finite("bad_viewport", "fov_v", self.fov_v)
        if not (0.0 < fov_h <= 360.0) or not (0.0 < fov_v <= 180.0):
            raise PlanRequestError(
                "bad_viewport", f"invalid FoV ({fov_h!r}, {fov_v!r})"
            )
        _require_finite("bad_speed", "speed_deg_s", self.speed_deg_s)
        if self.window is not None:
            window = _require_int("bad_window", "window", self.window)
            if window < 1:
                raise PlanRequestError(
                    "bad_window", f"window {window} must be >= 1"
                )
        seg_s = _require_finite(
            "bad_segment_seconds", "segment_seconds", self.segment_seconds
        )
        if seg_s <= 0:
            raise PlanRequestError(
                "bad_segment_seconds",
                f"segment_seconds {seg_s!r} must be positive",
            )
        if self.fps is not None:
            fps = _require_finite("bad_fps", "fps", self.fps)
            if fps <= 0:
                raise PlanRequestError(
                    "bad_fps", f"fps {fps!r} must be positive"
                )
        if not isinstance(self.use_ptile, bool):
            raise PlanRequestError(
                "bad_request", "use_ptile must be a boolean"
            )


def request_from_context(ctx) -> PlanRequest:
    """The request a :class:`~repro.streaming.schemes.PlanContext` maps to.

    Used by the in-process/session client: every float is passed through
    unchanged, so the service rebuilds the exact context the local
    planner would have consumed.
    """
    viewport = ctx.predicted_viewport
    return PlanRequest(
        video_id=ctx.manifest.video_id,
        segment_index=ctx.segment_index,
        buffer_s=float(ctx.buffer_s),
        bandwidth_mbps=float(ctx.bandwidth_mbps),
        yaw=float(viewport.yaw),
        pitch=float(viewport.pitch),
        fov_h=float(viewport.fov_h),
        fov_v=float(viewport.fov_v),
        speed_deg_s=float(ctx.predicted_speed_deg_s),
        window=ctx.window,
        segment_seconds=float(ctx.segment_seconds),
        fps=float(ctx.fps),
        use_ptile=ctx.segment_ptiles is not None,
    )
