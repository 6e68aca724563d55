"""Per-segment invariants of a simulated streaming session.

:func:`check_invariants` asserts what every :class:`SegmentRecord` of a
session must satisfy by construction, independent of the scheme, the
traces, and any fault overlay:

* Eq. 1 — every energy component is non-negative;
* Eq. 6/7 — the buffer level when a request is issued lies in
  ``[0, buffer_threshold_s]`` (the threshold gate drains anything
  above it before the request);
* stalls — a segment stalls for exactly ``max(download - buffer, 0)``,
  except the first segment, whose download is startup delay (zero
  stall) unless ``count_startup_stall`` opts in;
* Eq. 2 — there is no QoE rebuffer penalty without a recorded stall;
* degradation — a skipped segment decodes and renders nothing and
  covers no part of the viewport.

Identity tests compare results against each other; these checks catch a
result that agrees with itself but breaks the model.
"""

from __future__ import annotations

from repro.resilience.policy import DegradationLevel
from repro.streaming.metrics import SessionResult
from repro.streaming.session import SessionConfig

__all__ = ["check_invariants"]


def check_invariants(result: SessionResult, config: SessionConfig) -> None:
    """Assert the per-segment invariants on every record of ``result``."""
    assert result.records, "session recorded no segments"
    for record in result.records:
        where = (
            f"{result.scheme_name} video {result.video_id}"
            f" user {result.user_id} segment {record.index}"
        )
        energy = record.energy
        assert energy.transmission_j >= 0.0, f"{where}: {energy}"
        assert energy.decoding_j >= 0.0, f"{where}: {energy}"
        assert energy.rendering_j >= 0.0, f"{where}: {energy}"

        assert 0.0 <= record.buffer_before_s <= config.buffer_threshold_s, (
            f"{where}: buffer {record.buffer_before_s!r} outside"
            f" [0, {config.buffer_threshold_s}]"
        )

        if record.index > 0 or config.count_startup_stall:
            expected = max(record.download_time_s - record.buffer_before_s, 0.0)
        else:
            expected = 0.0
        assert record.stall_s == expected, (
            f"{where}: stall {record.stall_s!r} != {expected!r}"
            f" (download {record.download_time_s!r},"
            f" buffer {record.buffer_before_s!r})"
        )

        if record.stall_s == 0.0:
            assert record.qoe.rebuffer_penalty == 0.0, (
                f"{where}: rebuffer penalty {record.qoe.rebuffer_penalty!r}"
                " without a recorded stall"
            )

        if record.degraded_level == DegradationLevel.SKIPPED:
            assert energy.decoding_j == 0.0, f"{where}: skipped, decoded"
            assert energy.rendering_j == 0.0, f"{where}: skipped, rendered"
            assert record.coverage == 0.0, f"{where}: skipped, covered"
