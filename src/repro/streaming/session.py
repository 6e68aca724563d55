"""Trace-driven streaming session simulator.

Replays one user's head-movement trace against a network trace: for
every segment the client predicts the viewport, estimates bandwidth,
asks the scheme for a download plan, downloads against the network
trace, advances the playback buffer, and scores energy (Eq. 1) and QoE
(Eq. 2) for what the user actually saw.

Conventions:

* The head trace is indexed by *video time*; the playhead position when
  requesting segment k is ``k*L - B`` (downloaded minus buffered).
* Viewport-sensitive requests are issued *late*: as in deadline-driven
  players (e.g. Flare), the high-quality region of a segment is fixed
  only ``late_fetch_horizon_s`` before its playback, so the predictor
  sees head samples up to that point and extrapolates a short horizon
  instead of the full buffer pipeline.
* The viewport actually watched during segment k is the trace at the
  segment midpoint; the plan's high-quality region covers some fraction
  of it, and the rest is seen at the lowest quality.
* The frame-rate QoE factor uses the *actual* switching speed during
  the segment (the scheme chose the frame rate from a prediction).
* The first download is startup delay, not a rebuffering event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..power.energy import EnergyModel, SegmentEnergy
from ..power.models import DevicePowerModel
from ..prediction.bandwidth import HarmonicMeanEstimator
from ..prediction.viewport import TraceFeeder
from ..ptile.construction import SegmentPtiles
from ..qoe.framerate import alpha_from_behavior, frame_rate_factor
from ..qoe.metrics import QoEModel
from ..traces.head_movement import HeadTrace
from ..traces.network import NetworkTrace
from ..video.segments import VideoManifest
from .buffer import PlaybackBuffer
from .cache import EdgeHitModel
from .ftile import FtilePartition
from .metrics import SegmentRecord, SessionResult
from .schemes import LOWEST_QUALITY, PlanContext, StreamingScheme

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..resilience.faults import FaultPlan
    from ..resilience.policy import DownloadPolicy

__all__ = ["SessionConfig", "run_session"]


@dataclass(frozen=True)
class SessionConfig:
    """Simulation parameters (paper Section V defaults)."""

    segment_seconds: float = 1.0
    buffer_threshold_s: float = 3.0
    bandwidth_window: int = 5
    predictor_window_s: float = 2.0
    horizon: int = 5
    fov_deg: float = 100.0
    late_fetch_horizon_s: float = 1.2
    count_startup_stall: bool = False
    max_segments: int | None = None
    # When set, the cached fraction of every download is served at the
    # edge link rate instead of the backhaul trace (see
    # repro.streaming.cache.build_edge_hit_model).
    edge_model: EdgeHitModel | None = None
    # Viewport-prediction strategy: a callable (trace, fov_deg, window_s)
    # -> predictor.  None selects the paper's ridge regression; see
    # repro.prediction.strategies for the static/oracle alternatives.
    predictor_factory: Callable | None = None
    # Resilience (docs/MODELING.md §10): a deterministic fault overlay
    # on the network trace plus the client's deadline/retry/degradation
    # policy.  With both None the session runs the exact ideal-network
    # code path; setting either engages the resilient download engine
    # (a missing policy falls back to DownloadPolicy() defaults, a
    # missing plan to no faults).
    fault_plan: FaultPlan | None = None
    download_policy: DownloadPolicy | None = None

    def __post_init__(self) -> None:
        late = self.late_fetch_horizon_s
        if not (math.isfinite(late) and late >= 0):
            raise ValueError(
                f"late_fetch_horizon_s must be finite and >= 0, got {late!r}"
            )
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")
        window = self.predictor_window_s
        if not (math.isfinite(window) and window > 0):
            raise ValueError(
                f"predictor_window_s must be finite and > 0, got {window!r}"
            )


def run_session(
    scheme: StreamingScheme,
    manifest: VideoManifest,
    head_trace: HeadTrace,
    network: NetworkTrace,
    device: DevicePowerModel,
    *,
    ptiles: list[SegmentPtiles] | None = None,
    ftiles: list[FtilePartition] | None = None,
    qoe: QoEModel | None = None,
    config: SessionConfig = SessionConfig(),
) -> SessionResult:
    """Simulate one full streaming session and return its metrics."""
    qoe = qoe or QoEModel()
    length = manifest.num_segments
    if config.max_segments is not None:
        length = min(length, config.max_segments)
    if length < 1:
        raise ValueError("nothing to stream")

    buffer = PlaybackBuffer(config.buffer_threshold_s, config.segment_seconds)
    bandwidth = HarmonicMeanEstimator(config.bandwidth_window)
    # Startup probe: the client measures throughput while fetching the
    # manifest/metadata before the first segment request.  A trace may
    # open inside an outage second (zero-bandwidth bin), which the
    # harmonic-mean estimator rejects; probe forward to the first
    # positive sample instead.
    probe = network.bandwidth_at(0.0)
    if probe <= 0:
        probe = network.next_positive_bandwidth(0.0)
    bandwidth.add(probe)
    if config.predictor_factory is None:
        feeder = TraceFeeder.ridge(
            head_trace, config.predictor_window_s, config.fov_deg
        )
    else:
        feeder = TraceFeeder(head_trace, config.predictor_factory(
            head_trace, config.fov_deg, config.predictor_window_s
        ), config.fov_deg)

    # Resilient download engine (lazy import: repro.resilience imports
    # streaming.schemes, so a top-level import here would be circular).
    resilient = (
        config.fault_plan is not None or config.download_policy is not None
    )
    if resilient:
        from ..resilience.network import FaultyNetwork
        from ..resilience.policy import DownloadPolicy, execute_download

        fault_plan = config.fault_plan
        policy = config.download_policy or DownloadPolicy()
        faulty_net = (
            FaultyNetwork(network, fault_plan)
            if fault_plan is not None and not fault_plan.is_idle
            else network
        )

    energy_model = EnergyModel(device, config.segment_seconds)
    records: list[SegmentRecord] = []

    wall_t = 0.0
    prev_qo: float | None = None
    for k in range(length):
        wait = buffer.wait_time()
        wall_t += wait
        level_at_request = buffer.level_s - wait

        # The user has watched up to the playhead; late viewport-tile
        # updates let the client refine the prediction until shortly
        # before the segment plays.
        playhead = k * config.segment_seconds - level_at_request
        playback_mid = (k + 0.5) * config.segment_seconds
        prediction_time = max(
            playhead, playback_mid - config.late_fetch_horizon_s, 0.0
        )
        predicted_vp, predicted_speed = feeder.predict(
            prediction_time, playback_mid
        )

        ctx = PlanContext(
            video=manifest,
            segment_index=k,
            predicted_viewport=predicted_vp,
            buffer_s=level_at_request,
            bandwidth_mbps=bandwidth.estimate(),
            window=min(config.horizon, length - k),
            ptiles=ptiles,
            ftiles=ftiles,
            predicted_speed_deg_s=predicted_speed,
            segment_seconds=config.segment_seconds,
            # How far past the freshest head sample the prediction
            # reaches; uncertainty-aware planners scale their error
            # model with it.
            prediction_horizon_s=playback_mid - prediction_time,
        )
        plan = scheme.plan(ctx)

        if resilient:
            # Deadline-aware download with retry/backoff and the
            # degradation ladder; may deliver a cheaper plan (or skip).
            # The cold-start segment's fetch is startup delay, not a
            # deadline violation, so it runs unbounded.
            outcome = execute_download(
                faulty_net,
                plan,
                manifest[k],
                manifest.fps,
                policy=policy,
                fault_plan=fault_plan,
                start_wall_t=wall_t,
                buffer_level_s=level_at_request,
                segment_index=k,
                edge_model=config.edge_model,
                unlimited_deadline=k == 0,
            )
            delivered = outcome.plan
            skipped = outcome.skipped
            edge_hit_mbit = outcome.edge_hit_mbit
            download_time = outcome.elapsed_s
            active_time = outcome.active_s
            if download_time > 0 and delivered.total_size_mbit > 0:
                bandwidth.add(delivered.total_size_mbit / download_time)
            else:
                # Skipped/instant segment: sample the effective link at
                # the end of the fetch, unless an outage zeroes it (the
                # harmonic-mean estimator rejects non-positive samples).
                sample = faulty_net.bandwidth_at(wall_t + download_time)
                if sample > 0:
                    bandwidth.add(sample)
        else:
            delivered = plan
            skipped = False
            if config.edge_model is not None:
                # Split the download: edge-cached bytes arrive at the
                # edge link rate, only the miss fraction crosses the
                # backhaul.
                edge_hit_mbit = plan.total_size_mbit * config.edge_model.hit_ratio(k)
                miss_mbit = plan.total_size_mbit - edge_hit_mbit
                download_time = (
                    network.download_time(miss_mbit, wall_t)
                    + edge_hit_mbit / config.edge_model.edge_bandwidth_mbps
                )
            else:
                edge_hit_mbit = 0.0
                download_time = network.download_time(plan.total_size_mbit, wall_t)
            active_time = download_time
            if download_time > 0:
                bandwidth.add(plan.total_size_mbit / download_time)
            else:
                # An instantaneous download (empty or negligible payload)
                # carries no throughput ratio; feed the trace's current
                # bandwidth instead of dropping the sample so the
                # harmonic-mean estimator does not go stale.  Skip the
                # sample inside a zero-bandwidth bin (the estimator
                # rejects non-positive values).
                sample = network.bandwidth_at(wall_t)
                if sample > 0:
                    bandwidth.add(sample)
        event = buffer.advance(download_time)
        wall_t += download_time

        # Energy (Eq. 1): transmission from radio-active time (excludes
        # backoff waits), decode/render from what actually plays — a
        # skipped segment freezes the display and costs neither.
        energy = SegmentEnergy(
            transmission_j=energy_model.transmission_energy_from_time_j(
                active_time
            ),
            decoding_j=0.0
            if skipped
            else energy_model.decoding_energy_j(
                delivered.decode_scheme, delivered.frame_rate
            ),
            rendering_j=0.0
            if skipped
            else energy_model.rendering_energy_j(delivered.frame_rate),
        )

        # What the user actually saw.
        seg = manifest[k]
        actual_vp = head_trace.viewport_at(playback_mid, config.fov_deg)
        actual_speed = head_trace.speed_quantile_in(
            k * config.segment_seconds, (k + 1) * config.segment_seconds
        )
        alpha = alpha_from_behavior(actual_speed, seg.ti)
        factor = frame_rate_factor(delivered.frame_rate, manifest.fps, alpha)
        if skipped:
            # Nothing arrived: zero coverage and zero perceived quality
            # (the full coverage penalty of the ladder's last rung).
            coverage = 0.0
            qo_effective = 0.0
        else:
            coverage = delivered.coverage_of(actual_vp)
            qo_high = qoe.quality.qo(
                seg.si, seg.ti, seg.qoe_bitrate_mbps(delivered.quality)
            )
            qo_low = qoe.quality.qo(
                seg.si, seg.ti, seg.qoe_bitrate_mbps(LOWEST_QUALITY)
            )
            qo_effective = (
                coverage * qo_high + (1.0 - coverage) * qo_low
            ) * factor

        # Startup handling: the first download is startup delay, not a
        # rebuffering event, unless the config opts in.  The recorded
        # stall and the QoE penalty must agree on this.
        count_stall = k > 0 or config.count_startup_stall
        stall_for_qoe = download_time if count_stall else 0.0
        stall_recorded = event.stall_s if count_stall else 0.0
        buffer_for_qoe = event.level_before_s
        segment_qoe = qoe.segment_qoe(
            qo_effective, prev_qo, stall_for_qoe, buffer_for_qoe
        )
        prev_qo = qo_effective

        records.append(
            SegmentRecord(
                index=k,
                quality=delivered.quality,
                frame_rate=delivered.frame_rate,
                size_mbit=delivered.total_size_mbit,
                download_time_s=download_time,
                wait_s=event.wait_s,
                stall_s=stall_recorded,
                buffer_before_s=event.level_before_s,
                coverage=coverage,
                qo_effective=qo_effective,
                qoe=segment_qoe,
                energy=energy,
                decode_scheme=delivered.decode_scheme,
                used_ptile=delivered.used_ptile,
                edge_hit_mbit=edge_hit_mbit,
                retries=outcome.retries if resilient else 0,
                timeouts=outcome.timeouts if resilient else 0,
                degraded_level=int(outcome.level) if resilient else 0,
                expected_coverage=delivered.expected_coverage,
                uncertainty_deg=delivered.sigma_deg,
            )
        )
    return SessionResult(
        scheme_name=scheme.name,
        video_id=manifest.video.meta.video_id,
        user_id=head_trace.user_id,
        device_name=device.name,
        network_name=network.name,
        records=records,
    )
