"""Synthetic head-movement generator.

Stand-in for the Wu et al. MMSys'17 dataset (see DESIGN.md).  The
generator reproduces the two behavioural regimes the paper relies on:

* **focused** (videos 1-4): users were instructed to follow the video
  content, so their viewing centers cluster around a shared
  region-of-interest (ROI) trajectory, with personal offsets, pursuit
  lag, and occasional glances at a secondary ROI.
* **exploratory** (videos 5-8): users alternate between following the
  ROI and freely exploring the sphere via self-chosen waypoints, so
  viewing centers spread out and more Ptiles are needed (paper Fig. 7).

Motion is generated with a critically-damped pursuit model driven by the
current target (ROI or waypoint) plus orientation jitter, which yields
the heavy-tailed switching-speed distribution of the paper's Fig. 5
(>30 % of samples above 10 degrees/second).

All randomness flows from explicit seeds: the same (video, user) pair
always produces the same trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..video.content import Video
from .head_movement import HeadTrace

__all__ = ["BehaviorParams", "RoiPath", "generate_roi_path", "generate_user_trace",
           "generate_video_traces"]


@dataclass(frozen=True)
class BehaviorParams:
    """Tunable parameters of the head-movement model."""

    sample_rate_hz: float = 10.0
    pursuit_gain: float = 7.0  # spring constant toward the target (1/s^2)
    pursuit_damping: float = 4.5  # velocity damping (1/s)
    jitter_deg: float = 0.45  # per-sample orientation jitter (deg)
    personal_offset_deg: float = 6.5  # std of per-user offset from the ROI
    offset_time_constant_s: float = 12.0  # how slowly the offset wanders
    waypoint_interval_s: tuple[float, float] = (2.0, 6.0)
    waypoint_yaw_span_deg: float = 150.0
    waypoint_pitch_range: tuple[float, float] = (-35.0, 25.0)
    follow_to_explore_per_s: float = 0.06
    explore_to_follow_per_s: float = 0.18
    secondary_roi_offset_deg: float = 140.0
    secondary_attention_share: float = 0.08
    secondary_attention_share_exploratory: float = 0.30
    secondary_switch_per_s: float = 0.03

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        lo, hi = self.waypoint_interval_s
        if not (0 < lo <= hi):
            raise ValueError("invalid waypoint interval")
        for share in (self.secondary_attention_share,
                      self.secondary_attention_share_exploratory):
            if not (0.0 <= share <= 1.0):
                raise ValueError("secondary attention share must be in [0, 1]")


@dataclass(frozen=True)
class RoiPath:
    """The shared region-of-interest trajectory of one video."""

    timestamps: np.ndarray
    yaw_unwrapped: np.ndarray
    pitch: np.ndarray

    def at(self, index: int) -> tuple[float, float]:
        return float(self.yaw_unwrapped[index]), float(self.pitch[index])

    @property
    def num_samples(self) -> int:
        return int(self.timestamps.size)


def generate_roi_path(
    video: Video,
    params: BehaviorParams = BehaviorParams(),
    seed: int | None = None,
) -> RoiPath:
    """Generate the content ROI trajectory for a video.

    The ROI drifts slowly most of the time and sweeps quickly during
    "action events" (a ball pass, a skier jump), whose density scales
    with the video's temporal complexity (TI).
    """
    rng = np.random.default_rng(
        video.meta.video_id * 104729 if seed is None else seed
    )
    dt = 1.0 / params.sample_rate_hz
    n = int(round(video.meta.duration_s * params.sample_rate_hz)) + 1
    t = np.arange(n) * dt

    # Baseline drift velocity: OU process, degrees/second.
    drift_scale = 4.0 + 0.15 * video.meta.ti_base
    velocity = np.zeros(n)
    theta = 0.4  # mean reversion rate (1/s)
    v = rng.normal(0.0, drift_scale)
    for i in range(n):
        v += -theta * v * dt + drift_scale * np.sqrt(2 * theta * dt) * rng.normal()
        velocity[i] = v

    # Action events: short fast sweeps; rate grows with TI.
    events_per_minute = 1.0 + video.meta.ti_base / 12.0
    time_cursor = 0.0
    while True:
        gap = rng.exponential(60.0 / events_per_minute)
        time_cursor += gap
        if time_cursor >= t[-1]:
            break
        duration = rng.uniform(0.8, 2.5)
        speed = rng.uniform(40.0, 110.0) * rng.choice([-1.0, 1.0])
        mask = (t >= time_cursor) & (t < time_cursor + duration)
        velocity[mask] += speed
        time_cursor += duration

    yaw = np.cumsum(velocity) * dt + rng.uniform(0.0, 360.0)

    # Pitch: slow OU around slightly below the equator.
    pitch = np.zeros(n)
    p = rng.normal(-5.0, 4.0)
    for i in range(n):
        p += -0.25 * (p + 5.0) * dt + 2.0 * np.sqrt(dt) * rng.normal()
        pitch[i] = p
    pitch = np.clip(pitch, -45.0, 35.0)
    return RoiPath(timestamps=t, yaw_unwrapped=yaw, pitch=pitch)


def generate_user_trace(
    video: Video,
    user_id: int,
    roi: RoiPath,
    params: BehaviorParams = BehaviorParams(),
    seed: int | None = None,
) -> HeadTrace:
    """Generate one user's head-movement trace for a video.

    The user follows a target (ROI with a personal offset, a secondary
    ROI, or — for exploratory videos — self-chosen waypoints) through a
    damped second-order pursuit model.
    """
    exploratory = video.meta.behavior == "exploratory"
    if seed is None:
        seed = video.meta.video_id * 1_000_003 + user_id * 7907
    rng = np.random.default_rng(seed)
    dt = 1.0 / params.sample_rate_hz
    n = roi.num_samples
    t = roi.timestamps

    # Per-user stable traits.
    secondary_share = (
        params.secondary_attention_share_exploratory
        if exploratory
        else params.secondary_attention_share
    )
    secondary_viewer = rng.random() < secondary_share
    offset_yaw = rng.normal(0.0, params.personal_offset_deg)
    offset_pitch = rng.normal(0.0, params.personal_offset_deg * 0.6)

    # Traces are pinned bit for bit (golden digests; they feed every
    # artifact key), so the RNG draw order and each float operation
    # must stay as they are.  The state is kept in plain floats.
    normal, random, uniform = rng.normal, rng.random, rng.uniform
    roi_yaws = roi.yaw_unwrapped.tolist()
    roi_pitches = roi.pitch.tolist()
    times = t.tolist()
    yaw_prev = roi_yaws[0] + offset_yaw
    pitch_prev = min(max(roi_pitches[0] + offset_pitch, -80.0), 80.0)
    yaws = [yaw_prev]
    pitches = [pitch_prev]
    vel_yaw = 0.0
    vel_pitch = 0.0

    exploring = exploratory and random() < 0.5
    on_secondary = False
    waypoint = (yaw_prev, pitch_prev)
    next_waypoint_at = 0.0
    offset_theta = 1.0 / params.offset_time_constant_s
    offset_sigma = params.personal_offset_deg
    offset_step = math.sqrt(2 * offset_theta * dt)
    offset_noise_yaw = offset_sigma * offset_step
    offset_noise_pitch = 0.6 * offset_sigma * offset_step
    p_explore_to_follow = params.explore_to_follow_per_s * dt
    p_follow_to_explore = params.follow_to_explore_per_s * dt
    p_switch = params.secondary_switch_per_s * dt
    gain, damping, jitter = (
        params.pursuit_gain, params.pursuit_damping, params.jitter_deg
    )

    for i in range(1, n):
        now = times[i]
        # Slowly wandering personal offset (users do not stare at the
        # exact ROI point).
        offset_yaw += -offset_theta * offset_yaw * dt + offset_noise_yaw * normal()
        offset_pitch += (
            -offset_theta * offset_pitch * dt + offset_noise_pitch * normal()
        )

        # Behavioural state transitions.
        if exploratory:
            if exploring:
                if random() < p_explore_to_follow:
                    exploring = False
            elif random() < p_follow_to_explore:
                exploring = True
        if secondary_viewer and random() < p_switch:
            on_secondary = not on_secondary

        # Current target.
        if exploring:
            if now >= next_waypoint_at:
                lo, hi = params.waypoint_interval_s
                next_waypoint_at = now + uniform(lo, hi)
                waypoint = (
                    yaw_prev + uniform(-1.0, 1.0) * params.waypoint_yaw_span_deg,
                    uniform(*params.waypoint_pitch_range),
                )
            target_yaw, target_pitch = waypoint
        else:
            target_yaw = roi_yaws[i] + offset_yaw
            target_pitch = roi_pitches[i] + offset_pitch
            if on_secondary:
                target_yaw += params.secondary_roi_offset_deg
        target_pitch = min(max(target_pitch, -80.0), 80.0)

        # Damped pursuit dynamics.
        acc_yaw = gain * (target_yaw - yaw_prev) - damping * vel_yaw
        acc_pitch = gain * (target_pitch - pitch_prev) - damping * vel_pitch
        vel_yaw += acc_yaw * dt
        vel_pitch += acc_pitch * dt
        yaw_prev = yaw_prev + vel_yaw * dt + normal(0.0, jitter)
        pitch_prev = min(
            max(pitch_prev + vel_pitch * dt + normal(0.0, jitter), -85.0), 85.0
        )
        yaws.append(yaw_prev)
        pitches.append(pitch_prev)

    yaw = np.array(yaws)
    pitch = np.array(pitches)
    return HeadTrace(
        user_id=user_id,
        video_id=video.meta.video_id,
        timestamps=t,
        yaw_unwrapped=yaw,
        pitch=pitch,
    )


def generate_video_traces(
    video: Video,
    n_users: int = 48,
    params: BehaviorParams = BehaviorParams(),
    seed: int = 2017,  # MMSys'17 dataset vintage
) -> list[HeadTrace]:
    """Generate head-movement traces for all users of one video."""
    if n_users < 1:
        raise ValueError("need at least one user")
    roi = generate_roi_path(video, params, seed=seed + video.meta.video_id)
    return [
        generate_user_trace(
            video,
            user_id,
            roi,
            params,
            seed=seed * 65537 + video.meta.video_id * 1_000_003 + user_id * 7907,
        )
        for user_id in range(n_users)
    ]
