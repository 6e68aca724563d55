"""Deterministic fault plans overlaying a network trace.

The simulator's :class:`~repro.traces.network.NetworkTrace` models an
ideal link: every download succeeds and the only impairment is finite
bandwidth.  Production links misbehave in structured ways — radio
outages, RTT spikes, congestion collapse, corrupt or aborted object
fetches, and edge-cache node failures — and robust tile streaming under
that uncertainty is its own literature (Ghosh et al.'s robust tile
scheduling; Flare's deadline-driven fetching, which already motivates
``late_fetch_horizon_s``).

A :class:`FaultPlan` is a *seeded, precomputed* overlay: every outage
window, collapse window, latency spike, per-attempt failure decision,
and edge-failure time is fixed up front by ``(profile, seed)``, so a
faulty session is exactly as deterministic as a fault-free one — the
same plan replayed serially, across a process pool, or from the results
cache produces byte-identical :class:`~repro.streaming.metrics.SessionResult`\\ s.

Fault semantics (see ``docs/MODELING.md`` §10):

* **Outage** — no bytes flow inside the window; wall time still passes.
* **Collapse** — throughput is multiplied by ``factor`` < 1 inside the
  window (overlapping windows multiply).
* **Latency spike** — a download attempt *starting* inside the window
  pays ``extra_latency_s`` before its first byte (the max applies when
  spikes overlap).
* **Attempt failure** — a completed transfer is corrupt/aborted with
  probability ``failure_rate``, decided by a stable hash of
  ``(seed, segment, attempt)`` so the decision does not depend on call
  order or process layout.
* **Edge failure** — the edge-cache node dies at ``edge_fail_at_s``;
  later requests see a hit ratio of zero (the backhaul still works).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Outage",
    "CollapseWindow",
    "LatencySpike",
    "FaultPlan",
    "FAULT_PROFILES",
    "generate_fault_plan",
]


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ValueError("window start must be non-negative")
    if end_s <= start_s:
        raise ValueError("window end must come after its start")


@dataclass(frozen=True)
class Outage:
    """A window during which the link carries no bytes at all."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class CollapseWindow:
    """A window during which throughput collapses to a fraction."""

    start_s: float
    end_s: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 < self.factor < 1.0:
            raise ValueError("collapse factor must be in (0, 1)")


@dataclass(frozen=True)
class LatencySpike:
    """A window during which each new request pays extra first-byte
    latency."""

    start_s: float
    end_s: float
    extra_latency_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.extra_latency_s <= 0:
            raise ValueError("extra latency must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic overlay of link/edge faults on a session.

    All fields are primitives or tuples of frozen dataclasses, so the
    plan fingerprints structurally into results-cache keys: two sweeps
    with the same ``(profile, seed)`` share cached sessions, any other
    pair cannot collide.
    """

    name: str = "none"
    seed: int = 0
    outages: tuple[Outage, ...] = ()
    collapses: tuple[CollapseWindow, ...] = ()
    latency_spikes: tuple[LatencySpike, ...] = ()
    failure_rate: float = 0.0
    edge_fail_at_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "collapses", tuple(self.collapses))
        object.__setattr__(self, "latency_spikes", tuple(self.latency_spikes))
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure rate must be in [0, 1]")
        if self.edge_fail_at_s is not None and self.edge_fail_at_s < 0:
            raise ValueError("edge failure time must be non-negative")
        # Piecewise boundaries where the bandwidth factor can change,
        # precomputed for the download integrator.  Attached outside the
        # declared fields so fingerprints/digests ignore the memo.
        edges = sorted(
            {w.start_s for w in self.outages}
            | {w.end_s for w in self.outages}
            | {w.start_s for w in self.collapses}
            | {w.end_s for w in self.collapses}
        )
        object.__setattr__(self, "_boundaries", tuple(edges))

    # ------------------------------------------------------------------
    # Queries used by the download engine.
    # ------------------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when the plan can never perturb a session."""
        return (
            not self.outages
            and not self.collapses
            and not self.latency_spikes
            and self.failure_rate == 0.0
            and self.edge_fail_at_s is None
        )

    def bandwidth_factor(self, t):
        """Multiplier on the trace bandwidth at absolute time ``t``,
        elementwise over an array of times."""
        if isinstance(t, np.ndarray):
            factor = np.ones_like(t)
            for w in self.collapses:
                factor[(w.start_s <= t) & (t < w.end_s)] *= w.factor
            for w in self.outages:
                factor[(w.start_s <= t) & (t < w.end_s)] = 0.0
            return factor
        for w in self.outages:
            if w.start_s <= t < w.end_s:
                return 0.0
        factor = 1.0
        for w in self.collapses:
            if w.start_s <= t < w.end_s:
                factor *= w.factor
        return factor

    def next_boundary_after(self, t):
        """Earliest fault boundary strictly after ``t`` (inf if none),
        elementwise over an array of times."""
        edges = self._boundaries  # type: ignore[attr-defined]
        if isinstance(t, np.ndarray):
            edges = np.append(edges, np.inf)
            return edges[np.searchsorted(edges, t, side="right")]
        for edge in edges:
            if edge > t:
                return edge
        return float("inf")

    def extra_latency(self, t):
        """First-byte latency added to a request issued at ``t``,
        elementwise over an array of times."""
        if isinstance(t, np.ndarray):
            latency = np.zeros_like(t)
            for w in self.latency_spikes:
                inside = (w.start_s <= t) & (t < w.end_s)
                latency[inside] = np.maximum(latency[inside],
                                             w.extra_latency_s)
            return latency
        latency = 0.0
        for w in self.latency_spikes:
            if w.start_s <= t < w.end_s:
                latency = max(latency, w.extra_latency_s)
        return latency

    def attempt_fails(self, segment_index: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` for a segment completes corrupt.

        Decided by a SHA-256 hash of ``(seed, segment, attempt)`` mapped
        to [0, 1), so the outcome is a pure function of the plan and the
        attempt's identity — independent of processes, call order, or
        Python's randomized ``hash()``.
        """
        if self.failure_rate <= 0.0:
            return False
        raw = hashlib.sha256(
            struct.pack("<qqq", self.seed, segment_index, attempt)
        ).digest()
        draw = struct.unpack("<Q", raw[:8])[0] / float(2**64)
        return draw < self.failure_rate

    def edge_available(self, t):
        """Whether the edge-cache node is still alive at time ``t``
        (elementwise over an array of times, or True for all)."""
        return self.edge_fail_at_s is None or t < self.edge_fail_at_s


# ----------------------------------------------------------------------
# Named profiles.  Each builder draws its windows from a seeded
# Generator; generate_fault_plan derives the Generator from
# (profile name, seed) so two profiles with the same seed do not share a
# random stream.
# ----------------------------------------------------------------------


def _draw_windows(rng, duration_s, mean_gap_s, min_len_s, max_len_s):
    """Poisson-arrival windows clipped to the session duration.

    Always yields at least one window: on short sessions the long mean
    gaps would otherwise often draw zero arrivals, turning the profile
    into a silent no-op.  The fallback window is drawn from the same
    seeded stream, so determinism is unchanged.
    """
    windows = []
    cursor = float(rng.exponential(mean_gap_s))
    while cursor < duration_s:
        length = float(rng.uniform(min_len_s, max_len_s))
        windows.append((cursor, min(cursor + length, duration_s)))
        cursor += length + float(rng.exponential(mean_gap_s))
    if not windows:
        length = min(float(rng.uniform(min_len_s, max_len_s)),
                     0.5 * duration_s)
        start = float(rng.uniform(0.1, 0.8)) * (duration_s - length)
        windows.append((start, start + length))
    return windows


def _none_profile(duration_s: float, rng) -> dict:
    return {}


def _outages_profile(duration_s: float, rng) -> dict:
    return {
        "outages": tuple(
            Outage(start, end)
            for start, end in _draw_windows(rng, duration_s, 45.0, 0.5, 2.5)
        )
    }


def _spikes_profile(duration_s: float, rng) -> dict:
    return {
        "latency_spikes": tuple(
            LatencySpike(start, end, float(rng.uniform(0.3, 1.2)))
            for start, end in _draw_windows(rng, duration_s, 25.0, 1.0, 4.0)
        )
    }


def _collapse_profile(duration_s: float, rng) -> dict:
    return {
        "collapses": tuple(
            CollapseWindow(start, end, float(rng.uniform(0.1, 0.35)))
            for start, end in _draw_windows(rng, duration_s, 60.0, 4.0, 10.0)
        )
    }


def _lossy_profile(duration_s: float, rng) -> dict:
    spikes = _spikes_profile(duration_s, rng)
    return {"failure_rate": 0.15, **spikes}


def _edge_flaky_profile(duration_s: float, rng) -> dict:
    return {
        "edge_fail_at_s": float(rng.uniform(0.25, 0.75) * duration_s),
    }


def _stress_profile(duration_s: float, rng) -> dict:
    plan: dict = {}
    plan.update(_outages_profile(duration_s, rng))
    plan.update(_collapse_profile(duration_s, rng))
    plan.update(_spikes_profile(duration_s, rng))
    plan.update(_edge_flaky_profile(duration_s, rng))
    plan["failure_rate"] = 0.1
    return plan


FAULT_PROFILES = {
    "none": _none_profile,
    "outages": _outages_profile,
    "spikes": _spikes_profile,
    "collapse": _collapse_profile,
    "lossy": _lossy_profile,
    "edge-flaky": _edge_flaky_profile,
    "stress": _stress_profile,
}
"""Named fault-profile builders: ``name -> f(duration_s, rng) -> fields``."""


def generate_fault_plan(
    profile: str, duration_s: float, seed: int = 7
) -> FaultPlan:
    """Build the deterministic :class:`FaultPlan` of ``(profile, seed)``.

    ``duration_s`` bounds the window placement (normally the network
    trace duration, which also bounds the session wall clock for
    real-time playback).  The same arguments always produce the same
    plan, byte for byte.
    """
    try:
        builder = FAULT_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r}; available profiles: "
            f"{', '.join(sorted(FAULT_PROFILES))}"
        ) from None
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    name_salt = int.from_bytes(
        hashlib.sha256(profile.encode("utf-8")).digest()[:8], "little"
    )
    rng = np.random.default_rng([seed, name_salt])
    fields = builder(float(duration_s), rng)
    return FaultPlan(name=profile, seed=seed, **fields)
