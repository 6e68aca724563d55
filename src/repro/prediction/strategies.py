"""Alternative viewport-prediction strategies.

The paper uses ridge regression (:class:`ViewportPredictor`); these
variants bound it from below and above for ablation studies:

* :class:`StaticPredictor` — persistence: the viewport stays where it
  is.  The floor any trend model must beat.
* :class:`OraclePredictor` — reads the future from the head trace.  The
  ceiling: what perfect prediction would buy.

All three expose the same interface the session loop uses
(``observe`` / ``predict_viewport`` / ``recent_speed_deg_s`` /
``num_observations``), so they are drop-in replacements via
``SessionConfig.predictor_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.viewport import DEFAULT_FOV_DEG, Viewport
from ..traces.head_movement import HeadTrace

__all__ = [
    "StaticPredictor",
    "OraclePredictor",
    "static_predictor_factory",
    "oracle_predictor_factory",
]


@dataclass
class StaticPredictor:
    """Persistence baseline: predict the most recent viewing center."""

    fov_deg: float = DEFAULT_FOV_DEG
    _last: tuple[float, float, float] | None = field(default=None, repr=False)
    _speeds: list = field(default_factory=list, repr=False)
    window_s: float = 2.0

    @property
    def num_observations(self) -> int:
        return 0 if self._last is None else 1

    def observe(self, t: float, yaw: float, pitch: float) -> None:
        if self._last is not None:
            last_t, last_yaw, last_pitch = self._last
            if t <= last_t:
                raise ValueError("observations must be time-ordered")
            delta = (yaw - last_yaw + 180.0) % 360.0 - 180.0
            speed = float(np.hypot(delta, pitch - last_pitch) / (t - last_t))
            self._speeds.append((t, speed))
            cutoff = t - self.window_s
            self._speeds = [s for s in self._speeds if s[0] >= cutoff]
            yaw = last_yaw + delta
        self._last = (t, yaw, pitch)

    def predict_viewport(self, t_target: float) -> Viewport:
        if self._last is None:
            raise RuntimeError("no observations yet")
        _, yaw, pitch = self._last
        return Viewport(yaw % 360.0, pitch, self.fov_deg, self.fov_deg)

    def recent_speed_deg_s(self, quantile: float = 0.75) -> float:
        if not self._speeds:
            return 0.0
        return float(np.quantile([s[1] for s in self._speeds], quantile))


@dataclass
class OraclePredictor:
    """Perfect prediction: reads the head trace at the target time."""

    trace: HeadTrace
    fov_deg: float = DEFAULT_FOV_DEG
    _observed: int = field(default=0, repr=False)

    @property
    def num_observations(self) -> int:
        return max(self._observed, 1)  # always ready

    def observe(self, t: float, yaw: float, pitch: float) -> None:
        self._observed += 1

    def predict_viewport(self, t_target: float) -> Viewport:
        return self.trace.viewport_at(t_target, self.fov_deg)

    def recent_speed_deg_s(self, quantile: float = 0.75) -> float:
        # The oracle also knows the upcoming second's motion.
        t = float(self.trace.timestamps[min(self._observed,
                                            self.trace.num_samples - 1)])
        end = min(t + 1.0, float(self.trace.timestamps[-1]))
        if end <= t:
            return 0.0
        return self.trace.speed_quantile_in(t, end, quantile)


def static_predictor_factory(trace: HeadTrace, fov_deg: float,
                             window_s: float = 2.0) -> StaticPredictor:
    return StaticPredictor(fov_deg=fov_deg, window_s=window_s)


def oracle_predictor_factory(trace: HeadTrace, fov_deg: float,
                             window_s: float = 2.0) -> OraclePredictor:
    return OraclePredictor(trace=trace, fov_deg=fov_deg)
