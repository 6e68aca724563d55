"""Viewport prediction with ridge regression (paper Section IV-B).

The client predicts the viewing center of the segment it is about to
download from the user's most recent head-movement history.  The paper
uses ridge regression on the recorded (x, y) coordinate time series
because it resists overfitting the short, noisy history window.

:class:`RidgeRegressor` is a small closed-form ridge implementation;
:class:`ViewportPredictor` feeds it time-indexed yaw/pitch histories and
extrapolates to the playback time of the next segment.

:class:`TraceFeeder` replays a head trace into a predictor as the
playhead advances.  It memoizes the ridge predictor's output on the
trace, so the sessions that replay one trace (every scheme, every
network) fit the model once per (history, target) between them.

:class:`AngularErrorModel` quantifies how wrong those extrapolations
are: a per-horizon angular-error scale (sigma, in degrees) either fit
from head traces by replaying the predictor (:func:`fit_error_model`)
or given parametrically (``base + growth * horizon``).  Robust planning
(:mod:`repro.core.robust`) feeds it into the probability layer in
:mod:`repro.prediction.uncertainty`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..geometry.viewport import DEFAULT_FOV_DEG, Viewport
from ..traces.head_movement import HeadTrace
from .uncertainty import angular_distance_deg

__all__ = [
    "AngularErrorModel",
    "RidgeRegressor",
    "TraceFeeder",
    "ViewportPredictor",
    "fit_error_model",
]


class RidgeRegressor:
    """Closed-form ridge regression ``w = (X'X + lam*I)^-1 X'y``.

    The intercept column is never regularized.
    """

    def __init__(self, lam: float = 1.0):
        if lam < 0:
            raise ValueError("regularization strength must be non-negative")
        self.lam = lam
        self._weights: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("regressor is not fitted")
        return self._weights

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegressor":
        """Fit on a design matrix (intercept added automatically)."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != y.shape[0]:
            raise ValueError("feature/target row mismatch")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        penalty = self.lam * np.eye(design.shape[1])
        penalty[0, 0] = 0.0  # free intercept
        gram = design.T @ design + penalty
        self._weights = np.linalg.solve(gram, design.T @ y)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        return design @ self.weights


@dataclass
class ViewportPredictor:
    """Predicts the future viewing center from recent head history.

    Maintains a sliding window of (t, yaw, pitch) observations (yaw
    unwrapped by the caller or internally continuous) and extrapolates
    each coordinate with a ridge-regularized linear trend — the
    coordinates of the most recent segments correlate strongly with the
    next one (paper Section IV-B).
    """

    window_s: float = 2.0
    lam: float = 1.0
    max_trend_deg_s: float = 120.0
    max_extrapolation_s: float = 1.2
    fov_deg: float = DEFAULT_FOV_DEG
    _history: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        # Written to reject NaN too: a NaN bound would make the trend
        # clamp a no-op.
        if not self.max_trend_deg_s >= 0:
            raise ValueError("max trend speed must be non-negative")

    def observe(self, t: float, yaw: float, pitch: float) -> None:
        """Record a head sample; yaw is unwrapped against the history."""
        if self._history:
            last_t, last_yaw, _ = self._history[-1]
            if t <= last_t:
                raise ValueError("observations must be time-ordered")
            # Unwrap: choose the representation closest to the last yaw.
            delta = (yaw - last_yaw + 180.0) % 360.0 - 180.0
            yaw = last_yaw + delta
        self._history.append((t, yaw, float(min(max(pitch, -90.0), 90.0))))
        cutoff = t - self.window_s
        while self._history and self._history[0][0] < cutoff:
            self._history.popleft()

    @property
    def num_observations(self) -> int:
        return len(self._history)

    def predict_center(self, t_target: float) -> tuple[float, float]:
        """Predicted (yaw, pitch) at a future time.

        Falls back to the most recent observation when the window holds
        too few samples for a stable trend.  The extrapolated trend is
        clamped to a physically plausible head speed.
        """
        if not self._history:
            raise RuntimeError("no observations yet")
        times = np.array([h[0] for h in self._history])
        yaws = np.array([h[1] for h in self._history])
        pitches = np.array([h[2] for h in self._history])
        t_last, yaw_last, pitch_last = self._history[-1]
        if len(self._history) < 4 or t_target <= t_last:
            return yaw_last % 360.0, float(min(max(pitch_last, -90.0), 90.0))

        rel = (times - t_last)[:, None]
        yaw_model = RidgeRegressor(self.lam).fit(rel, yaws)
        pitch_model = RidgeRegressor(self.lam).fit(rel, pitches)
        # Head trends are only predictive for a second or so; beyond
        # that, persistence (the current trend's endpoint) beats blind
        # linear extrapolation across the whole buffer pipeline.
        horizon = min(t_target - t_last, self.max_extrapolation_s)
        yaw_hat = float(yaw_model.predict(np.array([[horizon]]))[0])
        pitch_hat = float(pitch_model.predict(np.array([[horizon]]))[0])

        # Clamp the implied trend speed.  min/max on plain floats gives
        # np.clip's result (NaN and -0.0 included) without a numpy scalar
        # round trip per clamp.  A zero move keeps the last sample itself:
        # adding it would turn a last pitch of -0.0 into +0.0.
        max_move = self.max_trend_deg_s * horizon
        yaw_move = float(min(max(yaw_hat - yaw_last, -max_move), max_move))
        pitch_move = float(min(max(pitch_hat - pitch_last, -max_move), max_move))
        yaw_hat = yaw_last + yaw_move if yaw_move else yaw_last
        pitch_hat = pitch_last + pitch_move if pitch_move else pitch_last
        return yaw_hat % 360.0, float(min(max(pitch_hat, -90.0), 90.0))

    def predict_viewport(self, t_target: float) -> Viewport:
        yaw, pitch = self.predict_center(t_target)
        return Viewport(yaw, pitch, self.fov_deg, self.fov_deg)

    def prediction_end_s(self, t_target: float) -> float:
        """The time :meth:`predict_center` actually extrapolates to.

        Trend extrapolation is clamped to ``max_extrapolation_s`` past
        the last observation, so for targets beyond that the prediction
        is for an *earlier* time than requested; the error model charges
        the full requested horizon for that staleness.
        """
        if not self._history:
            raise RuntimeError("no observations yet")
        t_last = self._history[-1][0]
        if len(self._history) < 4 or t_target <= t_last:
            return t_last
        return t_last + min(t_target - t_last, self.max_extrapolation_s)

    def recent_speed_deg_s(self, quantile: float = 0.75) -> float:
        """Switching-speed statistic over the history window (Eq. 4).

        Uses an upper quantile by default, matching the session's QoE
        evaluation: blur tolerance is set by the faster motion within a
        window, not its average.
        """
        if len(self._history) < 2:
            return 0.0
        times = np.array([h[0] for h in self._history])
        yaws = np.array([h[1] for h in self._history])
        pitches = np.array([h[2] for h in self._history])
        steps = np.hypot(np.diff(yaws), np.diff(pitches))
        dt = np.diff(times)
        return float(np.quantile(steps / dt, quantile))


_SPEED_QUANTILE = 0.75  # ViewportPredictor.recent_speed_deg_s's default


@dataclass
class TraceFeeder:
    """Feeds a head trace to a viewport predictor as the playhead advances.

    ``fed`` is the running maximum count of samples at or before a
    requested video time; the predictor observes them only when a
    prediction must be computed.

    A feeder built by :meth:`ridge` reads its predictions through a memo
    in the trace's kinematics cache.  After the first ``fed`` samples a
    :class:`ViewportPredictor`'s state is a pure function of the trace,
    its parameters and ``fed`` (the window holds the samples within
    ``window_s`` of sample ``fed - 1``, each yaw unwrapped against the
    one before), so keyed on those and the target time, an entry is the
    one every session replaying the trace would compute, whatever its
    network, buffer or faults did to ``fed``.  Other predictors (static,
    oracle, custom) are fed and asked every time and never touch the
    memo.
    """

    trace: HeadTrace
    predictor: object  # observe / predict_viewport / recent_speed_deg_s
    fov_deg: float  # of the fallback viewport before the first sample
    shared: bool = field(default=False, init=False)  # set by ridge() only
    fed: int = field(default=0, init=False)
    _observed: int = field(default=0, init=False)

    @classmethod
    def ridge(
        cls, trace: HeadTrace, window_s: float, fov_deg: float
    ) -> "TraceFeeder":
        """The paper's ridge predictor, with predictions shared per trace."""
        feeder = cls(trace, ViewportPredictor(window_s=window_s,
                                              fov_deg=fov_deg), fov_deg)
        feeder.shared = True
        return feeder

    def predict(
        self, video_time: float, t_target: float
    ) -> tuple[Viewport, float]:
        """Predicted viewport at ``t_target`` and recent head speed from
        the samples up to ``video_time`` (the trace's start, at rest,
        before the first sample)."""
        seen = np.searchsorted(self.trace.timestamps, video_time, side="right")
        self.fed = max(self.fed, int(seen))
        if not self.shared:
            self._catch_up()
            if self.predictor.num_observations > 0:
                return (self.predictor.predict_viewport(t_target),
                        self.predictor.recent_speed_deg_s())
        elif self.fed > 0:
            return self._shared_prediction(t_target)
        return self.trace.viewport_at(0.0, self.fov_deg), 0.0

    def _shared_prediction(self, t_target: float) -> tuple[Viewport, float]:
        p = self.predictor
        key = (
            "ridge", p.window_s, p.lam, p.max_trend_deg_s,
            p.max_extrapolation_s, p.fov_deg, _SPEED_QUANTILE, self.fed,
            t_target,
        )
        cache = self.trace._kinematics_cache
        entry = cache.get(key)
        if entry is None:
            self._catch_up()
            entry = (p.predict_viewport(t_target),
                     p.recent_speed_deg_s(_SPEED_QUANTILE))
            cache[key] = entry
        return entry

    def _catch_up(self) -> None:
        trace = self.trace
        for i in range(self._observed, self.fed):
            self.predictor.observe(
                float(trace.timestamps[i]),
                float(trace.yaw_unwrapped[i]),
                float(trace.pitch[i]),
            )
        self._observed = self.fed


@dataclass(frozen=True)
class AngularErrorModel:
    """Angular prediction-error scale as a function of horizon.

    ``sigma_deg(h)`` is the Gaussian scale (degrees of great-circle
    error) the probability layer uses at prediction horizon ``h``.
    Two parameterizations, fitted table first:

    * **fitted** — ``horizons_s``/``sigmas_deg`` hold a per-horizon RMS
      error table from :func:`fit_error_model`; queries interpolate
      linearly and clamp at the table ends;
    * **parametric** — ``base_sigma_deg + growth_deg_per_s * h``, the
      Gaussian fallback when no traces are available.

    Either way the result is capped at ``max_sigma_deg``.  A model whose
    sigma is zero everywhere (``is_degenerate``) collapses robust
    planning onto the point-prediction path bit-for-bit.
    """

    base_sigma_deg: float = 0.0
    growth_deg_per_s: float = 0.0
    max_sigma_deg: float = 45.0
    horizons_s: tuple = ()
    sigmas_deg: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "horizons_s", tuple(float(h) for h in self.horizons_s)
        )
        object.__setattr__(
            self, "sigmas_deg", tuple(float(s) for s in self.sigmas_deg)
        )
        if len(self.horizons_s) != len(self.sigmas_deg):
            raise ValueError("horizons and sigmas must have equal length")
        if any(h < 0.0 for h in self.horizons_s):
            raise ValueError("horizons must be non-negative")
        if any(b >= a for b, a in zip(self.horizons_s, self.horizons_s[1:])):
            raise ValueError("horizons must be strictly increasing")
        if any(s < 0.0 for s in self.sigmas_deg):
            raise ValueError("sigmas must be non-negative")
        if self.base_sigma_deg < 0.0 or self.growth_deg_per_s < 0.0:
            raise ValueError("base sigma and growth must be non-negative")
        if self.max_sigma_deg <= 0.0:
            raise ValueError("max sigma must be positive")

    @property
    def is_degenerate(self) -> bool:
        """Whether sigma is zero at every horizon (point prediction)."""
        if self.horizons_s:
            return max(self.sigmas_deg) <= 0.0
        return self.base_sigma_deg <= 0.0 and self.growth_deg_per_s <= 0.0

    def sigma_deg(self, horizon_s: float) -> float:
        """Error scale (degrees) at a prediction horizon (seconds)."""
        h = max(float(horizon_s), 0.0)
        if self.horizons_s:
            sigma = float(np.interp(h, self.horizons_s, self.sigmas_deg))
        else:
            sigma = self.base_sigma_deg + self.growth_deg_per_s * h
        return min(sigma, self.max_sigma_deg)


def fit_error_model(
    traces: Iterable,
    horizons_s: tuple = (0.25, 0.5, 1.0, 1.5),
    *,
    window_s: float = 2.0,
    step_s: float = 0.25,
    lam: float = 1.0,
    max_sigma_deg: float = 45.0,
) -> AngularErrorModel:
    """Fit a per-horizon angular-error table by replaying the predictor.

    Streams each head trace through a fresh :class:`ViewportPredictor`
    (same window and regularization the session uses) and, every
    ``step_s`` of trace time, scores the predicted center at each
    horizon against the trace's actual orientation.  Windows whose
    target time falls past the end of a trace are *excluded* rather than
    scored against the clamped last sample — the trace cannot
    ground-truth them, and the clamp would understate long-horizon
    error.  Per-horizon sigma is the RMS angular error.

    Pure replay of deterministic machinery: the same traces always give
    the same model, regardless of process or ordering.
    """
    horizons = tuple(float(h) for h in horizons_s)
    if not horizons or any(h <= 0.0 for h in horizons):
        raise ValueError("horizons must be positive")
    if any(b >= a for b, a in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    if step_s <= 0.0:
        raise ValueError("step must be positive")

    squared: list[list[float]] = [[] for _ in horizons]
    trace_count = 0
    for trace in traces:
        trace_count += 1
        predictor = ViewportPredictor(window_s=window_s, lam=lam)
        t_end = float(trace.timestamps[-1])
        next_eval = float(trace.timestamps[0]) + window_s
        for t, yaw, pitch in zip(
            trace.timestamps, trace.yaw_wrapped, trace.pitch
        ):
            t = float(t)
            predictor.observe(t, float(yaw), float(pitch))
            if t < next_eval:
                continue
            next_eval = t + step_s
            for j, horizon in enumerate(horizons):
                target = t + horizon
                if target > t_end:
                    continue
                yaw_hat, pitch_hat = predictor.predict_center(target)
                yaw_act, pitch_act = trace.orientation_at(target)
                error = angular_distance_deg(
                    yaw_hat, pitch_hat, yaw_act, pitch_act
                )
                squared[j].append(error * error)
    if trace_count == 0:
        raise ValueError("cannot fit an error model from zero traces")
    sigmas = tuple(
        float(np.sqrt(np.mean(errs))) if errs else 0.0 for errs in squared
    )
    return AngularErrorModel(
        max_sigma_deg=max_sigma_deg,
        horizons_s=horizons,
        sigmas_deg=sigmas,
    )
