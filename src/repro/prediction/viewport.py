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
network) fit the model once per (history, target) between them, and
:meth:`TraceFeeder.predict_many` fills a whole trace's entries in one
columnar pass, the windows' fits stacked per window length;
:meth:`ViewportPredictor.predict_center` is that pass's one-row case.

:class:`AngularErrorModel` quantifies how wrong those extrapolations
are: a per-horizon angular-error scale (sigma, in degrees) either fit
from head traces by replaying the predictor (:func:`fit_error_model`)
or given parametrically (``base + growth * horizon``).  Robust planning
(:mod:`repro.core.robust`) feeds it into the probability layer in
:mod:`repro.prediction.uncertainty`.
"""

from __future__ import annotations

import math
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

    The intercept column is never regularized.  :meth:`fit` takes one
    problem, ``(n, k)`` features and ``(n,)`` targets, or a stack of
    them, ``(..., n, k)`` and ``(..., n)``, solved in one call per
    numpy operation; each stacked problem gets the same BLAS/LAPACK
    calls (and so the same bits) as when it is fitted alone.
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
        if x.shape[:-1] != y.shape:
            raise ValueError("feature/target row mismatch")
        if x.shape[-2] == 0:
            raise ValueError("cannot fit on empty data")
        design = _with_intercept(x)
        penalty = self.lam * np.eye(design.shape[-1])
        penalty[0, 0] = 0.0  # free intercept
        design_t = design.swapaxes(-1, -2)
        gram = design_t @ design + penalty  # syrk per problem
        rhs = design_t @ y[..., None]  # gemv per problem
        self._weights = np.linalg.solve(gram, rhs)[..., 0]
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return (_with_intercept(x) @ self.weights[..., None])[..., 0]


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _unwrap(last: float, yaw: float) -> float:
    """The representation of ``yaw`` closest to ``last`` (degrees)."""
    return last + ((yaw - last + 180.0) % 360.0 - 180.0)


def _window_index(ends, rows, count: int):
    """Index of ``(len(rows), count)`` equal-length sample windows."""
    if len(rows) == 1:  # one window: a view, no gather
        return None, slice(ends[rows[0]] - count, ends[rows[0]])
    return np.array([ends[r] - count for r in rows])[:, None] + np.arange(count)


def _ridge_centers(times, yaws, pitches, ends, counts, targets, predictor):
    """:meth:`ViewportPredictor.predict_center` of many windows at once.

    Row ``r`` is the window of samples ``[ends[r] - counts[r], ends[r])``
    of the observed ``times``/``yaws``/``pitches`` (yaw unwrapped as
    :meth:`ViewportPredictor.observe` unwraps it), asked for
    ``targets[r]``.  The rows that fit a trend are fitted per window
    length as one stack, yaw and pitch together; the fallback and
    clamp are the scalar code's, row by row.  Returns ``(yaw, pitch)``
    float pairs.
    """
    p = predictor
    last = [end - 1 for end in ends]
    lasts = list(zip(times[last].tolist(), yaws[last].tolist(),
                     pitches[last].tolist()))
    groups: dict[int, list] = {}  # window length -> rows that fit
    horizons: dict[int, float] = {}
    for r, (count, target, (t_last, _, _)) in enumerate(
            zip(counts, targets, lasts)):
        if count >= 4 and not target <= t_last:
            groups.setdefault(count, []).append(r)
            # Head trends are only predictive for a second or so;
            # beyond that, persistence (the current trend's endpoint)
            # beats blind linear extrapolation across the whole buffer
            # pipeline.
            horizons[r] = min(target - t_last, p.max_extrapolation_s)
    hats: dict[int, tuple] = {}
    for count, rows in groups.items():
        g = len(rows)
        window = _window_index(ends, rows, count)
        t_last = np.array([lasts[r][0] for r in rows])
        rel = times[window] - t_last[:, None]
        model = RidgeRegressor(p.lam).fit(
            np.concatenate([rel, rel])[..., None],
            np.concatenate([yaws[window], pitches[window]]),
        )
        horizon = np.array([horizons[r] for r in rows])
        hat = model.predict(
            np.concatenate([horizon, horizon])[:, None, None])[:, 0].tolist()
        hats.update(zip(rows, zip(hat[:g], hat[g:])))

    centers = []
    for r, (_, yaw_last, pitch_last) in enumerate(lasts):
        if r not in hats:
            centers.append((yaw_last % 360.0,
                            float(min(max(pitch_last, -90.0), 90.0))))
            continue
        yaw_hat, pitch_hat = hats[r]
        # Clamp the implied trend speed.  min/max on plain floats gives
        # np.clip's result (NaN and -0.0 included) without a numpy
        # scalar round trip per clamp.  A zero move keeps the last
        # sample itself: adding it would turn a last pitch of -0.0 into
        # +0.0.
        max_move = p.max_trend_deg_s * horizons[r]
        yaw_move = float(min(max(yaw_hat - yaw_last, -max_move), max_move))
        pitch_move = float(min(max(pitch_hat - pitch_last, -max_move),
                               max_move))
        yaw_hat = yaw_last + yaw_move if yaw_move else yaw_last
        pitch_hat = pitch_last + pitch_move if pitch_move else pitch_last
        centers.append((yaw_hat % 360.0,
                        float(min(max(pitch_hat, -90.0), 90.0))))
    return centers


def _window_speeds(times, yaws, pitches, ends, counts, quantile):
    """:meth:`ViewportPredictor.recent_speed_deg_s` of many windows (rows
    as in :func:`_ridge_centers`), one quantile per window length."""
    speeds = [0.0] * len(ends)
    groups: dict[int, list] = {}
    for r, count in enumerate(counts):
        if count >= 2:
            groups.setdefault(count, []).append(r)
    for count, rows in groups.items():
        window = _window_index(ends, rows, count)
        steps = np.hypot(np.diff(yaws[window]), np.diff(pitches[window]))
        dt = np.diff(times[window])
        values = np.quantile(steps / dt, quantile, axis=1).tolist()
        for r, value in zip(rows, values):
            speeds[r] = value
    return speeds


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
        # Written to reject NaN too: a NaN window is never trimmed, a
        # NaN lam gives a NaN viewport, and Python's min drops a NaN
        # extrapolation bound, where np.minimum would keep it.
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError("window must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be non-negative and finite")
        # A NaN trend bound would make the trend clamp a no-op.
        if not self.max_trend_deg_s >= 0:
            raise ValueError("max trend speed must be non-negative")
        if not (math.isfinite(self.max_extrapolation_s)
                and self.max_extrapolation_s > 0):
            raise ValueError("max extrapolation must be positive and finite")

    def observe(self, t: float, yaw: float, pitch: float) -> None:
        """Record a head sample; yaw is unwrapped against the history."""
        if self._history:
            last_t, last_yaw, _ = self._history[-1]
            if t <= last_t:
                raise ValueError("observations must be time-ordered")
            yaw = _unwrap(last_yaw, yaw)
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
        n = len(self._history)
        return _ridge_centers(*self._arrays(), [n], [n], [t_target], self)[0]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window's times, yaws and pitches."""
        history = self._history
        return (np.array([h[0] for h in history]),
                np.array([h[1] for h in history]),
                np.array([h[2] for h in history]))

    def predict_viewport(self, t_target: float) -> Viewport:
        yaw, pitch = self.predict_center(t_target)
        return Viewport(yaw, pitch, self.fov_deg, self.fov_deg)

    def recent_speed_deg_s(self, quantile: float = 0.75) -> float:
        """Switching-speed statistic over the history window (Eq. 4).

        Uses an upper quantile by default, matching the session's QoE
        evaluation: blur tolerance is set by the faster motion within a
        window, not its average.
        """
        n = len(self._history)
        if n < 2:
            return 0.0
        return _window_speeds(*self._arrays(), [n], [n], quantile)[0]


_SPEED_QUANTILE = 0.75  # ViewportPredictor.recent_speed_deg_s's default


@dataclass
class TraceFeeder:
    """Feeds a head trace to a viewport predictor as the playhead advances.

    ``fed`` is the running maximum count of samples at or before a
    requested video time.

    A feeder built by :meth:`ridge` reads its predictions through a memo
    in the trace's kinematics cache.  After the first ``fed`` samples a
    :class:`ViewportPredictor`'s state is a pure function of the trace,
    its parameters and ``fed`` (the window holds the samples within
    ``window_s`` of sample ``fed - 1``, each yaw unwrapped against the
    one before), so keyed on those and the target time, an entry is the
    one every session replaying the trace would compute, whatever its
    network, buffer or faults did to ``fed``.  :meth:`predict_many`
    computes missing entries from the trace's arrays, and :meth:`predict`
    is its one-row case; the predictor itself never observes a sample.
    Other predictors (static, oracle, custom) observe the fed samples
    when asked for a prediction, are asked every time and never touch
    the memo.
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
        if self.shared:
            return self.predict_many([(video_time, t_target)])[0]
        seen = np.searchsorted(self.trace.timestamps, video_time, side="right")
        self.fed = max(self.fed, int(seen))
        self._catch_up()
        if self.predictor.num_observations > 0:
            return (self.predictor.predict_viewport(t_target),
                    self.predictor.recent_speed_deg_s())
        return self.trace.viewport_at(0.0, self.fov_deg), 0.0

    def predict_many(self, pairs) -> list[tuple[Viewport, float]]:
        """:meth:`predict` over ``(video_time, t_target)`` pairs, in order.

        A :meth:`ridge` feeder answers the pairs it has no memo entry
        for in one columnar pass over the trace: the windows' fits are
        stacked per window length, and the entries are the ones
        :meth:`predict` would have stored, bit for bit.
        """
        if not self.shared:
            return [self.predict(v, t) for v, t in pairs]
        trace = self.trace
        times = trace.timestamps
        seen = np.searchsorted(times, [v for v, _ in pairs], side="right")
        fed = np.maximum.accumulate(np.append(self.fed, seen)).tolist()
        self.fed = fed[-1]
        keys = [self._key(f, t) for f, (_, t) in zip(fed[1:], pairs)]
        cache = trace._kinematics_cache
        missing = [key for key in dict.fromkeys(keys)
                   if key[-2] > 0 and key not in cache]
        if missing:
            p = self.predictor
            ends = [key[-2] for key in missing]
            # observe() keeps the samples within window_s of the last.
            starts = np.searchsorted(
                times, times[np.array(ends) - 1] - p.window_s, side="left")
            counts = (np.array(ends) - starts).tolist()
            arrays = (times, _observed_yaw(trace), trace.pitch)
            centers = _ridge_centers(*arrays, ends, counts,
                                     [key[-1] for key in missing], p)
            speeds = _window_speeds(*arrays, ends, counts, _SPEED_QUANTILE)
            for key, (yaw, pitch), speed in zip(missing, centers, speeds):
                cache[key] = (Viewport(yaw, pitch, p.fov_deg, p.fov_deg),
                              speed)
        return [cache[key] if key[-2] > 0
                else (trace.viewport_at(0.0, self.fov_deg), 0.0)
                for key in keys]

    def _key(self, fed: int, t_target: float) -> tuple:
        p = self.predictor
        return (
            "ridge", p.window_s, p.lam, p.max_trend_deg_s,
            p.max_extrapolation_s, p.fov_deg, _SPEED_QUANTILE, fed,
            t_target,
        )

    def _catch_up(self) -> None:
        trace = self.trace
        for i in range(self._observed, self.fed):
            self.predictor.observe(
                float(trace.timestamps[i]),
                float(trace.yaw_unwrapped[i]),
                float(trace.pitch[i]),
            )
        self._observed = self.fed


def _observed_yaw(trace: HeadTrace) -> np.ndarray:
    """The trace's yaws as a predictor fed from its first sample holds
    them: each unwrapped against the one before, as
    :meth:`ViewportPredictor.observe` does it (sequential, so a float
    loop).  Memoized on the trace."""
    yaw = trace._kinematics_cache.get("observed_yaw")
    if yaw is None:
        values = trace.yaw_unwrapped.tolist()
        last = values[0]
        for i in range(1, len(values)):
            last = values[i] = _unwrap(last, values[i])
        yaw = trace._kinematics_cache["observed_yaw"] = np.array(values)
    return yaw


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
