"""Head-movement traces.

A head-movement trace records a user's viewing center (yaw, pitch) over
time, sampled at a fixed rate — the paper uses the Wu et al. MMSys'17
dataset, where headset sensors log orientations while 48 users watch the
test videos.

Yaw is stored *unwrapped* (continuous across the 0/360 seam) so that
interpolation and speed computations are seam-free; accessors return the
wrapped value.  Traces round-trip through a simple CSV format
(``t,yaw,pitch`` with wrapped yaw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..geometry.sphere import switching_speed_series
from ..geometry.viewport import DEFAULT_FOV_DEG, Viewport

__all__ = ["HeadTrace"]


@dataclass(frozen=True)
class HeadTrace:
    """One user's head-orientation time series for one video."""

    user_id: int
    video_id: int
    timestamps: np.ndarray = field(repr=False)
    yaw_unwrapped: np.ndarray = field(repr=False)
    pitch: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.timestamps, dtype=float)
        yaw = np.asarray(self.yaw_unwrapped, dtype=float)
        pitch = np.asarray(self.pitch, dtype=float)
        if not (t.shape == yaw.shape == pitch.shape) or t.ndim != 1:
            raise ValueError("timestamps, yaw, pitch must be equal-length 1D")
        if t.size < 2:
            raise ValueError("trace needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(pitch < -90.0) or np.any(pitch > 90.0):
            raise ValueError("pitch outside [-90, 90]")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "yaw_unwrapped", yaw)
        object.__setattr__(self, "pitch", pitch)
        # Memo for derived kinematics; every query is a pure function of
        # the (immutable) sample arrays, and a session sweep asks for the
        # same per-segment statistics once per scheme and network trace.
        # It also holds the ridge predictions that
        # repro.prediction.viewport.TraceFeeder shares across sessions.
        object.__setattr__(self, "_kinematics_cache", {})

    def __getstate__(self) -> dict:
        # The kinematics memo is pure derived state; exclude it so
        # pickled traces (worker payloads, artifact keys) stay lean.
        state = self.__dict__.copy()
        state["_kinematics_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration_s(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def yaw_wrapped(self) -> np.ndarray:
        return self.yaw_unwrapped % 360.0

    def orientation_at(self, t: float) -> tuple[float, float]:
        """Interpolated (yaw, pitch) at time ``t`` (clamped to the trace)."""
        cache_key = ("orientation", t)
        cached = self._kinematics_cache.get(cache_key)
        if cached is not None:
            return cached
        ts = self.timestamps
        tc = float(min(max(t, ts[0]), ts[-1]))
        yaw = float(np.interp(tc, ts, self.yaw_unwrapped)) % 360.0
        pitch = float(np.interp(tc, ts, self.pitch))
        self._kinematics_cache[cache_key] = (yaw, pitch)
        return yaw, pitch

    def viewport_at(self, t: float, fov_deg: float = DEFAULT_FOV_DEG) -> Viewport:
        """The viewport the user sees at time ``t``."""
        yaw, pitch = self.orientation_at(t)
        return Viewport(yaw, pitch, fov_deg, fov_deg)

    def segment_center(
        self, segment_index: int, segment_seconds: float = 1.0
    ) -> tuple[float, float]:
        """Viewing center at the midpoint of a segment's playback."""
        if segment_index < 0:
            raise ValueError("segment index must be non-negative")
        return self.orientation_at((segment_index + 0.5) * segment_seconds)

    # ------------------------------------------------------------------
    # Kinematics
    # ------------------------------------------------------------------

    def switching_speeds(self) -> np.ndarray:
        """Per-sample view switching speeds in degrees/second (Eq. 5).

        Computed once and cached; the returned array must not be
        mutated.
        """
        speeds = self._kinematics_cache.get("speeds")
        if speeds is None:
            speeds = switching_speed_series(
                self.timestamps, self.yaw_wrapped, self.pitch
            )
            self._kinematics_cache["speeds"] = speeds
        return speeds

    def speed_quantile_in(
        self, t0: float, t1: float, quantile: float | None = 0.75
    ) -> float:
        """Switching-speed statistic over a time window.

        ``quantile=None`` gives the mean.  The frame-rate QoE factor
        (Eq. 4) uses an upper quantile (default 0.75): motion blur
        tolerance during a segment is governed by its faster portions,
        and a one-second mean washes out the saccades that matter.
        The one-window case of :meth:`speed_quantiles_in`.
        """
        return self.speed_quantiles_in(((t0, t1),), quantile)[0]

    def speed_quantiles_in(
        self, windows, quantile: float | None = 0.75
    ) -> list[float]:
        """:meth:`speed_quantile_in` of each ``(t0, t1)`` window.

        A window holds the speeds whose sample-interval midpoints fall
        in ``[t0, t1)``; windows are found by ``searchsorted`` and
        reduced one stack per sample count.  An empty window (between
        samples) falls back to the enclosing interval's speed.
        Memoized per window, with :meth:`speed_quantile_in`.
        """
        if quantile is not None and not (0.0 <= quantile <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        keys = []
        for t0, t1 in windows:
            if not t1 > t0:  # NaN bounds too
                raise ValueError("window must have positive length")
            keys.append(("speed_quantile", t0, t1, quantile))
        cache = self._kinematics_cache
        missing = [key for key in dict.fromkeys(keys) if key not in cache]
        if missing:
            speeds = self.switching_speeds()
            mids = 0.5 * (self.timestamps[:-1] + self.timestamps[1:])
            lo = np.searchsorted(mids, [key[1] for key in missing])
            hi = np.searchsorted(mids, [key[2] for key in missing])
            values = speeds[np.minimum(lo, speeds.size - 1)].tolist()
            groups: dict[int, list] = {}  # sample count -> windows
            for r, count in enumerate((hi - lo).tolist()):
                if count > 0:
                    groups.setdefault(count, []).append(r)
            for count, rows in groups.items():
                if len(rows) == 1:  # one window: a view, no gather
                    window = speeds[lo[rows[0]]:hi[rows[0]]]
                else:
                    window = speeds[lo[rows, None] + np.arange(count)]
                stats = (np.mean(window, axis=-1) if quantile is None
                         else np.quantile(window, quantile, axis=-1))
                for r, value in zip(rows, np.reshape(stats, -1).tolist()):
                    values[r] = value
            cache.update(zip(missing, values))
        return [cache[key] for key in keys]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as ``t,yaw,pitch`` CSV (wrapped yaw)."""
        with open(path, "w", encoding="utf-8") as fh:
            self._write(fh)

    def _write(self, fh) -> None:
        fh.write("t,yaw,pitch\n")
        for t, yaw, pitch in zip(self.timestamps, self.yaw_wrapped, self.pitch):
            fh.write(f"{t:.6f},{yaw:.6f},{pitch:.6f}\n")

    @classmethod
    def from_csv(
        cls, path: str | Path, user_id: int = 0, video_id: int = 0
    ) -> "HeadTrace":
        """Read a ``t,yaw,pitch`` CSV; yaw is re-unwrapped on load."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv_string(fh.read(), user_id, video_id)

    @classmethod
    def from_csv_string(
        cls, text: str, user_id: int = 0, video_id: int = 0
    ) -> "HeadTrace":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip().lower() != "t,yaw,pitch":
            raise ValueError("expected header 't,yaw,pitch'")
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        if len(rows) < 2:
            raise ValueError("trace needs at least two samples")
        t = np.array([r[0] for r in rows])
        yaw = np.unwrap(np.array([r[1] for r in rows]), period=360.0)
        pitch = np.array([r[2] for r in rows])
        return cls(user_id, video_id, t, yaw, pitch)
