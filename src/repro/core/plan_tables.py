"""Horizon-batched lookahead tables for the MPC planner.

The paper's MPC (Sec. IV-C) slides a one-segment window: at segment k
the planner needs per-version download sizes and predicted quality for
segments k..k+H-1, and at k+1 it needs k+1..k+H.  H-1 of the H tables
were therefore already computed the previous segment — and once a video
has been planned by one user, every other session over the same video
needs the *same* tables again.

:class:`PlanTables` precomputes those tables per (video, encoding
ladder, frame-rate ladder, fps, quality model), batched across the
whole video — the quality axis enumerates the levels of the video's
own :class:`~repro.encoding.ladder.EncodingLadder`:

* ``qo`` — a stacked ``(S, V)`` tensor of Eq. 3 qualities, one row per
  segment, one column per bitrate level;
* :meth:`sizes_for` — per Ptile geometry, a stacked ``(S, V, F)``
  tensor of download sizes (Ptile region + low-quality remainder
  blocks) covering every segment, built in one pass on first use and
  reused for every later plan and session.

Each ``plan()`` then assembles its :class:`~repro.core.optimizer.MpcWindow`
by slicing H rows out of the stacked tensors instead of rebuilding H
tables, and only the per-plan quantities — the Ptile match against the
predicted viewport and the switching-speed-dependent frame-rate factor
(Eq. 4) — are computed per call.  Cached tensors are never mutated, so
batched and per-call planning are bit-identical.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from ..ptile.construction import Ptile, partition_remainder
from ..qoe.framerate import alpha_from_behavior, frame_rate_factor
from ..qoe.quality import QualityModel
from ..streaming.schemes import LOWEST_QUALITY
from ..video.segments import SegmentManifest
from .optimizer import MpcWindow

__all__ = ["PlanTables"]


class PlanTables:
    """Stacked per-segment version tables for one video configuration.

    ``manifests`` is the sequence of segment manifests the tables cover
    (normally the whole video); rows are addressed by absolute segment
    index.  ``rates`` is the frame-rate ladder, ascending, and ``fps``
    the source frame rate the sizes are evaluated at.
    """

    def __init__(
        self,
        manifests: tuple[SegmentManifest, ...],
        rates: tuple[float, ...],
        fps: float,
        quality_model: QualityModel,
    ):
        if not manifests:
            raise ValueError("need at least one segment manifest")
        self.manifests = tuple(manifests)
        self.rates = tuple(rates)
        self.fps = float(fps)
        self._row = {m.segment_index: i for i, m in enumerate(self.manifests)}
        self.ti = np.array([m.ti for m in self.manifests])
        # Quality levels come from the video's own encoding ladder (the
        # per-content optimizer may have swapped the default rungs out).
        self.levels = self.manifests[0].encoder.ladder.levels
        self.qo = np.array([
            [
                quality_model.qo(m.si, m.ti, m.qoe_bitrate_mbps(v))
                for v in self.levels
            ]
            for m in self.manifests
        ])  # (S, V)
        # (region_key, tiles) -> (S, V, F) size tensor.  Keyed by the
        # Ptile's geometry, not its segment: the same geometry applied
        # to every segment is exactly what the MPC needs when a future
        # segment has no matching Ptile of its own.  The lock serializes
        # first-build only; hits read the dict without it (dict.get is
        # atomic under the GIL) and tensors are never mutated, so tables
        # shared across concurrent planners cannot observe a torn build.
        self._sizes: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks don't pickle; the size memo is pure and rebuilds lazily.
        state = self.__dict__.copy()
        state["_sizes"] = {}
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sizes = {}
        self._lock = threading.Lock()

    @property
    def num_segments(self) -> int:
        return len(self.manifests)

    def row(self, segment_index: int) -> int:
        """Tensor row of an absolute segment index."""
        try:
            return self._row[segment_index]
        except KeyError:
            raise ValueError(
                f"segment {segment_index} outside the planned tables"
            ) from None

    def sizes_for(self, ptile: Ptile) -> np.ndarray:
        """The ``(S, V, F)`` download-size tensor for one Ptile geometry.

        Built in one batched pass over every covered segment on first
        use; the returned tensor is shared and must not be mutated.
        """
        key = (ptile.region_key, ptile.tiles)
        tensor = self._sizes.get(key)
        if tensor is None:
            with self._lock:
                tensor = self._sizes.get(key)
                if tensor is None:
                    tensor = self._build_sizes(ptile)
                    self._sizes[key] = tensor
        return tensor

    def prime(self, ptiles: Iterable[Ptile]) -> None:
        """Precompute the size tensors for every given geometry.

        Lets a long-lived owner (the decision service) build all
        tensors up front and then serve plan requests from effectively
        frozen tables, instead of paying first-touch builds under load.
        """
        for ptile in ptiles:
            self.sizes_for(ptile)

    def _build_sizes(self, ptile: Ptile) -> np.ndarray:
        # The remainder partition depends only on the geometry.  Each
        # segment's row is the Ptile's (levels, rates) table row plus its
        # remainder blocks at the lowest level, summed in partition order:
        # the per-call computation, bit for bit.
        remainder = partition_remainder(ptile.grid, ptile)
        encoder = self.manifests[0].encoder
        factors = np.array([
            encoder.frame_rate_factor(rate, self.fps) for rate in self.rates
        ])
        sizes = np.empty((len(self.manifests), len(self.levels), len(factors)))
        for row, manifest in enumerate(self.manifests):
            background = sum(
                manifest.region_size_mbit(b.key, b.area_fraction, LOWEST_QUALITY)
                for b in remainder
            )
            sizes[row] = manifest.region_sizes(
                ptile.region_key, ptile.area_fraction, factors
            ) + background
        return sizes

    def window(self, ctx, current_ptile: Ptile) -> MpcWindow:
        """Assemble the stacked MPC window for one plan.

        Future segments reuse the predicted viewport; when a future
        segment has no matching Ptile its sizes come from the current
        Ptile's geometry tensor (the client cannot know better).  Only
        the Ptile match and the Eq. 4 frame-rate factors are per-plan
        work — the size and Q_o rows are views into the stacked tables.
        """
        manifests = ctx.future_manifests or (ctx.manifest,)
        speed = max(ctx.predicted_speed_deg_s, 0.0)
        n = len(manifests)
        v_count = self.qo.shape[1]
        f_count = len(self.rates)
        sizes = np.empty((n, v_count, f_count))
        qoe = np.empty((n, v_count, f_count))
        future_ptiles = ctx.future_ptiles
        for offset, manifest in enumerate(manifests):
            ptile = current_ptile
            future = (
                future_ptiles[offset] if offset < len(future_ptiles) else None
            )
            if future is not None:
                matched = future.match(ctx.predicted_viewport)
                if matched is not None:
                    ptile = matched
            row = self.row(manifest.segment_index)
            sizes[offset] = self.sizes_for(ptile)[row]
            alpha = alpha_from_behavior(speed, manifest.ti)
            factors = np.array([
                frame_rate_factor(rate, ctx.fps, alpha) for rate in self.rates
            ])
            qoe[offset] = self.qo[row, :, None] * factors[None, :]
        return MpcWindow(sizes_mbit=sizes, qoe=qoe, frame_rates=self.rates)
