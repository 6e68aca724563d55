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

* ``qo`` — a stacked ``(S, V)`` tensor of Eq. 3 qualities
  (:func:`qo_table`), one row per segment, one column per bitrate level;
* :meth:`sizes_for` — per Ptile geometry, a stacked ``(S, V, F)``
  tensor of download sizes (Ptile region + low-quality remainder
  blocks) covering every segment, built in one pass on first use and
  reused for every later plan and session.

:meth:`PlanTables.windows` then assembles the MPC windows of a whole
batch of plans by gathering rows out of the stacked tensors instead of
rebuilding H tables per plan; only the per-offset Ptile
(:func:`window_ptiles`) and the switching-speed-dependent frame-rate
factor (Eq. 4, memoized per alpha) are per-plan work.  Cached tensors
are never mutated, so batched and per-call planning are bit-identical.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from ..ptile.construction import Ptile, partition_remainder
from ..qoe.framerate import alpha_from_behavior, frame_rate_factor
from ..qoe.quality import QualityModel
from ..streaming.schemes import LOWEST_QUALITY
from ..video.segments import SegmentManifest
from .optimizer import MpcWindow

__all__ = ["PlanTables", "expected_qoe", "qo_table", "window_ptiles"]

# The per-alpha Eq. 4 factor memo is cleared when it reaches this size:
# alpha varies continuously with the predicted head speed, so a
# long-lived owner (the decision service) would otherwise grow it
# without bound.
_ALPHA_MEMO_LIMIT = 65536


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
        # Quality levels come from the video's own encoding ladder (the
        # per-content optimizer may have swapped the default rungs out).
        self.levels = self.manifests[0].encoder.ladder.levels
        self.qo = qo_table(self.manifests, self.levels, quality_model)
        # (region_key, tiles) -> (S, V, F) size tensor.  Keyed by the
        # Ptile's geometry, not its segment: the same geometry applied
        # to every segment is exactly what the MPC needs when a future
        # segment has no matching Ptile of its own.  The lock serializes
        # first-build only; hits read the dict without it (dict.get is
        # atomic under the GIL) and tensors are never mutated, so tables
        # shared across concurrent planners cannot observe a torn build.
        self._sizes: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        # alpha -> (F,) Eq. 4 factors at self.fps; see frame_rate_factors.
        self._alpha_factors: dict[float, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # Locks don't pickle; the memos are pure and rebuild lazily.
        state = self.__dict__.copy()
        state["_sizes"] = {}
        state["_alpha_factors"] = {}
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sizes = {}
        self._alpha_factors = {}
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
        use; the returned tensor is shared and must not be mutated.  Keyed
        by the region key and the tile set's bitmask, so equal geometries
        of other segments or unpickled copies hit in O(1).
        """
        key = (ptile.region_key, ptile.tile_mask)
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

    def frame_rate_factors(self, alpha: float) -> np.ndarray:
        """Eq. 4 factors of every ladder rate at one ``alpha``, memoized.

        Alpha depends only on the predicted head speed and the segment's
        TI, so sessions replaying one head trace repeat it.  The scalar
        :func:`frame_rate_factor` (``math.exp``) is kept rather than a
        numpy vectorization, which could differ in the last ulp.
        """
        # Unlocked: concurrent planners may both compute an entry or
        # clear the memo under each other, but entries are pure and
        # never mutated, so every caller still gets exact factors.
        factors = self._alpha_factors.get(alpha)
        if factors is None:
            if len(self._alpha_factors) >= _ALPHA_MEMO_LIMIT:
                self._alpha_factors.clear()
            factors = np.array([
                frame_rate_factor(rate, self.fps, alpha) for rate in self.rates
            ])
            self._alpha_factors[alpha] = factors
        return factors

    def windows(self, items) -> tuple[np.ndarray, np.ndarray]:
        """Stacked MPC windows for B plans of one window length.

        ``items`` is a sequence of ``(ctx, ptile)`` pairs; each lookahead
        offset is served by :func:`window_ptiles`.  Returns the
        ``(B, W, V, F)`` download sizes and Eq. 3–4 QoE.  Only the
        per-slot table coordinates and Eq. 4 factors are per-plan work;
        the size blocks are gathered in bulk out of the distinct
        :meth:`sizes_for` tensors, copying the same table entries a
        row-by-row assembly would.
        """
        width = items[0][0].window
        batch = len(items)
        rows = np.empty((batch, width), dtype=np.intp)
        geom = np.empty((batch, width), dtype=np.intp)
        fact = np.empty((batch, width, len(self.rates)))
        tensors: list[np.ndarray] = []
        tensor_slot: dict[int, int] = {}
        for b, (ctx, ptile) in enumerate(items):
            if ctx.window != width:
                raise ValueError("windows() needs one window length")
            speed = max(ctx.predicted_speed_deg_s, 0.0)
            chosen = window_ptiles(ctx, ptile)
            for offset, manifest in enumerate(ctx.window_manifests):
                # sizes_for memoizes per geometry, so tensor identity is
                # a stable geometry id within this call.
                tensor = self.sizes_for(chosen[offset])
                slot = tensor_slot.get(id(tensor))
                if slot is None:
                    slot = tensor_slot[id(tensor)] = len(tensors)
                    tensors.append(tensor)
                geom[b, offset] = slot
                rows[b, offset] = self.row(manifest.segment_index)
                fact[b, offset] = self.frame_rate_factors(
                    alpha_from_behavior(speed, manifest.ti)
                )
        if len(tensors) == 1:
            sizes = tensors[0][rows]
        else:
            sizes = np.empty((batch, width) + tensors[0].shape[1:])
            for slot, tensor in enumerate(tensors):
                mask = geom == slot
                sizes[mask] = tensor[rows[mask]]
        # Broadcasting does not reassociate: each entry is the float
        # product ``qo[row, v] * factor[f]``, whatever the batch size.
        qoe = self.qo[rows][:, :, :, None] * fact[:, :, None, :]
        return sizes, qoe

    def window(self, ctx, ptile: Ptile) -> MpcWindow:
        """The one-plan form of :meth:`windows`."""
        sizes, qoe = self.windows([(ctx, ptile)])
        return MpcWindow(sizes_mbit=sizes[0], qoe=qoe[0], frame_rates=self.rates)


def window_ptiles(ctx, ptile: Ptile) -> list[Ptile]:
    """The Ptile serving each lookahead offset of ``ctx``'s MPC window.

    Offset 0 is the given (selected) Ptile.  A later offset re-matches
    the predicted viewport against that segment's Ptiles; when nothing
    matches, the given Ptile's geometry stands in (the client cannot
    know better).
    """
    viewport = ctx.predicted_viewport
    chosen = [ptile]
    for segment in ctx.window_segment_ptiles[1:]:
        matched = segment.match(viewport) if segment is not None else None
        chosen.append(ptile if matched is None else matched)
    return chosen


def qo_table(
    manifests: Sequence[SegmentManifest],
    levels: Sequence[int],
    quality_model: QualityModel,
) -> np.ndarray:
    """Eq. 3 quality per (segment, bitrate level): a ``(S, V)`` table."""
    return np.array([
        [quality_model.qo(m.si, m.ti, m.qoe_bitrate_mbps(v)) for v in levels]
        for m in manifests
    ])


def expected_qoe(qoe: np.ndarray, coverage) -> np.ndarray:
    """Mix each QoE entry toward its segment's lowest-quality entry.

    ``qoe`` is ``(..., W, V, F)`` and ``coverage`` the ``(..., W)``
    expected viewport coverage per lookahead segment: the uncovered
    fraction plays back at the lowest quality, so the result is the
    expectation of the session's delivered-quality accounting.
    """
    cov = np.clip(np.asarray(coverage, dtype=float), 0.0, 1.0)[..., None, None]
    return cov * qoe + (1.0 - cov) * qoe[..., :1, :]
