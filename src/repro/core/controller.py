"""The "Ours" streaming controller (paper Sections IV-B and IV-C).

For each segment the client:

1. predicts the viewing area (ridge regression, done by the session
   loop) and checks whether a Ptile covers it;
2. if so, slices the lookahead window out of the session's precomputed
   :class:`~repro.core.plan_tables.PlanTables` — per-future-segment
   download sizes for every (bitrate, frame rate) version and their
   predicted QoE — and runs the MPC dynamic program to pick the
   energy-minimal version within the 5 % QoE tolerance;
3. otherwise falls back to conventional tiles at the best possible
   quality (Ctile behaviour, including its multi-decoder energy cost).

:meth:`OursScheme.plan_batch` is the one MPC planning path: the session
loop's ``plan(ctx)`` is its one-row form, and the decision service and
the population engine feed it (or its window assembly) whole batches.
Subclasses change the region choice and the QoE rows only, through the
:meth:`OursScheme._select` hook (see :mod:`repro.core.robust`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ..power.energy import EnergyModel
from ..power.models import DevicePowerModel, TilingScheme
from ..ptile.construction import Ptile
from ..qoe.quality import QualityModel
from ..streaming.schemes import (
    CtileScheme,
    DownloadPlan,
    PlanContext,
    split_wrapped_rect,
)
from ..video.framerate import DEFAULT_LADDER, FrameRateLadder
from ..video.segments import VideoManifest
from .optimizer import EnergyQoEMpc, MpcConfig
from .plan_tables import PlanTables, expected_qoe

__all__ = ["OursScheme"]

# What _select returns: the Ptile to plan over, the expected viewport
# coverage of each lookahead offset (None: trust the point prediction),
# and the angular error scale planned against.
Selection = Tuple[Ptile, Optional[np.ndarray], float]


@dataclass(frozen=True)
class OursScheme:
    """Energy-efficient and QoE-aware Ptile streaming with MPC.

    The instance carries two memoization caches (attached via
    ``object.__setattr__`` since the dataclass is frozen):

    * ``_mpc_cache`` — one :class:`EnergyQoEMpc` (and its
      :class:`EnergyModel`) per segment duration, so the controller is
      built once per session configuration instead of once per segment.
      The :class:`MpcConfig` handed to it has its ``segment_seconds``
      derived from the session context, keeping the DP buffer dynamics
      consistent with the actual segment duration;
    * ``_tables_cache`` — one :class:`PlanTables` per (video, ladder,
      fps): stacked (S, V, F) size and (S, V) Q_o tensors covering every
      segment, built once and gathered from by every plan.  The H-segment
      lookahead window slides one segment per plan, so without the
      batched tables each (segment, Ptile) matrix would be rebuilt up to
      H times per session — and once per user on top of that, although
      every session over the same video shares identical manifests and
      Ptiles.

    Only the Ptile match and the switching-speed-dependent frame-rate
    factor (Eq. 4) are recomputed per plan; cached tensors are never
    mutated, so batched and per-call planning are bit-identical.
    """

    device: DevicePowerModel
    ladder: FrameRateLadder = DEFAULT_LADDER
    quality_model: QualityModel = field(default_factory=QualityModel)
    mpc_config: MpcConfig = field(default_factory=MpcConfig)
    fallback: CtileScheme = field(default_factory=CtileScheme)
    name: str = "ours"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_mpc_cache", {})
        object.__setattr__(self, "_tables_cache", {})
        # Serializes first-build of both memos so one scheme instance
        # can plan for many threads (the decision service does); cache
        # hits stay lock-free (dict.get is atomic under the GIL) and
        # cached values are never mutated.
        object.__setattr__(self, "_memo_lock", threading.Lock())

    def __getstate__(self) -> dict:
        # Locks don't pickle (sweep workers receive schemes through a
        # process pool); the memo caches are pure and rebuild lazily.
        state = self.__dict__.copy()
        state.pop("_memo_lock", None)
        state["_mpc_cache"] = {}
        state["_tables_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        return self.plan_batch([ctx])[0]

    def plan_batch(self, ctxs: Sequence[PlanContext]) -> list[DownloadPlan]:
        """Plan every context, one MPC pass per same-shape group.

        Each context's region comes from :meth:`_select`; contexts with
        no region take the conventional-tile fallback.  The rest are
        grouped by (tables, window length, segment duration), their
        windows gathered by one :meth:`PlanTables.windows` call and
        solved by one :meth:`EnergyQoEMpc.choose_batch` call per group.
        The batched DP replicates the scalar DP's tie-breaking, so the
        batch a context is planned in never changes its plan.
        """
        plans: list = [None] * len(ctxs)
        groups: dict[tuple, list] = {}
        for i, ctx in enumerate(ctxs):
            selection = self._select(ctx)
            if selection is None:
                plans[i] = self._fallback_plan(ctx)
                continue
            key = (
                self._plan_tables(ctx.video), ctx.window, ctx.segment_seconds
            )
            groups.setdefault(key, []).append((i, ctx, selection))
        for (tables, _, seg_s), items in groups.items():
            sizes, qoe = self._windows(tables, [(c, s) for _, c, s in items])
            v_idx, f_idx, _ = self._mpc(seg_s).choose_batch(
                sizes, qoe, tables.rates,
                np.array([ctx.bandwidth_mbps for _, ctx, _ in items]),
                np.array([ctx.buffer_s for _, ctx, _ in items]),
            )
            chosen = sizes[np.arange(len(items)), 0, v_idx, f_idx].tolist()
            for (i, _, selection), v, f, size in zip(
                items, v_idx.tolist(), f_idx.tolist(), chosen
            ):
                ptile, coverage, sigma = selection
                plans[i] = DownloadPlan(
                    scheme_name=self.name,
                    quality=v + 1,
                    frame_rate=tables.rates[f],
                    total_size_mbit=size,
                    decode_scheme=TilingScheme.PTILE,
                    hq_rects=split_wrapped_rect(ptile.rect),
                    used_ptile=True,
                    expected_coverage=(
                        1.0 if coverage is None else float(coverage[0])
                    ),
                    sigma_deg=sigma,
                )
        return plans

    def _select(self, ctx: PlanContext) -> Selection | None:
        """The region to plan ``ctx`` over, or ``None`` for Ctile.

        Ours trusts the point prediction: the deterministic Ptile
        match, with no expected coverage (the QoE rows assume the
        viewport is fully covered) and zero error.
        """
        if ctx.segment_ptiles is None:
            return None
        ptile = ctx.segment_ptiles.match(ctx.predicted_viewport)
        return None if ptile is None else (ptile, None, 0.0)

    def _windows(
        self, tables: PlanTables, items: Sequence[tuple[PlanContext, Selection]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(B, W, V, F)`` sizes and QoE for selected contexts.

        Rows whose selection carries an expected coverage get their QoE
        mixed toward the lowest-quality row (:func:`expected_qoe`).
        """
        sizes, qoe = tables.windows([(ctx, sel[0]) for ctx, sel in items])
        mixed = [b for b, (_, sel) in enumerate(items) if sel[1] is not None]
        if mixed:
            qoe[mixed] = expected_qoe(
                qoe[mixed], np.stack([items[b][1][1] for b in mixed])
            )
        return sizes, qoe

    # ------------------------------------------------------------------

    def _mpc(self, segment_seconds: float) -> EnergyQoEMpc:
        mpc = self._mpc_cache.get(segment_seconds)
        if mpc is None:
            with self._memo_lock:
                mpc = self._mpc_cache.get(segment_seconds)
                if mpc is None:
                    config = self.mpc_config
                    if config.segment_seconds != segment_seconds:
                        # The DP buffer dynamics must advance by the
                        # *session's* segment duration, not the config
                        # default.
                        config = replace(
                            config, segment_seconds=segment_seconds
                        )
                    mpc = EnergyQoEMpc(
                        EnergyModel(self.device, segment_seconds), config
                    )
                    self._mpc_cache[segment_seconds] = mpc
        return mpc

    def _plan_tables(self, video: VideoManifest) -> PlanTables:
        """The stacked version tables of one video, memoized.

        One :class:`PlanTables` spans every segment of the video and is
        shared by every plan and session over it.
        """
        # The encoding ladder is per-video state carried by the manifest's
        # encoder; one scheme instance may plan the same video under both
        # the fixed and an optimized ladder (the ladder sweep does), so
        # the memo key must separate them.
        key = (
            video[0].video_id,
            video.num_segments,
            video.fps,
            self.ladder.rates(),
            video.encoder.ladder.digest(),
        )
        tables = self._tables_cache.get(key)
        if tables is None:
            with self._memo_lock:
                tables = self._tables_cache.get(key)
                if tables is None:
                    tables = PlanTables(
                        tuple(video), self.ladder.rates(), video.fps,
                        self.quality_model,
                    )
                    self._tables_cache[key] = tables
        return tables

    def _fallback_plan(self, ctx: PlanContext) -> DownloadPlan:
        # Report under this scheme's name but keep Ctile decode costs.
        return replace(self.fallback.plan(ctx), scheme_name=self.name)
