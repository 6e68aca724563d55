"""Uncertainty-aware robust planning on top of the MPC controller.

:class:`RobustScheme` is :class:`~repro.core.controller.OursScheme`
with the trust in the point FoV prediction removed.  Where Ours bets
the segment on the single predicted center (deterministic Ptile match,
QoE table rows that assume the viewport is fully covered), Robust:

1. spreads the predicted center into a distribution over FoV
   hypotheses using the session's
   :class:`~repro.prediction.viewport.AngularErrorModel` at the actual
   prediction horizon (:mod:`repro.prediction.uncertainty`);
2. selects the candidate Ptile maximizing **expected viewport
   coverage** under that distribution (optionally weighted by the
   Pano-style perceptual prior), instead of the deterministic
   center-containment match — the robust tile selection of Ghosh et
   al.;
3. feeds the MPC an **expected-quality** window
   (:func:`~repro.core.plan_tables.expected_qoe`): each lookahead
   segment's QoE row is mixed toward the lowest-quality row by its
   expected coverage, mirroring how the session scores a delivered
   segment as ``coverage * qo_high + (1 - coverage) * qo_low``.  The
   unchanged energy-minimizing DP then optimizes expected viewport
   quality.

Robust changes only the region choice and the QoE rows, so it
overrides only the :meth:`~repro.core.controller.OursScheme._select`
hook; window assembly, the DP and plan construction are Ours's one
``plan_batch`` path.  Parity guarantee: when the error model is
degenerate (sigma = 0 at the query horizon) ``_select`` returns the
superclass selection — the *same code path, tables, and floats* as
Ours — so zero uncertainty is bit-identical to the point-prediction
scheme, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..prediction.uncertainty import (
    HypothesisGrid,
    PanoWeight,
    deterministic_coverage,
    expected_coverage,
    hypothesis_grid,
    hypothesis_weights,
)
from ..prediction.viewport import AngularErrorModel
from ..streaming.schemes import PlanContext, split_wrapped_rect
from .controller import OursScheme, Selection
from .plan_tables import window_ptiles

__all__ = ["RobustScheme"]


@dataclass(frozen=True)
class RobustScheme(OursScheme):
    """Ours with probabilistic viewport coverage and robust selection.

    ``error_model`` maps the prediction horizon carried by the
    :class:`PlanContext` to an angular error scale; ``perceptual``
    optionally weights FoV hypotheses by the Pano polar discount during
    tile selection; ``min_expected_coverage`` is the robust analog of
    the deterministic match threshold — when no Ptile reaches it the
    scheme falls back to conventional tiles, same as Ours does on a
    failed match.
    """

    error_model: AngularErrorModel = field(default_factory=AngularErrorModel)
    perceptual: PanoWeight | None = None
    min_expected_coverage: float = 0.5
    name: str = "robust"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.min_expected_coverage <= 1.0):
            raise ValueError("min_expected_coverage must be in [0, 1]")

    def _select(self, ctx: PlanContext) -> Selection | None:
        sigma = self.error_model.sigma_deg(ctx.prediction_horizon_s)
        if sigma <= 0.0:
            # Degenerate uncertainty: the superclass selection verbatim,
            # so sigma -> 0 degrades bit-for-bit to the ours objective.
            return super()._select(ctx)
        selection = self.select_robust(ctx, sigma)
        return None if selection is None else (*selection, sigma)

    # ------------------------------------------------------------------

    def select_robust(self, ctx: PlanContext, sigma: float):
        """Robust tile selection: argmax expected (perceptual) coverage.

        Returns ``(ptile, horizon_coverage)`` where ``horizon_coverage``
        holds the expected coverage of the chosen region for every
        lookahead segment, or ``None`` when the best candidate falls
        below ``min_expected_coverage`` (conventional-tile fallback).
        Ties keep the lowest-index Ptile, so selection is deterministic.
        """
        if ctx.segment_ptiles is None or not ctx.segment_ptiles.ptiles:
            return None
        viewport = ctx.predicted_viewport
        hyp = hypothesis_grid(ctx.grid, viewport.fov_h, viewport.fov_v)
        weights = hypothesis_weights(hyp, viewport.yaw, viewport.pitch, sigma)
        score_weights = weights
        if self.perceptual is not None:
            perceptual = weights * self.perceptual.weight(hyp.centers_pitch)
            total = float(perceptual.sum())
            if total > 0.0:
                score_weights = perceptual / total
        best = None
        best_score = -1.0
        for ptile in ctx.segment_ptiles.ptiles:
            score = expected_coverage(
                score_weights, hyp, split_wrapped_rect(ptile.rect)
            )
            if score > best_score:
                best, best_score = ptile, score
        if best is None or best_score < self.min_expected_coverage:
            return None
        return best, self._horizon_coverage(ctx, hyp, best, weights)

    def _horizon_coverage(
        self,
        ctx: PlanContext,
        hyp: HypothesisGrid,
        ptile,
        base_weights: np.ndarray,
    ) -> np.ndarray:
        """Expected coverage per lookahead segment of the MPC window.

        Covers the region :func:`window_ptiles` serves each offset with
        (later segments may be served by a different Ptile of the same
        geometry sweep) and widens the error model with each extra
        segment of lookahead.
        """
        viewport = ctx.predicted_viewport
        chosen = window_ptiles(ctx, ptile)
        cov = np.empty(len(chosen))
        for offset, region in enumerate(chosen):
            rects = split_wrapped_rect(region.rect)
            if offset == 0:
                cov[offset] = expected_coverage(base_weights, hyp, rects)
                continue
            sigma = self.error_model.sigma_deg(
                ctx.prediction_horizon_s + offset * ctx.segment_seconds
            )
            if sigma <= 0.0:
                cov[offset] = deterministic_coverage(viewport, rects)
            else:
                weights = hypothesis_weights(
                    hyp, viewport.yaw, viewport.pitch, sigma
                )
                cov[offset] = expected_coverage(weights, hyp, rects)
        return cov
