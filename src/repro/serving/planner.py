"""Per-video planning state for the decision service.

A :class:`VideoPlanner` owns everything needed to answer plan requests
for one video — the manifest, the per-segment Ptiles, and (through the
shared :class:`~repro.core.controller.OursScheme` memo) the stacked
:class:`~repro.core.plan_tables.PlanTables` — built once and then read
immutably by every request.  Construction primes the size tensors for
every Ptile geometry in the video, so steady-state serving never takes
the first-touch build path.

Both serving paths rebuild the exact :class:`PlanContext` the session
loop would have produced (the planner's video and Ptiles plus the
request's segment, window and floats) and hand it to the scheme's one
MPC path, :meth:`~repro.core.controller.OursScheme.plan_batch`:

* :meth:`plan_one` calls ``scheme.plan`` (``plan_batch`` of one) — the
  sequential single-request reference;
* :meth:`plan_batch` validates co-arriving requests and makes one
  ``scheme.plan_batch`` call for all valid ones, which gathers their
  windows in bulk and solves each same-shape group in one
  :meth:`~repro.core.optimizer.EnergyQoEMpc.choose_batch` DP pass.  The
  batched DP replicates the scalar DP's tie-breaking exactly, so batch
  size never changes a decision.
"""

from __future__ import annotations

from ..core.controller import OursScheme
from ..geometry.viewport import Viewport
from ..streaming.schemes import DownloadPlan, PlanContext
from ..video.segments import VideoManifest
from .requests import PlanRequest, PlanRequestError

__all__ = ["VideoPlanner"]


class VideoPlanner:
    """Immutable per-video planning state plus the batched plan path."""

    def __init__(
        self,
        scheme: OursScheme,
        manifest: VideoManifest,
        ptiles=None,
    ):
        if not isinstance(scheme, OursScheme):
            raise ValueError(
                "VideoPlanner serves the MPC controller; got "
                f"{getattr(scheme, 'name', scheme)!r}"
            )
        # A PlanRequest carries no prediction horizon, which the robust
        # scheme's error model needs: every request would plan at
        # horizon 0 and so silently serve point-prediction plans under
        # the robust name.  Refuse it up front.
        from ..core.robust import RobustScheme

        if isinstance(scheme, RobustScheme):
            raise ValueError(
                "VideoPlanner serves point-prediction planning only; "
                "a plan request carries no prediction horizon for the "
                "robust scheme's error model — run it through the "
                "session loop"
            )
        self.scheme = scheme
        self.manifest = manifest
        self.num_segments = manifest.num_segments
        self.ptiles = list(ptiles) if ptiles is not None else None
        if self.ptiles is not None and len(self.ptiles) < self.num_segments:
            raise ValueError("ptiles must cover every segment")
        self.video_id = manifest[0].video_id
        self.fps = manifest.fps
        self.horizon = scheme.mpc_config.horizon
        # Build the video-spanning tables through the scheme's memo so
        # the sequential path and the batched path slice the exact same
        # tensors, then prime every geometry's size tensor up front.
        self.tables = scheme._plan_tables(manifest)
        if self.ptiles is not None:
            self.tables.prime(
                p
                for segment in self.ptiles[: self.num_segments]
                for p in segment.ptiles
            )

    # ------------------------------------------------------------------
    # Request -> context
    # ------------------------------------------------------------------

    def validate(self, request: PlanRequest) -> None:
        """Full validation against this video; raises PlanRequestError."""
        request.validate()
        k = request.segment_index
        if k >= self.num_segments:
            raise PlanRequestError(
                "bad_segment",
                f"segment_index {k} outside video {self.video_id} "
                f"({self.num_segments} segments)",
            )
        if request.window is not None and k + request.window > self.num_segments:
            raise PlanRequestError(
                "bad_window",
                f"window {request.window} at segment {k} runs past the "
                f"video end ({self.num_segments} segments)",
            )
        if request.fps is not None and request.fps != self.fps:
            raise PlanRequestError(
                "bad_fps",
                f"video {self.video_id} is served at {self.fps} fps, "
                f"request asked for {request.fps}",
            )

    def context(self, request: PlanRequest) -> PlanContext:
        """The validated :class:`PlanContext` this request maps to."""
        self.validate(request)
        k = request.segment_index
        return PlanContext(
            video=self.manifest,
            segment_index=k,
            predicted_viewport=Viewport(
                request.yaw, request.pitch, request.fov_h, request.fov_v
            ),
            buffer_s=request.buffer_s,
            bandwidth_mbps=request.bandwidth_mbps,
            window=request.window or min(self.horizon, self.num_segments - k),
            ptiles=self.ptiles if request.use_ptile else None,
            predicted_speed_deg_s=request.speed_deg_s,
            segment_seconds=request.segment_seconds,
        )

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------

    def plan_one(self, request: PlanRequest) -> DownloadPlan:
        """Sequential single-request path: the in-process planner."""
        return self.scheme.plan(self.context(request))

    def plan_batch(
        self, requests: list[PlanRequest]
    ) -> "list[DownloadPlan | PlanRequestError]":
        """Serve co-arriving requests through one ``scheme.plan_batch``.

        Returns one entry per request, in order; invalid requests yield
        their :class:`PlanRequestError` instead of failing the batch.
        """
        results: list = [None] * len(requests)
        valid: list[int] = []
        ctxs: list[PlanContext] = []
        for i, request in enumerate(requests):
            try:
                ctxs.append(self.context(request))
            except PlanRequestError as err:
                results[i] = err
                continue
            valid.append(i)
        for i, plan in zip(valid, self.scheme.plan_batch(ctxs)):
            results[i] = plan
        return results
