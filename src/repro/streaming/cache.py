"""FoV-aware edge caching of tiles and Ptiles.

Related work the paper builds on (Mahzari et al. [11]) caches
360° video tiles at the network edge.  Ptiles are a natural fit: by
construction they concentrate most users' requests onto one or two
objects per segment, so a small edge cache absorbs almost all Ptile
traffic, while conventional tiling spreads requests over many
(tile, quality) objects.

:class:`EdgeCache` is a byte-capacity cache with LRU or LFU eviction;
:func:`simulate_cache` replays a request stream; and
:func:`ptile_vs_ctile_caching` builds the two request streams from a
video's viewing traces and compares hit ratios and backhaul traffic.

Multi-tenant sharing: one physical edge serves viewer populations of
*different* videos at once.  :class:`CacheTenant` names one video's
population, :func:`interleave_tenant_requests` merges the populations
into the segment-synchronous request stream the edge actually sees, and
:func:`build_shared_edge_hit_models` replays that stream through a
single capacity-bounded :class:`EdgeCache` to train contention-aware
per-video :class:`EdgeHitModel`\\ s (tenants compete for the same bytes
of capacity, so each video's hit ratios are lower than a private cache
of the same size would give it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .. import fold_sum
from ..geometry.tiling import TileGrid
from ..ptile.construction import SegmentPtiles
from ..traces.head_movement import HeadTrace
from ..video.segments import VideoManifest
from .schemes import LOWEST_QUALITY

__all__ = ["CacheStats", "EdgeCache", "EdgeHitModel", "simulate_cache",
           "build_edge_hit_model", "ptile_vs_ctile_caching",
           "CacheTenant", "SharedCacheResult", "interleave_tenant_requests",
           "build_shared_edge_hit_models"]


@dataclass
class CacheStats:
    """Request-stream outcome."""

    requests: int = 0
    hits: int = 0
    bytes_requested_mbit: float = 0.0
    bytes_backhaul_mbit: float = 0.0

    @property
    def hit_ratio(self) -> float:
        return 0.0 if self.requests == 0 else self.hits / self.requests

    @property
    def byte_hit_ratio(self) -> float:
        if self.bytes_requested_mbit == 0:
            return 0.0
        return 1.0 - self.bytes_backhaul_mbit / self.bytes_requested_mbit


@dataclass
class EdgeCache:
    """Capacity-bounded object cache with LRU or LFU eviction.

    LFU frequencies are tracked for *resident* objects only and dropped
    on eviction (LFU with aging): a re-admitted object restarts its
    count instead of inheriting request counts from a long-gone tenure,
    and the frequency table stays bounded by the number of resident
    objects no matter how long the request stream runs.  Never-stored
    objects (larger than the whole cache) are not counted at all.
    """

    capacity_mbit: float
    policy: str = "lru"
    _objects: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _frequency: dict = field(default_factory=dict, repr=False)
    _used_mbit: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_mbit <= 0:
            raise ValueError("capacity must be positive")
        if self.policy not in ("lru", "lfu"):
            raise ValueError(f"unknown policy {self.policy!r}")

    @property
    def used_mbit(self) -> float:
        return self._used_mbit

    def request(self, key, size_mbit: float) -> bool:
        """Serve one request; returns True on a cache hit.

        Misses fetch the object over the backhaul and insert it,
        evicting by policy until it fits (objects larger than the whole
        cache are served but not stored).  A hit whose ``size_mbit``
        differs from the stored size (a re-encoded object) updates the
        stored size and the capacity accounting, evicting as needed; if
        the new size no longer fits at all, the object is dropped and
        the request counts as a miss.
        """
        if size_mbit < 0:
            raise ValueError("size must be non-negative")
        if key in self._objects:
            stored = self._objects[key]
            if stored != size_mbit:
                # Stale size: re-admit at the new size so _used_mbit
                # tracks reality instead of drifting.
                self._used_mbit -= self._objects.pop(key)
                if not self._objects:
                    self._used_mbit = 0.0
                if size_mbit > self.capacity_mbit:
                    self._frequency.pop(key, None)
                    return False
                self._store(key, size_mbit)
                return True
            self._frequency[key] = self._frequency.get(key, 0) + 1
            self._objects.move_to_end(key)
            return True
        if size_mbit <= self.capacity_mbit:
            self._store(key, size_mbit)
        return False

    def _store(self, key, size_mbit: float) -> None:
        # Guard on residency: float residue in _used_mbit could otherwise
        # demand an eviction from an already-empty cache when size_mbit
        # is within rounding error of the full capacity.
        while self._objects and self._used_mbit + size_mbit > self.capacity_mbit:
            self._evict()
        self._objects[key] = size_mbit
        self._used_mbit += size_mbit
        self._frequency[key] = self._frequency.get(key, 0) + 1

    def _evict(self) -> None:
        if not self._objects:  # pragma: no cover - guarded by caller
            raise RuntimeError("evicting from an empty cache")
        if self.policy == "lru":
            key, size = self._objects.popitem(last=False)
        else:  # lfu: evict the least-frequently requested resident
            key = min(self._objects, key=lambda k: self._frequency.get(k, 0))
            size = self._objects.pop(key)
        self._used_mbit -= size
        if not self._objects:
            # An empty cache holds exactly zero bytes; reset so
            # subtraction residue never accumulates across tenures.
            self._used_mbit = 0.0
        # LFU aging: an evicted object's count dies with it, so the
        # table never outgrows the resident set and a re-admission
        # competes on its new tenure, not its ancient popularity.
        self._frequency.pop(key, None)


def simulate_cache(
    requests,
    capacity_mbit: float,
    policy: str = "lru",
) -> CacheStats:
    """Replay ``(key, size_mbit)`` requests through an edge cache."""
    cache = EdgeCache(capacity_mbit=capacity_mbit, policy=policy)
    stats = CacheStats()
    for key, size in requests:
        stats.requests += 1
        stats.bytes_requested_mbit += size
        if cache.request(key, size):
            stats.hits += 1
        else:
            stats.bytes_backhaul_mbit += size
    return stats


def _ctile_segment_requests(seg, traces, grid: TileGrid, quality: int,
                            fov_deg: float):
    """One segment's requests from a concurrent Ctile population."""
    for trace in traces:
        viewport = trace.viewport_at(
            (seg.segment_index + 0.5) * 1.0, fov_deg
        )
        fov_tiles = grid.viewport_tiles(viewport)
        for tile in sorted(fov_tiles):
            key = ("tile", seg.segment_index, tile.row, tile.col, quality)
            yield key, seg.tile_size_mbit(tile, quality)
        # Background tiles at the lowest quality.
        for tile in sorted(set(grid.tiles()) - fov_tiles):
            key = ("tile", seg.segment_index, tile.row, tile.col,
                   LOWEST_QUALITY)
            yield key, seg.tile_size_mbit(tile, LOWEST_QUALITY)


def _ptile_segment_requests(seg, sp: SegmentPtiles, traces, quality: int,
                            fov_deg: float):
    """One segment's requests from a concurrent Ptile population."""
    for trace in traces:
        viewport = trace.viewport_at(
            (seg.segment_index + 0.5) * 1.0, fov_deg
        )
        ptile = sp.match(viewport)
        if ptile is None:
            continue  # falls back to Ctile; not counted here
        key = ("ptile", seg.segment_index, ptile.index, quality)
        yield key, seg.region_size_mbit(
            ptile.region_key, ptile.area_fraction, quality
        )
        for block in sp.remainder_for(ptile):
            key = ("rem", seg.segment_index, block.key, LOWEST_QUALITY)
            yield key, seg.region_size_mbit(
                block.key, block.area_fraction, LOWEST_QUALITY
            )


@dataclass(frozen=True)
class EdgeHitModel:
    """Per-segment byte hit ratios of an edge cache, for sessions.

    Trained offline from a viewing population (see
    :func:`build_edge_hit_model`) and attached to
    :class:`~repro.streaming.session.SessionConfig`: the session serves
    the cached fraction of every download at the edge link rate and only
    the miss fraction over the backhaul network trace, so edge caching
    shortens downloads — and thereby rebuffering — in fig9-style sweeps.
    Deterministic by construction, so cached sessions stay reproducible.
    """

    hit_ratios: tuple[float, ...]
    edge_bandwidth_mbps: float = 200.0

    def __post_init__(self) -> None:
        if self.edge_bandwidth_mbps <= 0:
            raise ValueError("edge bandwidth must be positive")
        if any(not 0.0 <= r <= 1.0 for r in self.hit_ratios):
            raise ValueError("hit ratios must be in [0, 1]")

    def hit_ratio(self, segment_index: int) -> float:
        """Byte hit ratio for one segment, clamped to the trained range
        (first ratio before index 0, last ratio past the end)."""
        if not self.hit_ratios:
            return 0.0
        clamped = max(0, min(segment_index, len(self.hit_ratios) - 1))
        return self.hit_ratios[clamped]

    @property
    def mean_hit_ratio(self) -> float:
        if not self.hit_ratios:
            return 0.0
        return fold_sum(self.hit_ratios) / len(self.hit_ratios)


def build_edge_hit_model(
    manifest: VideoManifest,
    traces: list[HeadTrace],
    ptiles: list[SegmentPtiles],
    *,
    capacity_mbit: float = 2000.0,
    quality: int = 3,
    fov_deg: float = 100.0,
    policy: str = "lru",
    edge_bandwidth_mbps: float = 200.0,
) -> EdgeHitModel:
    """Train per-segment byte hit ratios from a viewing population.

    Replays the population's Ptile requests (the same stream as
    :func:`ptile_vs_ctile_caching`) through one :class:`EdgeCache` and
    tallies, per segment, what fraction of the requested bytes the cache
    served.  A later individual session then experiences those hit
    ratios: its per-segment Ptile request is statistically one of the
    population's.
    """
    if not traces:
        raise ValueError("need at least one viewer")
    tenant = _tenant(manifest, traces, ptiles)
    requested, hit, _, _ = _replay(
        (tenant,), capacity_mbit, policy, "ptile", quality, fov_deg
    )
    return _hit_model(requested[tenant.video_id], hit[tenant.video_id],
                      edge_bandwidth_mbps)


# ----------------------------------------------------------------------
# Multi-tenant sharing: populations of different videos, one edge cache.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheTenant:
    """One video's viewer population at a shared edge.

    ``ptiles`` may be omitted for Ctile-only replays; the Ptile request
    stream requires it.
    """

    video_id: int
    manifest: VideoManifest
    traces: tuple[HeadTrace, ...]
    ptiles: list[SegmentPtiles] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise ValueError(
                f"tenant {self.video_id} needs at least one viewer"
            )


def interleave_tenant_requests(
    tenants,
    *,
    scheme: str = "ptile",
    quality: int = 3,
    fov_deg: float = 100.0,
):
    """Merge tenant populations into one edge-side request stream.

    The interleaving policy is segment-synchronous, viewer-interleaved
    round-robin: all populations start playback together and advance in
    lockstep, so in round ``k`` every tenant whose video still has a
    segment ``k`` participates; within the round, *viewers* alternate
    across tenants (viewer 0 of every tenant, then viewer 1, ...), each
    issuing its full request burst for its segment.  Tenant populations
    therefore genuinely compete for residency inside every round — a
    tenant-contiguous interleave would let each population finish with
    an object before the next tenant could evict it, hiding contention
    entirely.  Tenants whose video has ended drop out of later rounds.

    Keys are namespaced by video id, so objects of distinct videos can
    never collide in the cache.  Yields ``(video_id, segment_index, key,
    size_mbit)`` tuples.
    """
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError(
            "cannot interleave an empty tenant collection; pass at least "
            "one CacheTenant (an empty stream would silently train "
            "all-miss hit models)"
        )
    if scheme not in ("ptile", "ctile"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "ptile":
        missing = [t.video_id for t in tenants if t.ptiles is None]
        if missing:
            raise ValueError(
                f"tenants {missing} have no Ptiles (required for the "
                "ptile request stream)"
            )
    rounds = max((t.manifest.num_segments for t in tenants), default=0)
    max_viewers = max((len(t.traces) for t in tenants), default=0)
    for k in range(rounds):
        for viewer in range(max_viewers):
            for tenant in tenants:
                if k >= tenant.manifest.num_segments:
                    continue
                if viewer >= len(tenant.traces):
                    continue
                seg = tenant.manifest[k]
                viewers = (tenant.traces[viewer],)
                if scheme == "ctile":
                    stream = _ctile_segment_requests(
                        seg, viewers, tenant.manifest.encoder.grid,
                        quality, fov_deg,
                    )
                else:
                    stream = _ptile_segment_requests(
                        seg, tenant.ptiles[k], viewers, quality, fov_deg
                    )
                for key, size in stream:
                    yield tenant.video_id, k, (tenant.video_id,) + key, size


@dataclass
class SharedCacheResult:
    """Outcome of a multi-tenant replay through one edge cache.

    ``models`` holds one contention-aware :class:`EdgeHitModel` per
    tenant video — the per-segment byte hit ratios that video's viewers
    experienced while every other tenant competed for the same capacity.
    """

    capacity_mbit: float
    policy: str
    scheme: str
    models: dict[int, EdgeHitModel]
    per_video: dict[int, CacheStats]
    overall: CacheStats

    @property
    def mean_hit_ratio(self) -> float:
        """Population-mean of the per-video model hit ratios."""
        if not self.models:
            return 0.0
        ratios = [m.mean_hit_ratio for m in self.models.values()]
        return fold_sum(ratios) / len(ratios)


def _replay(tenants, capacity_mbit, policy, scheme, quality, fov_deg):
    """Replay the tenants' interleaved request stream through one
    :class:`EdgeCache`: per-video, per-segment requested and served
    bytes, per-video :class:`CacheStats` and the overall stats."""
    requested = {t.video_id: [0.0] * t.manifest.num_segments for t in tenants}
    hit = {t.video_id: [0.0] * t.manifest.num_segments for t in tenants}
    per_video = {t.video_id: CacheStats() for t in tenants}
    overall = CacheStats()
    cache = EdgeCache(capacity_mbit=capacity_mbit, policy=policy)
    for video_id, seg_index, key, size in interleave_tenant_requests(
        tenants, scheme=scheme, quality=quality, fov_deg=fov_deg
    ):
        stats = per_video[video_id]
        stats.requests += 1
        stats.bytes_requested_mbit += size
        overall.requests += 1
        overall.bytes_requested_mbit += size
        requested[video_id][seg_index] += size
        if cache.request(key, size):
            stats.hits += 1
            overall.hits += 1
            hit[video_id][seg_index] += size
        else:
            stats.bytes_backhaul_mbit += size
            overall.bytes_backhaul_mbit += size
    return requested, hit, per_video, overall


def _tenant(manifest: VideoManifest, traces, ptiles) -> CacheTenant:
    """One video's population as the only tenant of a private cache."""
    return CacheTenant(manifest.video.meta.video_id, manifest, traces, ptiles)


def _hit_model(requested, hit, edge_bandwidth_mbps: float) -> EdgeHitModel:
    return EdgeHitModel(
        hit_ratios=tuple(h / r if r > 0 else 0.0
                         for h, r in zip(hit, requested)),
        edge_bandwidth_mbps=edge_bandwidth_mbps,
    )


def build_shared_edge_hit_models(
    tenants,
    *,
    capacity_mbit: float = 2000.0,
    quality: int = 3,
    fov_deg: float = 100.0,
    policy: str = "lru",
    edge_bandwidth_mbps: float = 200.0,
    scheme: str = "ptile",
) -> SharedCacheResult:
    """Train contention-aware per-video hit models at a shared edge.

    The interleaved request stream of every tenant population (see
    :func:`interleave_tenant_requests`) replays through **one**
    capacity-bounded :class:`EdgeCache`; per (video, segment) the
    requested and cache-served bytes are tallied, so each video's
    :class:`EdgeHitModel` reflects the capacity its objects actually won
    against the other tenants — unlike :func:`build_edge_hit_model`,
    which gives every video a private cache.  Deterministic for a fixed
    tenant tuple, so downstream sessions and their cached results stay
    reproducible.
    """
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError(
            "cannot train shared edge hit models without tenants; pass "
            "at least one CacheTenant"
        )
    ids = [t.video_id for t in tenants]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate tenant video ids {sorted(ids)}")

    requested, hit, per_video, overall = _replay(
        tenants, capacity_mbit, policy, scheme, quality, fov_deg
    )
    if overall.requests == 0:
        raise ValueError(
            "tenant populations produced an empty request stream "
            "(no video has any segment to request); refusing to train "
            "all-miss hit models"
        )
    models = {
        video_id: _hit_model(requested[video_id], hit[video_id],
                             edge_bandwidth_mbps)
        for video_id in requested
    }
    return SharedCacheResult(
        capacity_mbit=capacity_mbit,
        policy=policy,
        scheme=scheme,
        models=models,
        per_video=per_video,
        overall=overall,
    )


def ptile_vs_ctile_caching(
    manifest: VideoManifest,
    traces: list[HeadTrace],
    ptiles: list[SegmentPtiles],
    capacity_mbit: float = 500.0,
    quality: int = 3,
    fov_deg: float = 100.0,
    policy: str = "lru",
) -> dict[str, CacheStats]:
    """Compare edge-cache behaviour of the two tiling schemes.

    The same viewer population replays through the same-capacity cache;
    returns per-scheme :class:`CacheStats`.
    """
    if not traces:
        raise ValueError("need at least one viewer")
    tenant = _tenant(manifest, traces, ptiles)
    return {
        scheme: _replay((tenant,), capacity_mbit, policy, scheme, quality,
                        fov_deg)[2][tenant.video_id]
        for scheme in ("ctile", "ptile")
    }
