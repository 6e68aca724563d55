"""Scalar reference loops for content prep: the parity oracles.

Production builds FoV tile sets, Alg. 1 neighbour sets and head traces
with precomputed bounds, one distance matrix per segment and plain-float
loops.  This module keeps the original straightforward forms, written
for clarity rather than speed, and the content parity tests compare the
production code against them with ``==`` — same values, same set
iteration order, same pickled bytes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.geometry.tiling import FTILE_BLOCK_GRID, Tile, TileGrid
from repro.geometry.viewport import Rect, Viewport
from repro.ptile.clustering import (
    Cluster,
    ViewingCenter,
    _split,
)
from repro.streaming.ftile import (
    FtileCell,
    FtilePartition,
    _split_half,
    _split_leaf,
)
from repro.traces.head_movement import HeadTrace
from repro.traces.synthetic_users import BehaviorParams, RoiPath
from repro.video.content import Video


def viewport_tiles_reference(
    grid: TileGrid, viewport: Viewport, min_overlap: float = 0.1
) -> frozenset[Tile]:
    """FoV tiles by intersecting every tile rect with every viewport rect."""
    overlap_by_tile: dict[Tile, float] = {}
    tile_area = grid.tile_width * grid.tile_height
    for rect in viewport.rects():
        for tile in grid.tiles():
            area = grid.tile_rect(tile).intersection_area(rect)
            if area > 0:
                overlap_by_tile[tile] = overlap_by_tile.get(tile, 0.0) + area
    return frozenset(
        tile
        for tile, area in overlap_by_tile.items()
        if area > min_overlap * tile_area
    )


def tiles_overlapping_reference(
    grid: TileGrid, rect: Rect, min_overlap: float = 0.0
) -> set[Tile]:
    """Tiles overlapping a rect, one ``tile_rect`` per tile."""
    if not (0.0 <= min_overlap < 1.0):
        raise ValueError("min_overlap must be in [0, 1)")
    tile_area = grid.tile_width * grid.tile_height
    result: set[Tile] = set()
    for tile in grid.tiles():
        overlap = grid.tile_rect(tile).intersection_area(rect)
        if overlap > min_overlap * tile_area:
            result.add(tile)
    return result


def diameter_reference(cluster: Cluster) -> float:
    """Maximum pairwise member distance, one ``distance_to`` per pair."""
    best = 0.0
    members = cluster.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            best = max(best, members[i].distance_to(members[j]))
    return best


def neighbors_reference(
    nodes: list[ViewingCenter], delta: float
) -> dict[int, list[ViewingCenter]]:
    """Alg. 1 line 1: close-neighbour lists, one ``distance_to`` per pair."""
    return {
        u.user_id: [n for n in nodes if n.user_id != u.user_id
                    and u.distance_to(n) <= delta]
        for u in nodes
    }


def cluster_viewing_centers_reference(
    centers, delta: float, sigma: float, recursive_split: bool = False
) -> list[Cluster]:
    """Algorithm 1 with per-pair neighbour and diameter loops."""
    if delta <= 0 or sigma <= 0:
        raise ValueError("delta and sigma must be positive")
    nodes = sorted(centers)
    if len({c.user_id for c in nodes}) != len(nodes):
        raise ValueError("duplicate user ids among viewing centers")
    if not nodes:
        return []
    neighbors = neighbors_reference(nodes, delta)
    remaining: dict[int, ViewingCenter] = {u.user_id: u for u in nodes}
    clusters: list[Cluster] = []
    while remaining:
        seed_id = max(remaining, key=lambda uid: (len(neighbors[uid]), -uid))
        seed = remaining.pop(seed_id)
        members = [seed]
        queue: deque[ViewingCenter] = deque([seed])
        while queue:
            u = queue.popleft()
            for n in neighbors[u.user_id]:
                if n.user_id in remaining:
                    members.append(remaining.pop(n.user_id))
                    queue.append(n)
        cluster = Cluster(tuple(sorted(members)))
        if diameter_reference(cluster) > sigma:
            clusters.extend(_split(cluster, sigma, recursive_split))
        else:
            clusters.append(cluster)
    clusters.sort(key=lambda c: (-c.size, c.members[0].user_id))
    return clusters


def generate_user_trace_reference(
    video: Video,
    user_id: int,
    roi: RoiPath,
    params: BehaviorParams = BehaviorParams(),
    seed: int | None = None,
) -> HeadTrace:
    """The head-trace generator with numpy state and scalar ``np.clip``."""
    exploratory = video.meta.behavior == "exploratory"
    if seed is None:
        seed = video.meta.video_id * 1_000_003 + user_id * 7907
    rng = np.random.default_rng(seed)
    dt = 1.0 / params.sample_rate_hz
    n = roi.num_samples
    t = roi.timestamps

    secondary_share = (
        params.secondary_attention_share_exploratory
        if exploratory
        else params.secondary_attention_share
    )
    secondary_viewer = rng.random() < secondary_share
    offset_yaw = rng.normal(0.0, params.personal_offset_deg)
    offset_pitch = rng.normal(0.0, params.personal_offset_deg * 0.6)

    yaw = np.empty(n)
    pitch = np.empty(n)
    yaw[0], pitch[0] = roi.at(0)
    yaw[0] += offset_yaw
    pitch[0] = float(np.clip(pitch[0] + offset_pitch, -80.0, 80.0))
    vel_yaw = 0.0
    vel_pitch = 0.0

    exploring = exploratory and rng.random() < 0.5
    on_secondary = False
    waypoint = (yaw[0], pitch[0])
    next_waypoint_at = 0.0
    offset_theta = 1.0 / params.offset_time_constant_s
    offset_sigma = params.personal_offset_deg

    for i in range(1, n):
        now = t[i]
        offset_yaw += (
            -offset_theta * offset_yaw * dt
            + offset_sigma * np.sqrt(2 * offset_theta * dt) * rng.normal()
        )
        offset_pitch += (
            -offset_theta * offset_pitch * dt
            + 0.6 * offset_sigma * np.sqrt(2 * offset_theta * dt) * rng.normal()
        )

        if exploratory:
            if exploring:
                if rng.random() < params.explore_to_follow_per_s * dt:
                    exploring = False
            elif rng.random() < params.follow_to_explore_per_s * dt:
                exploring = True
        if secondary_viewer and rng.random() < params.secondary_switch_per_s * dt:
            on_secondary = not on_secondary

        roi_yaw, roi_pitch = roi.at(i)
        if exploring:
            if now >= next_waypoint_at:
                lo, hi = params.waypoint_interval_s
                next_waypoint_at = now + rng.uniform(lo, hi)
                waypoint = (
                    yaw[i - 1] + rng.uniform(-1.0, 1.0) * params.waypoint_yaw_span_deg,
                    rng.uniform(*params.waypoint_pitch_range),
                )
            target_yaw, target_pitch = waypoint
        else:
            target_yaw = roi_yaw + offset_yaw
            target_pitch = roi_pitch + offset_pitch
            if on_secondary:
                target_yaw += params.secondary_roi_offset_deg
        target_pitch = float(np.clip(target_pitch, -80.0, 80.0))

        acc_yaw = (
            params.pursuit_gain * (target_yaw - yaw[i - 1])
            - params.pursuit_damping * vel_yaw
        )
        acc_pitch = (
            params.pursuit_gain * (target_pitch - pitch[i - 1])
            - params.pursuit_damping * vel_pitch
        )
        vel_yaw += acc_yaw * dt
        vel_pitch += acc_pitch * dt
        yaw[i] = yaw[i - 1] + vel_yaw * dt + rng.normal(0.0, params.jitter_deg)
        pitch[i] = float(
            np.clip(
                pitch[i - 1] + vel_pitch * dt + rng.normal(0.0, params.jitter_deg),
                -85.0,
                85.0,
            )
        )

    return HeadTrace(
        user_id=user_id,
        video_id=video.meta.video_id,
        timestamps=t,
        yaw_unwrapped=yaw,
        pitch=pitch,
    )


def ftile_score_reference(leaf: tuple[int, int, int, int], pop: np.ndarray) -> float:
    """Ftile split priority: popularity variance times block count."""
    r0, r1, c0, c1 = leaf
    region = pop[r0:r1, c0:c1]
    if region.size <= 1:
        return -1.0
    return float(np.var(region) * region.size)


def popularity_map_reference(viewports, grid: TileGrid) -> np.ndarray:
    """Per-block viewport counts with scalar ``np.floor``/``np.ceil``."""
    pop = np.zeros((grid.rows, grid.cols))
    for viewport in viewports:
        for rect in viewport.rects():
            c0 = int(np.floor(rect.x0 / grid.tile_width))
            c1 = int(np.ceil(rect.x1 / grid.tile_width))
            r0 = int(np.floor((90.0 - rect.y1) / grid.tile_height))
            r1 = int(np.ceil((90.0 - rect.y0) / grid.tile_height))
            pop[max(r0, 0) : min(r1, grid.rows), max(c0, 0) : min(c1, grid.cols)] += 1
    return pop


def build_ftile_partition_reference(
    viewports, segment_index: int = 0, n_tiles: int = 10,
    grid: TileGrid = FTILE_BLOCK_GRID,
) -> FtilePartition:
    """Ftile KD split that re-scores every leaf on every re-sort."""
    pop = popularity_map_reference(viewports, grid)
    leaves: list[tuple[int, int, int, int]] = [(0, grid.rows, 0, grid.cols)]
    while len(leaves) < n_tiles:
        leaves.sort(key=lambda lf: ftile_score_reference(lf, pop), reverse=True)
        target = leaves[0]
        split = _split_leaf(target, pop)
        if split is None:
            leaves.sort(key=lambda lf: (lf[1] - lf[0]) * (lf[3] - lf[2]), reverse=True)
            split = _split_half(leaves[0])
            if split is None:
                break
            target = leaves[0]
        leaves.remove(target)
        leaves.extend(split)
    cells = []
    for i, (r0, r1, c0, c1) in enumerate(sorted(leaves)):
        rect = Rect(
            c0 * grid.tile_width,
            90.0 - r1 * grid.tile_height,
            c1 * grid.tile_width,
            90.0 - r0 * grid.tile_height,
        )
        n_blocks = (r1 - r0) * (c1 - c0)
        cells.append(FtileCell(
            key=f"ftile-{i}", rect=rect, n_blocks=n_blocks,
            area_fraction=n_blocks / grid.num_tiles,
        ))
    return FtilePartition(segment_index=segment_index, cells=tuple(cells))
