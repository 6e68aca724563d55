"""Viewing-center clustering (paper Algorithm 1).

Users with similar viewing interests have nearby viewing centers.  The
paper clusters them with a density-style expansion bounded by two
parameters:

* ``delta`` — two viewing centers belong to the same cluster when their
  distance is at most delta (the close-neighbor radius).
* ``sigma`` — the maximum allowed distance between any two members of a
  cluster; a cluster whose diameter exceeds sigma is split in two with
  k-means (k=2), keeping Ptiles from growing too large (Fig. 6).

The algorithm:

1. precompute each node's close neighbors ``N_u`` (distance <= delta);
2. seed a cluster at the node with the most close neighbors and expand
   it breadth-first through close-neighbor links;
3. if the resulting cluster's diameter exceeds sigma, split it with
   2-means;
4. repeat until every node is clustered.

Distances are planar Euclidean on the equirectangular frame with yaw
wraparound (:func:`repro.geometry.sphere.equirect_distance`).  All tie
breaking is deterministic (lowest user id), so clustering is exactly
reproducible.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..geometry.sphere import equirect_distance

__all__ = ["ViewingCenter", "Cluster", "cluster_viewing_centers"]


@dataclass(frozen=True, order=True)
class ViewingCenter:
    """One user's viewing center at a given segment."""

    user_id: int
    yaw: float
    pitch: float

    def distance_to(self, other: "ViewingCenter") -> float:
        return equirect_distance(self.yaw, self.pitch, other.yaw, other.pitch)


@dataclass(frozen=True)
class Cluster:
    """A group of viewing centers with similar interests."""

    members: tuple[ViewingCenter, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster cannot be empty")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def diameter(self) -> float:
        """Maximum pairwise distance between members (degrees)."""
        best = 0.0
        members = self.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                best = max(best, members[i].distance_to(members[j]))
        return best

    def centroid(self) -> tuple[float, float]:
        """Wrap-aware centroid (circular mean yaw, plain mean pitch)."""
        yaws = np.radians([m.yaw for m in self.members])
        pitch = float(np.mean([m.pitch for m in self.members]))
        yaw = float(
            np.degrees(np.arctan2(np.mean(np.sin(yaws)), np.mean(np.cos(yaws))))
        ) % 360.0
        return yaw, pitch

    def user_ids(self) -> tuple[int, ...]:
        return tuple(m.user_id for m in self.members)


def cluster_viewing_centers(
    centers: list[ViewingCenter] | tuple[ViewingCenter, ...],
    delta: float,
    sigma: float,
    recursive_split: bool = False,
) -> list[Cluster]:
    """Algorithm 1: cluster viewing centers.

    ``recursive_split=False`` matches the paper's pseudocode exactly
    (one 2-means split per oversized cluster); ``True`` keeps splitting
    until every cluster's diameter is within sigma.

    Returns clusters sorted by size descending (ties by lowest member
    user id).
    """
    if delta <= 0 or sigma <= 0:
        raise ValueError("delta and sigma must be positive")
    nodes = sorted(centers)
    if len({c.user_id for c in nodes}) != len(nodes):
        raise ValueError("duplicate user ids among viewing centers")
    if not nodes:
        return []

    # Line 1: close-neighbor sets over the full input, from one pairwise
    # distance matrix (the diagonal is each node itself).
    pairs = _PairDistances(nodes)
    close = pairs.compare(operator.le, delta)
    np.fill_diagonal(close, False)
    neighbors: dict[int, list[ViewingCenter]] = {
        u.user_id: [nodes[j] for j in np.flatnonzero(row).tolist()]
        for u, row in zip(nodes, close)
    }
    index_of = {u.user_id: i for i, u in enumerate(nodes)}

    remaining: dict[int, ViewingCenter] = {u.user_id: u for u in nodes}
    clusters: list[Cluster] = []
    while remaining:
        members = _expand_cluster(remaining, neighbors)
        cluster = Cluster(tuple(sorted(members)))
        idx = [index_of[m.user_id] for m in cluster.members]
        if pairs.compare(operator.gt, sigma, idx).any():  # diameter > sigma
            clusters.extend(_split(cluster, sigma, recursive_split))
        else:
            clusters.append(cluster)

    clusters.sort(key=lambda c: (-c.size, c.members[0].user_id))
    return clusters


class _PairDistances:
    """Pairwise :func:`equirect_distance` of a node list, as one matrix.

    The wrapped yaw and pitch differences are exact in numpy, but
    ``np.hypot`` and ``math.hypot`` may round one ulp apart, so every
    comparison whose matrix value lies within a tiny band of its limit
    is re-decided with ``math.hypot`` — the exact value
    :meth:`ViewingCenter.distance_to` gives.
    """

    _BAND_REL = 1e-9
    _BAND_ABS = 1e-300

    def __init__(self, nodes: list[ViewingCenter]):
        yaw = np.array([n.yaw for n in nodes]) % 360.0
        pitch = np.array([n.pitch for n in nodes])
        dyaw = np.abs(yaw[:, None] - yaw[None, :])
        self.dyaw = np.minimum(dyaw, 360.0 - dyaw)
        self.dpitch = pitch[:, None] - pitch[None, :]
        self.dist = np.hypot(self.dyaw, self.dpitch)

    def compare(
        self, op, limit: float, idx: list[int] | None = None
    ) -> np.ndarray:
        """Boolean matrix of ``op(distance, limit)`` over the nodes (or
        the sub-list ``idx``), e.g. ``op=operator.le``."""
        dist = self.dist if idx is None else self.dist[np.ix_(idx, idx)]
        result = op(dist, limit)
        band = np.abs(dist - limit) <= limit * self._BAND_REL + self._BAND_ABS
        for i, j in zip(*np.nonzero(band)):
            a, b = (i, j) if idx is None else (idx[i], idx[j])
            exact = math.hypot(float(self.dyaw[a, b]), float(self.dpitch[a, b]))
            result[i, j] = op(exact, limit)
        return result


def _expand_cluster(
    remaining: dict[int, ViewingCenter],
    neighbors: dict[int, list[ViewingCenter]],
) -> list[ViewingCenter]:
    """ClusterFunc of Algorithm 1: seed at max close-neighbor count and
    expand breadth-first; mutates ``remaining`` by removing members."""
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
    return members


def _split(cluster: Cluster, sigma: float, recursive: bool) -> list[Cluster]:
    """Split an oversized cluster with 2-means (optionally recursing)."""
    if len(cluster) < 2:
        return [cluster]
    left, right = _two_means(cluster)
    result: list[Cluster] = []
    for part in (left, right):
        if recursive and part.diameter() > sigma and len(part) >= 2:
            result.extend(_split(part, sigma, recursive))
        else:
            result.append(part)
    return result


def _two_means(cluster: Cluster, max_iterations: int = 100) -> tuple[Cluster, Cluster]:
    """Deterministic 2-means in a wrap-free local frame.

    Yaws are re-expressed relative to the first member so the cluster
    (diameter bounded in practice) never straddles the seam; centroids
    are initialized at the diameter pair, the most stable seeding.
    """
    members = cluster.members
    ref = members[0].yaw
    points = np.array(
        [[(m.yaw - ref + 180.0) % 360.0 - 180.0, m.pitch] for m in members]
    )

    # Initialize at the farthest pair.
    best_pair = (0, 1)
    best_dist = -1.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > best_dist:
                best_dist = d
                best_pair = (i, j)
    centroids = points[list(best_pair)].copy()

    assignment = np.full(len(members), -1, dtype=int)
    for _iteration in range(max_iterations):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_assignment = np.argmin(dists, axis=1)
        # Keep both clusters non-empty (possible with duplicate points).
        for k in (0, 1):
            if not np.any(new_assignment == k):
                new_assignment[best_pair[k]] = k
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in (0, 1):
            centroids[k] = points[assignment == k].mean(axis=0)

    left = tuple(sorted(m for m, a in zip(members, assignment) if a == 0))
    right = tuple(sorted(m for m, a in zip(members, assignment) if a == 1))
    return Cluster(left), Cluster(right)
