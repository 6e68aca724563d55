"""Disk-backed, content-addressed artifact and session-results store.

The paper's content-preparation pipeline (Sec. IV-A, Alg. 1) is pure
preprocessing over historical head traces: for a given video, tile grid,
clustering parameters, and training-trace set, the resulting
:class:`~repro.video.segments.VideoManifest`,
:class:`~repro.ptile.construction.SegmentPtiles`, and
:class:`~repro.streaming.ftile.FtilePartition` objects are a
deterministic function of their inputs.  Rebuilding them on every
``repro-360`` invocation wastes minutes of Algorithm 1 clustering that
could be a single deserialization.

:class:`ArtifactStore` caches those objects on disk, one pickle per
object, keyed by a SHA-256 **content digest** of everything that can
change the result:

* the video's metadata and per-segment SI/TI features,
* the encoder model (grid geometry, rate law parameters, noise seed),
* the tile-grid geometry,
* the resolved Ptile clustering parameters (δ, σ, ``min_users``, FoV),
* a digest of the training head traces (user ids + raw samples),
* the artifact schema version and package version (code version).

Keys are *content* hashes, not config names, so any change to the
inputs — a different δ/σ, a truncated video, a different train/test
split seed — lands in a different cache slot and a stale hit is
impossible.  Values are written atomically (temp file +
``os.replace``), so concurrent writers at worst duplicate work, and a
corrupt or truncated file is treated as a miss and rebuilt.

The store is wired into :class:`~repro.experiments.setup.ExperimentSetup`
(see ``ExperimentSetup.prepare``); the CLI enables it by default under
``~/.cache/repro-360`` (``--artifact-cache DIR`` / ``--no-artifact-cache``
to relocate or disable, ``REPRO_ARTIFACT_CACHE`` as the env override).

Session **results** live in the same store but in one layout only:
shards, one file per ``(sweep context, video)`` group.  A
:class:`~repro.streaming.metrics.SessionResult` is a deterministic
function of the sweep context (schemes, device, manifests, Ptiles,
traces, session config) and the job (scheme, video, network, user,
per-job overrides).  :func:`sweep_context_digest` composes the context
from keys its components were built under (:func:`manifest_key`,
:func:`ptiles_key`, :func:`ftiles_key`), never walking a built Ptile or
Ftile; :func:`results_shard_key` adds :data:`RESULTS_SCHEMA_VERSION`
and the package version; :func:`session_job_digest` keys the job's row
inside the shard.  Any change to the simulation inputs or the code
version lands in a different slot; ``repro-360 --no-results-cache``
opts out (see ``run_session_jobs``).  A ``results/`` directory of
per-session pickles left by older releases is neither read nor
cleared; it can be deleted by hand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
import re
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

try:  # POSIX only; the shard merge degrades gracefully without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..geometry.tiling import TileGrid
from ..ptile.construction import PtileConfig
from ..streaming.cache import EdgeHitModel
from ..traces.head_movement import HeadTrace
from ..video.content import Video
from ..video.encoder import EncoderModel

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "RESULTS_SCHEMA_VERSION",
    "ArtifactStats",
    "ArtifactStore",
    "ShardedResultsStore",
    "content_digest",
    "default_cache_dir",
    "encoder_fingerprint",
    "grid_fingerprint",
    "ladder_key",
    "manifest_key",
    "ptiles_key",
    "ftiles_key",
    "results_shard_key",
    "session_job_digest",
    "structural_fingerprint",
    "sweep_context_digest",
    "traces_fingerprint",
    "video_fingerprint",
]

ARTIFACT_SCHEMA_VERSION = 2
"""Bumped whenever the on-disk layout or the key composition changes.

v2: per-content encoding ladders — :func:`encoder_fingerprint` gained
the encoder's :class:`~repro.encoding.ladder.EncodingLadder`
fingerprint (manifests encoded under different ladders can never share
a slot) and the new ``ladder`` artifact kind caches optimizer search
results."""

RESULTS_SCHEMA_VERSION = 6
"""Bumped whenever the session-result schema or the fingerprint
composition changes; baked into every results key.

v2: SegmentRecord gained ``edge_hit_mbit``; SweepContext gained
``video_configs`` (per-video edge-cache models of the multi-tenant
shared edge), both of which change what a cached result contains and
what the context digest must cover.

v3: the resilience subsystem — SegmentRecord gained ``retries``,
``timeouts``, and ``degraded_level``; SessionConfig gained
``fault_plan`` / ``download_policy`` (both fingerprint structurally as
frozen dataclasses of primitives, so two sweeps sharing a
``(profile, seed)`` share cached sessions and any other pair cannot
collide).

v4: uncertainty-aware robust planning — SegmentRecord gained
``expected_coverage`` / ``uncertainty_deg``; PlanContext gained
``prediction_horizon_s``; the robust scheme's ``AngularErrorModel`` /
``PanoWeight`` / ``min_expected_coverage`` fingerprint structurally
through the generic dataclass walk, so robust and point-prediction
sweeps can never share a cached session.

Per-content encoding ladders changed key bytes without a bump: the
encoder fingerprint, and with it every manifest and context digest,
gained the ladder, so fixed- and optimized-ladder sessions never share
a result (older entries were stranded, not served).

v5: shard keys composed from component content keys — each manifest's
:func:`manifest_key` and the :func:`ptiles_key`/:func:`ftiles_key` of
the Ptiles and Ftiles instead of the built objects, and a video's key
covers only that video's slice of the context.

v6: columnar rows — a shard row is still ``pickle.dumps`` of one
:class:`~repro.streaming.metrics.SessionResult`, but the result now
pickles as its header plus the raw bytes of two per-segment column
blocks (float64 and int64, one row per SegmentRecord field), so a row
decodes with one ``np.frombuffer`` per block instead of one
SegmentRecord, SegmentQoE and SegmentEnergy per segment.  v5 rows are
not read."""

ARTIFACT_KINDS = ("manifest", "ptiles", "ftiles", "ladder")
"""Kinds stored one pickle per object; session results are sharded."""


def default_cache_dir() -> Path:
    """``$REPRO_ARTIFACT_CACHE``, else ``$XDG_CACHE_HOME/repro-360``,
    else ``~/.cache/repro-360``."""
    env = os.environ.get("REPRO_ARTIFACT_CACHE")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-360"


# ----------------------------------------------------------------------
# Content digests.  Every value is encoded with a type tag plus a length
# where ambiguous, so distinct structures can never collide byte-wise
# ("ab","c" vs "a","bc"), and no process-local hash() is involved — the
# digest is stable across processes, platforms, and Python versions.
#
# The encoding is one pass: tokens are appended to a list and hashed by
# a single SHA-256 update, since a context fingerprint has ~10^4 small
# nodes and per-node hasher calls used to dominate.  The exact-type
# checks in _encode cover the node types that make up almost all of a
# fingerprint; everything else (bool, numpy scalars, bytes, arrays,
# dicts, subclasses) takes the isinstance chain in _encode_other, whose
# order decides the tag of a value that matches several branches.
# ----------------------------------------------------------------------

_pack_u32 = struct.Struct("<I").pack
_pack_f64 = struct.Struct("<d").pack


def _encode(obj: Any, out: list) -> None:
    kind = type(obj)
    if kind is tuple or kind is list:
        out.append(b"t" + _pack_u32(len(obj)))
        for part in obj:
            _encode(part, out)
    elif kind is str:
        raw = obj.encode("utf-8")
        out.append(b"s" + _pack_u32(len(raw)) + raw)
    elif kind is int:
        raw = str(obj).encode("ascii")
        out.append(b"i" + _pack_u32(len(raw)) + raw)
    elif kind is float:
        out.append(b"f" + _pack_f64(obj))
    else:
        _encode_other(obj, out)


def _encode_other(obj: Any, out: list) -> None:
    if obj is None:
        out.append(b"N")
    elif isinstance(obj, bool):
        out.append(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        raw = str(int(obj)).encode("ascii")
        out.append(b"i" + _pack_u32(len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + _pack_f64(float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"s" + _pack_u32(len(raw)) + raw)
    elif isinstance(obj, bytes):
        out.append(b"y" + _pack_u32(len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            # tobytes() of an object array is its pointers: a digest of
            # them would differ per process and could alias across runs.
            raise TypeError(
                f"cannot digest an object-dtype array ({obj.dtype}); "
                "pass a fingerprint of its elements instead"
            )
        arr = np.ascontiguousarray(obj)
        meta = f"{arr.dtype.str}{arr.shape}".encode("ascii")
        out.append(b"a" + _pack_u32(len(meta)) + meta)
        out.append(arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        out.append(b"t" + _pack_u32(len(obj)))
        for part in obj:
            _encode(part, out)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        out.append(b"d" + _pack_u32(len(items)))
        for key, value in items:
            _encode(key, out)
            _encode(value, out)
    else:
        raise TypeError(
            f"cannot digest {type(obj).__name__}; pass a fingerprint of "
            "primitives/arrays instead"
        )


def content_digest(*parts: Any) -> str:
    """SHA-256 hex digest of a nested structure of primitives/arrays."""
    out: list = []
    _encode(parts, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def video_fingerprint(video: Video) -> tuple:
    """Everything about a video that content preparation depends on."""
    meta = video.meta
    return (
        "video",
        meta.video_id,
        meta.title,
        meta.duration_s,
        meta.fps,
        meta.width_px,
        meta.height_px,
        meta.behavior,
        np.array([s.si for s in video.segments]),
        np.array([s.ti for s in video.segments]),
    )


def encoder_fingerprint(encoder: EncoderModel) -> tuple:
    return (
        "encoder",
        grid_fingerprint(encoder.grid),
        encoder.segment_seconds,
        encoder.ref_bitrate_mbps,
        encoder.noise_sigma,
        encoder.seed,
        encoder.ladder.fingerprint(),
    )


def grid_fingerprint(grid: TileGrid) -> tuple:
    return ("grid", grid.rows, grid.cols)


def traces_fingerprint(traces: Sequence[HeadTrace]) -> tuple:
    """Digest material for a training-trace set (order-sensitive)."""
    return tuple(
        (
            trace.user_id,
            trace.video_id,
            trace.timestamps,
            trace.yaw_unwrapped,
            trace.pitch,
        )
        for trace in traces
    )


def _versioned(kind: str, *parts: Any) -> str:
    from .. import __version__

    return content_digest(ARTIFACT_SCHEMA_VERSION, __version__, kind, *parts)


def manifest_key(video: Video, encoder: EncoderModel) -> str:
    return _versioned(
        "manifest", video_fingerprint(video), encoder_fingerprint(encoder)
    )


def ptiles_key(
    video: Video,
    train_traces: Sequence[HeadTrace],
    grid: TileGrid,
    config: PtileConfig,
) -> str:
    return _versioned(
        "ptiles",
        video_fingerprint(video),
        grid_fingerprint(grid),
        config.fingerprint(grid),
        traces_fingerprint(train_traces),
    )


def ladder_key(
    video: Video,
    encoder: EncoderModel,
    targets: Sequence[float],
    search_config: Any,
    quality_model: Any,
) -> str:
    """Cache key for one video's optimized-ladder search result.

    Covers everything the search reads: the video's SI/TI content, the
    encoder rate law (including the base ladder the search never
    crosses), the per-level quality targets, the search configuration,
    and the Eq. 3 coefficients scoring candidate rungs — plus the code
    version via :func:`_versioned`.
    """
    return _versioned(
        "ladder",
        video_fingerprint(video),
        encoder_fingerprint(encoder),
        tuple(float(t) for t in targets),
        structural_fingerprint(search_config),
        structural_fingerprint(quality_model),
    )


def ftiles_key(
    video: Video,
    train_traces: Sequence[HeadTrace],
    segment_seconds: float = 1.0,
    n_tiles: int = 10,
) -> str:
    return _versioned(
        "ftiles",
        video_fingerprint(video),
        segment_seconds,
        n_tiles,
        traces_fingerprint(train_traces),
    )


# ----------------------------------------------------------------------
# Session-results keys.  A SessionResult is a pure function of the sweep
# context and the job.  The context's heavy parts are keyed by what they
# were made from (sweep_context_digest); its small parts — schemes,
# device, session configs — and the job are reduced to digestible
# primitives by a structural walk.  Dataclasses are walked
# field-by-field via dataclasses.fields(), which deliberately skips memo
# caches attached with object.__setattr__.  Special cases cover what
# the generic walk cannot reduce, or would reduce to other bytes:
#
# * TileGrid (not a dataclass) -> grid_fingerprint;
# * EdgeHitModel -> its hit ratios and edge rate, the bytes every
#   cached job with an edge model was keyed under;
# * callables (e.g. SessionConfig.predictor_factory) -> their import
#   path, so swapping the prediction strategy invalidates the slot.
# ----------------------------------------------------------------------


def structural_fingerprint(obj: Any) -> Any:
    """Reduce a live experiment object to :func:`content_digest` input."""
    if obj is None or isinstance(
        obj, (bool, str, bytes, int, float, np.integer, np.floating,
              np.ndarray)
    ):
        return obj
    if isinstance(obj, TileGrid):
        return grid_fingerprint(obj)
    if isinstance(obj, EdgeHitModel):
        # The trained per-segment hit ratios ARE the model: two models
        # with equal ratios and edge rate produce identical sessions no
        # matter which cache/population trained them.
        return (
            "edge-hit-model",
            tuple(obj.hit_ratios),
            obj.edge_bandwidth_mbps,
        )
    if isinstance(obj, (tuple, list)):
        return tuple(structural_fingerprint(part) for part in obj)
    if isinstance(obj, (set, frozenset)):
        parts = [structural_fingerprint(part) for part in obj]
        return ("set", tuple(sorted(parts, key=repr)))
    if isinstance(obj, dict):
        items = [
            (structural_fingerprint(k), structural_fingerprint(v))
            for k, v in obj.items()
        ]
        # Order entries by their key's repr alone: repr-printing whole
        # entries would format every array value only to recover the
        # order the unique keys already fix.  Distinct keys with one
        # repr fall back to the whole-entry order, so the result never
        # depends on insertion order.
        by_key = {repr(k): (k, v) for k, v in items}
        if len(by_key) == len(items):
            items = [by_key[r] for r in sorted(by_key)]
        else:
            items.sort(key=repr)
        return ("dict", tuple(items))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            "obj",
            type(obj).__qualname__,
            tuple(
                (f.name, structural_fingerprint(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if callable(obj):
        return (
            "callable",
            getattr(obj, "__module__", "?"),
            getattr(obj, "__qualname__", repr(obj)),
        )
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__}; add a structural case"
    )


def sweep_context_digest(context: Any) -> str:
    """Digest of everything a sweep's sessions share (a SweepContext).

    Composed from each manifest's :func:`manifest_key`, the
    ``ptiles_keys``/``ftiles_keys`` its Ptiles and Ftiles were built
    under, the head-trace samples, the per-video configs and
    ``context.shared_digest()``.  Ptiles or Ftiles without their content
    key raise ``ValueError``: the built objects are never walked.
    """
    for kind in ("ptiles", "ftiles"):
        missing = sorted(
            set(getattr(context, kind)) - set(getattr(context, f"{kind}_keys"))
        )
        if missing:
            raise ValueError(f"sweep context holds {kind} of video(s)"
                             f" {missing} without their {kind}_keys entry")
    return content_digest(
        "sweep-context",
        RESULTS_SCHEMA_VERSION,
        context.shared_digest(),
        structural_fingerprint(context.video_configs),
        {vid: manifest_key(manifest.video, manifest.encoder)
         for vid, manifest in context.manifests.items()},
        {vid: traces_fingerprint(heads)
         for vid, heads in context.head_traces.items()},
        {vid: context.ptiles_keys[vid] for vid in context.ptiles},
        {vid: context.ftiles_keys[vid] for vid in context.ftiles},
    )


def session_job_digest(job: Any) -> str:
    """Digest of one job's inputs (a SessionJob).

    ``key`` is excluded: it is a caller-side display label carried
    through to reports, not a simulation input.
    """
    parts = tuple(
        (f.name, structural_fingerprint(getattr(job, f.name)))
        for f in dataclasses.fields(job)
        if f.name != "key"
    )
    return content_digest("session-job", parts)


def results_shard_key(context_digest: str, video_id: int) -> str:
    """Key of the shard holding every session result of one
    ``(sweep context, video)`` group.

    Within a shard, rows are keyed by :func:`session_job_digest` alone:
    the schema version, code version, and context digest are already
    pinned by the shard key, so the pair ``(shard key, job digest)``
    names one session result.
    """
    return _versioned(
        "results-shard", RESULTS_SCHEMA_VERSION, context_digest, video_id
    )


# ----------------------------------------------------------------------
# The store itself.
# ----------------------------------------------------------------------


@dataclass
class ArtifactStats:
    """Per-kind hit/miss/write counters for one store instance.

    Session results count under ``"results"``: one hit or miss per
    requested row and one write per merged row.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)

    def record(self, counter: dict[str, int], kind: str, n: int = 1) -> None:
        if n:
            counter[kind] = counter.get(kind, 0) + n

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def report(self) -> str:
        parts = []
        for kind in (*ARTIFACT_KINDS, "results"):
            parts.append(
                f"{kind}: {self.hits.get(kind, 0)} hit(s),"
                f" {self.misses.get(kind, 0)} miss(es),"
                f" {self.writes.get(kind, 0)} write(s)"
            )
        return "; ".join(parts)


_DIGEST_RE = re.compile(r"[0-9a-f]{64}\Z")

SHARD_DIR = "results-shards"
"""Subdirectory of the session-result shards."""


def _validate_digest(digest: str) -> str:
    """Reject anything that is not a lowercase SHA-256 hex digest.

    Digests are interpolated into filenames, so a malformed value
    (``..``, a path separator, an empty string) would silently address a
    file outside the kind directory instead of failing loudly.
    """
    if not isinstance(digest, str) or _DIGEST_RE.match(digest) is None:
        raise ValueError(
            f"malformed artifact digest {digest!r}: expected 64 lowercase "
            "hex characters (a SHA-256 content digest)"
        )
    return digest


def _binary_digests(entries: Sequence[str]) -> bytes:
    """The 32-byte forms of many digests, concatenated, after checking
    each entry as :func:`_validate_digest` does.

    The batch is checked in one pass over the joined hex (a hex round
    trip plus the entry lengths, so a digest split across two entries
    or spelled in uppercase cannot pass); only a failing batch is
    walked entry by entry to name the bad one.
    """
    try:
        joined = "".join(entries)
        raw = bytes.fromhex(joined)
        if raw.hex() == joined and set(map(len, entries)) <= {64}:
            return raw
    except (TypeError, ValueError):
        pass
    for entry in entries:
        _validate_digest(entry)  # raises on the first malformed entry
    return bytes.fromhex("".join(entries))


def _discard(path: Path) -> None:
    """Unlink a file, ignoring one that is already gone or locked."""
    try:
        path.unlink()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Session-result shards.  One shard file holds every cached session of
# one (sweep-context digest, video) group, so a warm million-session
# sweep opens one file per group instead of one per session.  Layout
# (all little-endian, written atomically):
#
#   magic        b"RSHARD1\n"
#   digests      .npy, S32, binary SHA-256 job digests, ascending
#   offsets      .npy, int64, payload offset of each row
#   ends         .npy, int64, payload end of each row
#   payload      concatenated per-row pickle blobs
#
# Each row is one job's result pickled on its own (highest protocol), so
# a row is deserialized without touching its neighbours.  A
# SessionResult row (schema v6) pickles as its header plus the raw bytes
# of its per-segment float64 and int64 column blocks, so it decodes with
# one np.frombuffer per block and builds no per-segment objects.
# Keeping the index as raw numpy arrays (not a zip/npz container) lets a
# batch lookup run as a handful of vector ops: one read(), three
# read_array() calls, one searchsorted over the sorted digest column,
# then one pickle.loads per requested row.
# ----------------------------------------------------------------------

_SHARD_MAGIC = b"RSHARD1\n"


def _index_consistent(
    digests: np.ndarray, offsets: np.ndarray, ends: np.ndarray,
    payload_len: int,
) -> bool:
    """Whether a shard index tiles its payload exactly, in digest order.

    Digests must be strictly ascending (lookups binary-search them) and
    the rows' byte ranges contiguous from offset 0 to the end of the
    file.  Anything else — a reordered, overlapping, or padded index —
    could serve one job's row for another, so it marks the shard
    corrupt.
    """
    if not (
        digests.dtype == np.dtype("S32")
        and offsets.dtype == ends.dtype == np.dtype(np.int64)
        and digests.ndim == offsets.ndim == ends.ndim == 1
        and len(digests) == len(offsets) == len(ends)
    ):
        return False
    if len(digests) == 0:
        return payload_len == 0
    return bool(
        offsets[0] == 0
        and ends[-1] == payload_len
        and (offsets[1:] == ends[:-1]).all()
        and (ends >= offsets).all()
        and (digests[1:] > digests[:-1]).all()
    )


@contextmanager
def _merge_lock(lock_path: Path) -> Iterator[None]:
    """Serialize shard read-merge-replace cycles between writers.

    With ``fcntl`` (any POSIX platform) concurrent merges queue on an
    exclusive lock, so two writers merging disjoint job sets both land
    in the final shard.  Without it the merge degrades to documented
    last-writer-wins: the losing writer's rows are recomputed (never
    corrupted) on the next run.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(lock_path, "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


class ArtifactStore:
    """Disk-backed, content-hash-keyed cache of artifacts and results.

    Content-prep artifacts (:data:`ARTIFACT_KINDS`) are stored one
    pickle per object through :meth:`get`/:meth:`put` — there are a
    handful per video.  Session results are stored only in
    shards, one per ``(sweep-context digest, video)`` group:

    * :meth:`get_results_batch` — one shard read serves every requested
      job of the group.
    * :meth:`merge_shard` — append-merge: read the existing shard raw
      (rows are never deserialized), overlay the new rows, and
      atomically replace the file.  Merges are serialized by an
      exclusive file lock, so concurrent writers with disjoint job sets
      cannot lose each other's rows.

    ``root=None`` resolves to :func:`default_cache_dir`.  The directory
    is created lazily on the first write, so constructing a store never
    touches the filesystem.

    ``stale_tmp_age_s`` bounds how long an in-flight writer temp file
    (``.{digest}.{pid}.tmp``) is presumed live: a crashed or killed
    writer leaves its temp file behind forever, so :meth:`clear` and
    :meth:`size_bytes` sweep temp files older than this while leaving
    younger ones to the writers that own them.
    """

    def __init__(self, root: str | Path | None = None, *,
                 stale_tmp_age_s: float = 3600.0):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = ArtifactStats()
        self.stale_tmp_age_s = stale_tmp_age_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(root={str(self.root)!r})"

    # -- per-object artifacts -------------------------------------------

    def path_for(self, kind: str, digest: str) -> Path:
        if kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.root / kind / f"{_validate_digest(digest)}.pkl"

    def get(self, kind: str, digest: str) -> Any | None:
        """The stored object, or ``None`` on miss/corruption."""
        path = self.path_for(kind, digest)
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except (FileNotFoundError, MemoryError):
            # Absent, or a transient OOM loading a large artifact that
            # says nothing about the file: a miss that keeps the entry.
            self.stats.record(self.stats.misses, kind)
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError):
            # Truncated/corrupt/stale-class pickle: drop it and rebuild.
            _discard(path)
            self.stats.record(self.stats.misses, kind)
            return None
        self.stats.record(self.stats.hits, kind)
        return obj

    def put(self, kind: str, digest: str, obj: Any) -> Path:
        """Atomically persist an object (last writer wins)."""
        path = self.path_for(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{digest}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            _discard(tmp)
        self.stats.record(self.stats.writes, kind)
        return path

    # -- session-result shards ------------------------------------------

    def shard_path(self, shard_digest: str) -> Path:
        return self.root / SHARD_DIR / f"{_validate_digest(shard_digest)}.shard"

    def _read_shard_raw(
        self, shard_digest: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes, int] | None:
        """``(digests, offsets, ends, file_bytes, payload_base)`` or
        ``None`` when the shard is absent (corrupt shards are dropped
        and reported absent; a transient ``MemoryError`` leaves the file
        in place)."""
        path = self.shard_path(shard_digest)
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except (OSError, MemoryError):
            return None
        try:
            if buf[: len(_SHARD_MAGIC)] != _SHARD_MAGIC:
                raise ValueError("bad shard magic")
            bio = io.BytesIO(buf)
            bio.seek(len(_SHARD_MAGIC))
            digests = np.lib.format.read_array(bio, allow_pickle=False)
            offsets = np.lib.format.read_array(bio, allow_pickle=False)
            ends = np.lib.format.read_array(bio, allow_pickle=False)
            base = bio.tell()
            if not _index_consistent(digests, offsets, ends, len(buf) - base):
                raise ValueError("inconsistent shard index")
        except MemoryError:
            return None
        except Exception:
            # Truncated or corrupt shard: drop it and let the sweep
            # rebuild its rows.
            _discard(path)
            return None
        return digests, offsets, ends, buf, base

    def _write_shard_raw(
        self, shard_digest: str, blobs: dict[bytes, bytes]
    ) -> Path:
        """Atomically write a shard from ``{binary digest: pickle}``."""
        path = self.shard_path(shard_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(blobs)
        lengths = np.array([len(blobs[d]) for d in ordered], dtype=np.int64)
        ends = np.cumsum(lengths, dtype=np.int64)
        offsets = ends - lengths
        digests = np.array(ordered, dtype="S32")
        tmp = path.parent / f".{shard_digest}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_SHARD_MAGIC)
                np.lib.format.write_array(fh, digests, allow_pickle=False)
                np.lib.format.write_array(fh, offsets, allow_pickle=False)
                np.lib.format.write_array(fh, ends, allow_pickle=False)
                for digest in ordered:
                    fh.write(blobs[digest])
            os.replace(tmp, path)
        finally:
            _discard(tmp)
        return path

    def get_results_batch(
        self, shard_digest: str, entries: Sequence[str]
    ) -> list[Any]:
        """Look up many session results of one shard group at once.

        ``entries`` are job digests (:func:`session_job_digest`); a
        malformed one raises ``ValueError``, as in :meth:`merge_shard`.
        Returns one result per entry, in request order, with ``None``
        where the shard holds no such row.  Every requested row is
        counted exactly once, as a ``results`` hit or miss.
        """
        wanted = _binary_digests(entries)
        results: list[Any] = [None] * len(entries)
        served = 0
        raw = self._read_shard_raw(shard_digest)
        if raw is not None and len(raw[0]):
            digests, offsets, ends, buf, base = raw
            want = np.frombuffer(wanted, dtype="S32")
            # Search on a big-endian u64 view of each digest's first 8
            # bytes: same sort order as the S32 column but ~2x faster
            # to compare.  Exact whenever no two shard digests share a
            # prefix (anything else is a SHA-256 near-collision); the
            # astronomically-rare duplicate falls back to the full
            # lexicographic search.
            prefix = digests.view(">u8")[::4]
            if len(prefix) > 1 and (prefix[1:] == prefix[:-1]).any():
                pos = np.searchsorted(digests, want)
            else:
                pos = np.searchsorted(
                    prefix, np.ascontiguousarray(want.view(">u8")[::4])
                )
            clipped = np.minimum(pos, len(digests) - 1)
            hits = (digests[clipped] == want).tolist()
            starts = (offsets[clipped] + base).tolist()
            stops = (ends[clipped] + base).tolist()
            loads = pickle.loads
            view = memoryview(buf)  # slice without copying each row
            try:
                for i, hit in enumerate(hits):
                    if hit:
                        results[i] = loads(view[starts[i] : stops[i]])
                        served += 1
            except MemoryError:
                raise
            except Exception:
                # A consistent index over a corrupt payload: drop the
                # shard and report the whole batch missing.
                _discard(self.shard_path(shard_digest))
                results = [None] * len(entries)
                served = 0
        self.stats.record(self.stats.hits, "results", served)
        self.stats.record(self.stats.misses, "results", len(entries) - served)
        return results

    def merge_shard(self, shard_digest: str, entries: dict[str, Any]) -> Path:
        """Append-merge ``{job digest: result}`` into a shard.

        Existing rows are carried over as raw bytes (never
        deserialized); a digest present on both sides takes the new
        value.  The read-merge-replace cycle holds an exclusive lock so
        concurrent writers cannot overwrite each other's merges, and
        the final write is the usual temp-file + ``os.replace``.
        """
        path = self.shard_path(shard_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = path.parent / f".{shard_digest}.lock"
        with _merge_lock(lock_path):
            blobs: dict[bytes, bytes] = {}
            raw = self._read_shard_raw(shard_digest)
            if raw is not None:
                digests, offsets, ends, buf, base = raw
                starts = (offsets + base).tolist()
                stops = (ends + base).tolist()
                for digest, start, stop in zip(
                    digests.tolist(), starts, stops
                ):
                    blobs[digest] = buf[start:stop]
            for job_digest, obj in entries.items():
                blobs[bytes.fromhex(_validate_digest(job_digest))] = (
                    pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                )
            self._write_shard_raw(shard_digest, blobs)
        self.stats.record(self.stats.writes, "results", len(entries))
        return path

    # -- housekeeping ---------------------------------------------------

    def _directories(self) -> Iterator[Path]:
        for kind in ARTIFACT_KINDS:
            yield self.root / kind
        yield self.root / SHARD_DIR

    def _sweep_stale_tmps(self, directory: Path) -> int:
        """Unlink orphaned writer temp files past the age gate."""
        removed = 0
        cutoff = time.time() - self.stale_tmp_age_s
        for tmp in directory.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - racing writers/deleters
                pass
        return removed

    def clear(self) -> int:
        """Delete every stored artifact and shard; returns the number
        removed.

        Also sweeps orphaned writer temp files (age-gated, so a live
        writer's in-flight temp file is never yanked away) and shard
        lock files.
        """
        removed = 0
        for directory in self._directories():
            if not directory.is_dir():
                continue
            removed += self._sweep_stale_tmps(directory)
            for pattern in ("*.pkl", "*.shard", ".*.lock"):
                for path in directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:  # pragma: no cover - racing deleters
                        pass
        return removed

    def size_bytes(self) -> int:
        """Total bytes currently stored (best effort).

        Counts artifacts, shards, and any writer temp files still on
        disk — after sweeping temp files old enough to be orphans.
        """
        total = 0
        for directory in self._directories():
            if not directory.is_dir():
                continue
            self._sweep_stale_tmps(directory)
            for pattern in ("*.pkl", "*.shard", ".*.tmp"):
                for path in directory.glob(pattern):
                    try:
                        total += path.stat().st_size
                    except OSError:  # pragma: no cover - racing deleters
                        pass
        return total


ShardedResultsStore = ArtifactStore
"""Alias of :class:`ArtifactStore`: every store shards session results."""
