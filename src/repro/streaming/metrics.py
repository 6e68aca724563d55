"""Session results and aggregation.

A :class:`SessionResult` holds the per-segment outcome of one simulated
streaming session (one user watching one video over one network trace on
one device) and exposes the aggregates the paper reports: total energy
and its three components (Fig. 9), session QoE and its three components
(Fig. 11), rebuffering counts, and quality statistics.

The per-segment values are stored as two numpy column blocks, a float64
block and an int64 block with one row per :class:`SegmentRecord` field
(column-major: each field's values are contiguous).  The columns are a
result's only representation: every aggregate reads them, a pickled
result is its header plus the raw column bytes (one ``np.frombuffer``
per block to decode), and :attr:`SessionResult.records` builds the
:class:`SegmentRecord` objects from the columns on first access only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..power.energy import SegmentEnergy
from ..power.models import TilingScheme
from ..qoe.metrics import SegmentQoE, SessionQoE

__all__ = ["SegmentRecord", "SessionResult", "mean_sessions"]


@dataclass(frozen=True)
class SegmentRecord:
    """Everything measured for one downloaded segment.

    ``quality`` is the delivered bitrate level: an int for the tiled
    schemes, a float where the level is fractional (Nontile's dense
    ladder, a resilience rung between two levels).
    """

    index: int
    quality: float
    frame_rate: float
    size_mbit: float
    download_time_s: float
    wait_s: float
    stall_s: float
    buffer_before_s: float
    coverage: float
    qo_effective: float
    qoe: SegmentQoE
    energy: SegmentEnergy
    decode_scheme: TilingScheme
    used_ptile: bool
    # Bytes of this segment served by the edge cache (0 without an
    # attached EdgeHitModel); the miss remainder crossed the backhaul.
    edge_hit_mbit: float = 0.0
    # Resilience accounting (all zero on the ideal, fault-free path):
    # download attempts beyond the first, attempts aborted by the
    # playback deadline, and the delivered rung of the degradation
    # ladder as an int (repro.resilience.policy.DegradationLevel:
    # 0=FULL, 1=REDUCED, 2=LOW_LAYER, 3=SKIPPED).
    retries: int = 0
    timeouts: int = 0
    degraded_level: int = 0
    # Uncertainty accounting (robust planning; trusting defaults on the
    # point-prediction paths): the planner's expected viewport coverage
    # of the downloaded region and the angular error scale (degrees) it
    # planned against.
    expected_coverage: float = 1.0
    uncertainty_deg: float = 0.0


# Column layout.  Float rows: ``quality`` holds float(quality) for every
# segment, int rows hold the exact int level and a flag naming the
# segments whose level was a float, so each value keeps its Python type.
# Cached results are stored in this layout: changing the rows, their
# order or ``_restore`` needs a RESULTS_SCHEMA_VERSION bump.
_FLOAT_COLUMNS = (
    "quality", "frame_rate", "size_mbit", "download_time_s", "wait_s",
    "stall_s", "buffer_before_s", "coverage", "qo_effective",
    "qo", "variation_penalty", "rebuffer_penalty",
    "transmission_j", "decoding_j", "rendering_j",
    "edge_hit_mbit", "expected_coverage", "uncertainty_deg",
)
_INT_COLUMNS = (
    "index", "quality", "float_quality", "decode_scheme", "used_ptile",
    "retries", "timeouts", "degraded_level",
)
_F = {name: i for i, name in enumerate(_FLOAT_COLUMNS)}
_I = {name: i for i, name in enumerate(_INT_COLUMNS)}
_QOE = slice(_F["qo"], _F["rebuffer_penalty"] + 1)
_ENERGY = slice(_F["transmission_j"], _F["rendering_j"] + 1)
_FLOAT = np.dtype("<f8")
_INT = np.dtype("<i8")
_SCHEMES = tuple(TilingScheme)
_SCHEME_CODE = {scheme: code for code, scheme in enumerate(_SCHEMES)}


def _float_row(r: SegmentRecord) -> tuple:
    return (
        r.quality, r.frame_rate, r.size_mbit, r.download_time_s, r.wait_s,
        r.stall_s, r.buffer_before_s, r.coverage, r.qo_effective,
        r.qoe.qo, r.qoe.variation_penalty, r.qoe.rebuffer_penalty,
        r.energy.transmission_j, r.energy.decoding_j, r.energy.rendering_j,
        r.edge_hit_mbit, r.expected_coverage, r.uncertainty_deg,
    )


def _int_row(r: SegmentRecord) -> tuple:
    float_quality = not isinstance(r.quality, (int, np.integer))
    return (
        r.index, 0 if float_quality else r.quality, float_quality,
        _SCHEME_CODE[r.decode_scheme], r.used_ptile,
        r.retries, r.timeouts, r.degraded_level,
    )


class SessionResult:
    """Aggregated outcome of one streaming session.

    Built from the session's :class:`SegmentRecord` list (in segment
    order); it keeps only the header and the per-segment columns.
    Aggregates add their terms in segment order, exactly as a loop over
    the records would (energy components one after another, QoE means
    and stall totals through the builtin ``sum``), so a result decoded
    from its columns equals the freshly built one bit for bit.
    """

    __slots__ = ("scheme_name", "video_id", "user_id", "device_name",
                 "network_name", "_floats", "_ints", "_records")

    def __init__(
        self,
        scheme_name: str,
        video_id: int,
        user_id: int,
        device_name: str,
        network_name: str,
        records: Iterable[SegmentRecord] = (),
    ) -> None:
        records = list(records)
        floats = np.array([_float_row(r) for r in records], dtype=_FLOAT)
        ints = np.array([_int_row(r) for r in records], dtype=_INT)
        self._init(
            scheme_name, video_id, user_id, device_name, network_name,
            floats.reshape(-1, len(_FLOAT_COLUMNS)).T.copy(),
            ints.reshape(-1, len(_INT_COLUMNS)).T.copy(),
        )

    def _init(self, scheme_name, video_id, user_id, device_name,
              network_name, floats: np.ndarray, ints: np.ndarray) -> None:
        self.scheme_name = scheme_name
        self.video_id = video_id
        self.user_id = user_id
        self.device_name = device_name
        self.network_name = network_name
        self._floats = floats  # (len(_FLOAT_COLUMNS), n), C order
        self._ints = ints  # (len(_INT_COLUMNS), n), C order
        self._records: list[SegmentRecord] | None = None

    def __reduce__(self):
        return _restore, (
            self.scheme_name, self.video_id, self.user_id, self.device_name,
            self.network_name, self._floats.tobytes(), self._ints.tobytes(),
        )

    def __eq__(self, other: object) -> bool:
        """Same header and bit-identical columns."""
        if not isinstance(other, SessionResult):
            return NotImplemented
        return (
            self._header() == other._header()
            and self._floats.tobytes() == other._floats.tobytes()
            and self._ints.tobytes() == other._ints.tobytes()
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(scheme_name={self.scheme_name!r},"
            f" video_id={self.video_id!r}, user_id={self.user_id!r},"
            f" device_name={self.device_name!r},"
            f" network_name={self.network_name!r},"
            f" num_segments={self.num_segments})"
        )

    def _header(self) -> tuple:
        return (self.scheme_name, self.video_id, self.user_id,
                self.device_name, self.network_name)

    @property
    def records(self) -> list[SegmentRecord]:
        """The per-segment records, built from the columns on first
        access and cached (mutating the list does not change the
        result)."""
        if self._records is None:
            self._records = self._materialize()
        return self._records

    def _materialize(self) -> list[SegmentRecord]:
        F, I = _F, _I
        records = []
        for f, i in zip(self._floats.T.tolist(), self._ints.T.tolist()):
            records.append(SegmentRecord(
                index=i[I["index"]],
                quality=(f[F["quality"]] if i[I["float_quality"]]
                         else i[I["quality"]]),
                frame_rate=f[F["frame_rate"]],
                size_mbit=f[F["size_mbit"]],
                download_time_s=f[F["download_time_s"]],
                wait_s=f[F["wait_s"]],
                stall_s=f[F["stall_s"]],
                buffer_before_s=f[F["buffer_before_s"]],
                coverage=f[F["coverage"]],
                qo_effective=f[F["qo_effective"]],
                qoe=SegmentQoE(*f[_QOE]),
                energy=SegmentEnergy(*f[_ENERGY]),
                decode_scheme=_SCHEMES[i[I["decode_scheme"]]],
                used_ptile=bool(i[I["used_ptile"]]),
                edge_hit_mbit=f[F["edge_hit_mbit"]],
                retries=i[I["retries"]],
                timeouts=i[I["timeouts"]],
                degraded_level=i[I["degraded_level"]],
                expected_coverage=f[F["expected_coverage"]],
                uncertainty_deg=f[F["uncertainty_deg"]],
            ))
        return records

    def _f(self, name: str) -> np.ndarray:
        return self._floats[_F[name]]

    def _i(self, name: str) -> np.ndarray:
        return self._ints[_I[name]]

    @property
    def num_segments(self) -> int:
        return self._ints.shape[1]

    # ------------------------------------------------------------------
    # Energy (Fig. 9 / Fig. 10)
    # ------------------------------------------------------------------

    @property
    def energy(self) -> SegmentEnergy:
        """Total session energy with its three components (joules)."""
        if not self.num_segments:
            return SegmentEnergy.zero()
        # cumsum adds in segment order, as SegmentEnergy.__add__ from
        # zero would (np.sum would add pairwise); 0.0 + keeps its sign
        # rule for an all -0.0 column.
        totals = 0.0 + np.cumsum(self._floats[_ENERGY], axis=1)[:, -1]
        return SegmentEnergy(*totals.tolist())

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_j

    @property
    def energy_per_segment_j(self) -> float:
        self._require_records()
        return self.total_energy_j / self.num_segments

    # ------------------------------------------------------------------
    # QoE (Fig. 11)
    # ------------------------------------------------------------------

    @property
    def session_qoe(self) -> SessionQoE:
        return SessionQoE([
            SegmentQoE(*row) for row in self._floats[_QOE].T.tolist()
        ])

    def _mean_of(self, values: np.ndarray) -> float:
        self._require_records()
        return sum(values.tolist()) / self.num_segments

    @property
    def mean_qoe(self) -> float:
        """Session QoE: mean Eq. 2 value over all segments."""
        q = self._f("qo") - self._f("variation_penalty")
        return self._mean_of(q - self._f("rebuffer_penalty"))

    @property
    def mean_qo(self) -> float:
        """Average video quality (first QoE component in Fig. 11(d))."""
        return self._mean_of(self._f("qo"))

    @property
    def mean_variation(self) -> float:
        """Average quality-variation impairment."""
        return self._mean_of(self._f("variation_penalty"))

    @property
    def mean_rebuffer(self) -> float:
        """Average rebuffering impairment."""
        return self._mean_of(self._f("rebuffer_penalty"))

    @property
    def mean_quality_level(self) -> float:
        self._require_records()
        # The dtype np.mean would infer from the levels themselves.
        if self._i("float_quality").any():
            return float(np.mean(self._f("quality")))
        return float(np.mean(self._i("quality")))

    @property
    def mean_frame_rate(self) -> float:
        self._require_records()
        return float(np.mean(self._f("frame_rate")))

    @property
    def mean_coverage(self) -> float:
        self._require_records()
        return float(np.mean(self._f("coverage")))

    # ------------------------------------------------------------------
    # Stalls
    # ------------------------------------------------------------------

    @property
    def total_stall_s(self) -> float:
        return sum(self._f("stall_s").tolist())

    @property
    def rebuffer_count(self) -> int:
        """Stalled segments, excluding the cold-start first download."""
        return int(np.count_nonzero(
            (self._f("stall_s") > 0) & (self._i("index") > 0)
        ))

    @property
    def ptile_hit_rate(self) -> float:
        self._require_records()
        return float(np.mean(self._i("used_ptile").astype(bool)))

    # ------------------------------------------------------------------
    # Edge cache
    # ------------------------------------------------------------------

    @property
    def total_edge_hit_mbit(self) -> float:
        """Bytes the edge cache served across the whole session."""
        return sum(self._f("edge_hit_mbit").tolist())

    @property
    def total_size_mbit(self) -> float:
        """Bytes downloaded across the whole session."""
        return sum(self._f("size_mbit").tolist())

    @property
    def edge_hit_fraction(self) -> float:
        """Fraction of downloaded bytes served at the edge."""
        total = self.total_size_mbit
        if total <= 0:
            return 0.0
        return self.total_edge_hit_mbit / total

    # ------------------------------------------------------------------
    # Resilience (fault-injected sessions; all zero on the ideal path)
    # ------------------------------------------------------------------

    @property
    def total_retries(self) -> int:
        """Download attempts beyond the first, summed over segments."""
        return sum(self._i("retries").tolist())

    @property
    def total_timeouts(self) -> int:
        """Attempts aborted by the playback deadline, summed."""
        return sum(self._i("timeouts").tolist())

    @property
    def degraded_segment_count(self) -> int:
        """Segments delivered below the scheme's planned rung."""
        return int(np.count_nonzero(self._i("degraded_level") > 0))

    @property
    def skipped_segment_count(self) -> int:
        """Segments skipped outright (DegradationLevel.SKIPPED)."""
        return int(np.count_nonzero(self._i("degraded_level") >= 3))

    # ------------------------------------------------------------------
    # Uncertainty (robust planning; trusting defaults elsewhere)
    # ------------------------------------------------------------------

    @property
    def mean_expected_coverage(self) -> float:
        """Mean planner-expected viewport coverage across segments."""
        self._require_records()
        return float(np.mean(self._f("expected_coverage")))

    @property
    def mean_uncertainty_deg(self) -> float:
        """Mean angular error scale (degrees) planned against."""
        self._require_records()
        return float(np.mean(self._f("uncertainty_deg")))

    def _require_records(self) -> None:
        if not self.num_segments:
            raise ValueError("session has no records")


def _restore(scheme_name, video_id, user_id, device_name, network_name,
             floats: bytes, ints: bytes) -> SessionResult:
    """Unpickle a :class:`SessionResult` from its header and raw column
    bytes: one ``np.frombuffer`` per block, no per-segment objects."""
    result = SessionResult.__new__(SessionResult)
    result._init(
        scheme_name, video_id, user_id, device_name, network_name,
        np.frombuffer(floats, dtype=_FLOAT).reshape(len(_FLOAT_COLUMNS), -1),
        np.frombuffer(ints, dtype=_INT).reshape(len(_INT_COLUMNS), -1),
    )
    return result


def mean_sessions(results: list[SessionResult]) -> dict[str, float]:
    """Average the headline metrics over a batch of sessions."""
    if not results:
        raise ValueError("no sessions to aggregate")
    return {
        "energy_j": float(np.mean([r.total_energy_j for r in results])),
        "energy_per_segment_j": float(
            np.mean([r.energy_per_segment_j for r in results])
        ),
        "transmission_j": float(np.mean([r.energy.transmission_j for r in results])),
        "decoding_j": float(np.mean([r.energy.decoding_j for r in results])),
        "rendering_j": float(np.mean([r.energy.rendering_j for r in results])),
        "qoe": float(np.mean([r.mean_qoe for r in results])),
        "qo": float(np.mean([r.mean_qo for r in results])),
        "variation": float(np.mean([r.mean_variation for r in results])),
        "rebuffer_penalty": float(
            np.mean([r.mean_rebuffer for r in results])
        ),
        "rebuffer_count": float(np.mean([r.rebuffer_count for r in results])),
        "stall_s": float(np.mean([r.total_stall_s for r in results])),
        "quality_level": float(np.mean([r.mean_quality_level for r in results])),
        "frame_rate": float(np.mean([r.mean_frame_rate for r in results])),
        "coverage": float(np.mean([r.mean_coverage for r in results])),
    }
