"""Unit tests for session metrics aggregation.

The columnar :class:`SessionResult` is checked against the record-loop
oracle of ``tests/metrics_reference.py``: every aggregate equal bit for
bit and of the same Python type, and the records rebuilt from the
columns equal the input records field by field, both on a freshly built
result and on one that went through pickle.
"""

import dataclasses
import hashlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.artifacts import RESULTS_SCHEMA_VERSION
from repro.power import SegmentEnergy, TilingScheme
from repro.qoe import SegmentQoE
from repro.experiments.fig9 import EnergyComparison
from repro.streaming import SegmentRecord, SessionResult, mean_sessions

from .metrics_reference import (
    AGGREGATES,
    RecordLoopResult,
    reference_mean_sessions,
)


def make_record(index=0, quality=3, stall=0.0, used_ptile=False,
                energy=(1.0, 0.5, 0.2), qo=80.0):
    return SegmentRecord(
        index=index,
        quality=quality,
        frame_rate=30.0,
        size_mbit=3.0,
        download_time_s=0.7,
        wait_s=0.0,
        stall_s=stall,
        buffer_before_s=2.0,
        coverage=0.9,
        qo_effective=qo,
        qoe=SegmentQoE(qo, 1.0, 0.0),
        energy=SegmentEnergy(*energy),
        decode_scheme=TilingScheme.CTILE,
        used_ptile=used_ptile,
    )


def make_session(n=4, **kwargs):
    return SessionResult("ctile", 1, 0, "Pixel 3", "trace2", [
        make_record(index=i, **kwargs) for i in range(n)
    ])


class TestSessionResult:
    def test_energy_totals(self):
        session = make_session(3)
        assert session.total_energy_j == pytest.approx(3 * 1.7)
        assert session.energy_per_segment_j == pytest.approx(1.7)

    def test_session_qoe(self):
        session = make_session(2)
        assert session.mean_qoe == pytest.approx(79.0)  # 80 - 1 variation

    def test_mean_statistics(self):
        session = make_session(5, quality=4)
        assert session.mean_quality_level == 4.0
        assert session.mean_frame_rate == 30.0
        assert session.mean_coverage == pytest.approx(0.9)

    def test_rebuffer_count_counts_every_recorded_stall(self):
        # A first segment records a stall only when the config counts
        # the startup delay; then it is a rebuffering event like any.
        session = SessionResult("c", 1, 0, "d", "n", [
            make_record(index=0, stall=1.0),
            make_record(index=1, stall=0.5),
            make_record(index=2, stall=0.0),
        ])
        assert session.rebuffer_count == 2
        assert session.total_stall_s == pytest.approx(1.5)

    def test_ptile_hit_rate(self):
        session = SessionResult("p", 1, 0, "d", "n", [
            make_record(index=0, used_ptile=True),
            make_record(index=1, used_ptile=False),
        ])
        assert session.ptile_hit_rate == 0.5

    def test_empty_session_guards(self):
        session = SessionResult("c", 1, 0, "d", "n")
        with pytest.raises(ValueError):
            session.energy_per_segment_j


class TestAggregation:
    def test_mean_sessions_keys(self):
        metrics = mean_sessions([make_session(), make_session()])
        for key in ("energy_j", "qoe", "quality_level", "rebuffer_count"):
            assert key in metrics

    def test_mean_sessions_values(self):
        a = make_session(2, energy=(1.0, 0.0, 0.0))
        b = make_session(2, energy=(3.0, 0.0, 0.0))
        metrics = mean_sessions([a, b])
        assert metrics["transmission_j"] == pytest.approx(4.0)
        assert metrics["energy_per_segment_j"] == pytest.approx(2.0)

    def test_mean_sessions_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_sessions([])

    # The paper normalizes energy and QoE by Ctile (Fig. 9(c), 11(c)).
    @staticmethod
    def _energy(per_scheme):
        return EnergyComparison(
            device_name="pixel3",
            per_video={("trace1", scheme, 1): value
                       for scheme, value in per_scheme.items()},
            breakdown={}, video_ids=(1,), traces=("trace1",),
            schemes=tuple(per_scheme),
        )

    def test_normalize_by(self):
        normalized = self._energy({"ctile": 10.0, "ours": 5.0}).normalized()
        assert normalized["ours"] == 0.5
        assert normalized["ctile"] == 1.0

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            self._energy({"ours": 1.0}).normalized()

    def test_normalize_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            self._energy({"ctile": 0.0, "ours": 1.0}).normalized()


# ----------------------------------------------------------------------
# Columnar result vs the record-loop oracle
# ----------------------------------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300,
])
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   EDGE_FLOATS)
SMALL_INTS = st.integers(0, 5)

records_st = st.builds(
    SegmentRecord,
    index=st.one_of(SMALL_INTS, INT64),
    quality=st.one_of(SMALL_INTS, INT64, FLOATS),
    frame_rate=FLOATS,
    size_mbit=FLOATS,
    download_time_s=FLOATS,
    wait_s=FLOATS,
    stall_s=FLOATS,
    buffer_before_s=FLOATS,
    coverage=FLOATS,
    qo_effective=FLOATS,
    qoe=st.builds(SegmentQoE, FLOATS, FLOATS, FLOATS),
    energy=st.builds(SegmentEnergy, FLOATS, FLOATS, FLOATS),
    decode_scheme=st.sampled_from(TilingScheme),
    used_ptile=st.booleans(),
    edge_hit_mbit=FLOATS,
    retries=st.one_of(SMALL_INTS, INT64),
    timeouts=st.one_of(SMALL_INTS, INT64),
    degraded_level=st.one_of(st.integers(0, 3), INT64),
    expected_coverage=FLOATS,
    uncertainty_deg=FLOATS,
)


def same(a, b) -> bool:
    """Equal values of the same type; floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def outcome(obj, name):
    try:
        return getattr(obj, name)
    except ValueError:
        return ValueError


def assert_matches_oracle(result: SessionResult, records: list) -> None:
    oracle = RecordLoopResult(records)
    for name in AGGREGATES:
        got, want = outcome(result, name), outcome(oracle, name)
        assert same(got, want), (name, got, want)
    assert same(outcome(result.session_qoe, "mean_q"),
                outcome(oracle.session_qoe, "mean_q"))
    rebuilt = result.records
    assert isinstance(rebuilt, list)
    assert rebuilt == records
    for got, want in zip(rebuilt, records):
        assert same(got, want), (got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge values overflow
class TestColumnarOracle:
    @given(records=st.lists(records_st, max_size=30))
    @example(records=[])
    @example(records=[make_record()])
    @example(records=[make_record(index=i, quality=q)
                      for i, q in enumerate([1, 2.5, 3, 4.75])])
    @settings(max_examples=150, deadline=None)
    def test_aggregates_and_records_match_oracle(self, records):
        fresh = SessionResult("s", 8, 3, "Pixel 3", "trace1", records)
        assert_matches_oracle(fresh, records)
        blob = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        unpickled = pickle.loads(blob)
        assert_matches_oracle(unpickled, records)
        assert unpickled == fresh
        assert pickle.dumps(unpickled, protocol=pickle.HIGHEST_PROTOCOL) == blob
        assert (unpickled.scheme_name, unpickled.video_id, unpickled.user_id,
                unpickled.device_name, unpickled.network_name) == (
            "s", 8, 3, "Pixel 3", "trace1")

    @given(sessions=st.lists(st.lists(records_st, min_size=1, max_size=8),
                             min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_mean_sessions_matches_oracle(self, sessions):
        results = [
            pickle.loads(pickle.dumps(SessionResult("s", 1, u, "d", "n", r)))
            for u, r in enumerate(sessions)
        ]
        got = mean_sessions(results)
        want = reference_mean_sessions([RecordLoopResult(r) for r in sessions])
        assert got.keys() == want.keys()
        for key in want:
            assert same(got[key], want[key]), (key, got[key], want[key])

    def test_seeded_sessions_match_oracle(self):
        """Floats of mixed sign and magnitude, where the order of the
        additions decides the last bits (a pairwise np.sum of the energy
        components differs from the in-order sum on most sessions)."""
        rng = np.random.default_rng(2017)

        def value():
            return float(rng.standard_normal() * 10.0 ** rng.integers(-6, 6))

        for n in rng.integers(1, 40, size=200).tolist():
            records = [
                SegmentRecord(
                    index=i, quality=int(rng.integers(1, 6)),
                    frame_rate=value(), size_mbit=value(),
                    download_time_s=value(), wait_s=value(),
                    stall_s=value(), buffer_before_s=value(),
                    coverage=value(), qo_effective=value(),
                    qoe=SegmentQoE(value(), value(), value()),
                    energy=SegmentEnergy(value(), value(), value()),
                    decode_scheme=TilingScheme.PTILE,
                    used_ptile=bool(rng.integers(2)),
                    edge_hit_mbit=value(), retries=int(rng.integers(3)),
                    timeouts=int(rng.integers(3)),
                    degraded_level=int(rng.integers(4)),
                    expected_coverage=value(), uncertainty_deg=value(),
                )
                for i in range(n)
            ]
            result = pickle.loads(pickle.dumps(
                SessionResult("s", 1, 0, "d", "n", records)
            ))
            assert_matches_oracle(result, records)

    def test_long_session_of_huge_int_levels(self):
        """Past numpy's 8192-element reduction buffer, the mean of int
        levels (cast chunk by chunk) and of the same values as floats
        can differ: int levels keep their int64 column."""
        rng = np.random.default_rng(7)
        levels = rng.integers(-(2**62), 2**62, size=9000).tolist()
        records = [make_record(index=i, quality=q)
                   for i, q in enumerate(levels)]
        result = pickle.loads(pickle.dumps(
            SessionResult("s", 1, 0, "d", "n", records)
        ))
        want = RecordLoopResult(records).mean_quality_level
        assert same(result.mean_quality_level, want)
        assert [r.quality for r in result.records] == levels

    def test_every_tiling_scheme_and_quality_type_round_trips(self):
        records = [
            make_record(index=i, quality=q)
            for i, q in enumerate([3, 2.5, 1, 4.0])
        ]
        records = [
            dataclasses.replace(r, decode_scheme=scheme)
            for r, scheme in zip(records, TilingScheme)
        ]
        result = pickle.loads(pickle.dumps(
            SessionResult("s", 1, 0, "d", "n", records)
        ))
        assert [r.decode_scheme for r in result.records] == list(TilingScheme)
        assert [type(r.quality) for r in result.records] == [
            int, float, int, float]
        assert_matches_oracle(result, records)

    def test_empty_session_keeps_its_edge_cases(self):
        for result in (SessionResult("c", 1, 0, "d", "n"),
                       pickle.loads(pickle.dumps(
                           SessionResult("c", 1, 0, "d", "n")))):
            assert result.num_segments == 0
            assert result.records == []
            assert result.total_stall_s == 0
            assert type(result.total_stall_s) is int
            assert result.energy == SegmentEnergy.zero()
            with pytest.raises(ValueError):
                result.mean_qoe

    def test_records_are_built_once_and_only_on_access(self, monkeypatch):
        result = pickle.loads(pickle.dumps(make_session(5)))
        calls = []
        original = SessionResult._materialize

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SessionResult, "_materialize", counting)
        mean_sessions([result])
        result.energy, result.session_qoe, result.ptile_hit_rate
        assert not calls
        first = result.records
        assert result.records is first
        assert len(calls) == 1

    def test_row_encoding_is_pinned(self):
        """Result shards store this encoding: a change to it strands
        every cached row, so it must come with a results-schema bump
        (and a new golden here)."""
        blob = pickle.dumps(make_session(3, quality=2), protocol=5)
        assert RESULTS_SCHEMA_VERSION == 6
        assert hashlib.sha256(blob).hexdigest() == (
            "7d9b1deecaeee86e3903186031bf2ae253a6993d144ab11d9269720613f49079"
        )

    def test_equality_is_header_and_column_bits(self):
        a = make_session(3)
        assert a == pickle.loads(pickle.dumps(a))
        assert a != make_session(4)
        assert a != SessionResult("other", 1, 0, "Pixel 3", "trace2",
                                  a.records)
        assert a != make_session(3, qo=79.0)
