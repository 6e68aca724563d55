"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    DEFAULT_GRID,
    Viewport,
    equirect_distance,
    orientation_angles,
    orientation_vector,
)
from repro.prediction import angular_distance_deg
from repro.ptile import ViewingCenter, cluster_viewing_centers
from repro.qoe import QualityModel, alpha_from_behavior, frame_rate_factor
from repro.streaming import PlaybackBuffer, ThroughputBufferABR
from repro.traces import NetworkTrace
from repro.video import EncoderModel

yaw_st = st.floats(0.0, 359.999)
pitch_st = st.floats(-89.9, 89.9)
quality_st = st.sampled_from([1, 2, 3, 4, 5])
si_st = st.floats(15.0, 50.0)
ti_st = st.floats(3.0, 25.0)


class TestGeometryProperties:
    @given(yaw_st, pitch_st)
    def test_orientation_round_trip(self, yaw, pitch):
        yaw2, pitch2 = orientation_angles(orientation_vector(yaw, pitch))
        assert angular_distance_deg(yaw, pitch, yaw2, pitch2) < 1e-4

    @given(yaw_st, pitch_st, yaw_st, pitch_st)
    def test_angular_distance_bounds_and_symmetry(self, y1, p1, y2, p2):
        d = angular_distance_deg(y1, p1, y2, p2)
        assert 0.0 <= d <= 180.0
        assert d == pytest_approx(angular_distance_deg(y2, p2, y1, p1))

    @given(yaw_st, pitch_st, yaw_st, pitch_st)
    def test_equirect_distance_dominates_components(self, y1, p1, y2, p2):
        d = equirect_distance(y1, p1, y2, p2)
        dyaw = min(abs(y1 - y2), 360 - abs(y1 - y2))
        assert d >= dyaw - 1e-9
        assert d >= abs(p1 - p2) - 1e-9

    @given(yaw_st, pitch_st)
    def test_viewport_tiles_nonempty_and_contain_center(self, yaw, pitch):
        vp = Viewport(yaw, pitch)
        tiles = DEFAULT_GRID.viewport_tiles(vp)
        assert tiles
        assert DEFAULT_GRID.tile_at(yaw, pitch) in tiles

    @given(yaw_st, pitch_st)
    def test_viewport_area_bounded(self, yaw, pitch):
        vp = Viewport(yaw, pitch)
        assert 0 < vp.area <= 100.0 * 100.0 + 1e-6


class TestEncoderProperties:
    @given(quality_st, si_st, ti_st, st.floats(0.05, 1.0))
    def test_sizes_positive(self, quality, si, ti, area):
        enc = EncoderModel(noise_sigma=0.0)
        assert enc.region_size_mbit(quality, si, ti, area) > 0

    @given(si_st, ti_st, st.floats(0.05, 1.0))
    def test_size_monotone_in_quality(self, si, ti, area):
        enc = EncoderModel(noise_sigma=0.0)
        sizes = [enc.region_size_mbit(q, si, ti, area) for q in (1, 2, 3, 4, 5)]
        assert sizes == sorted(sizes)

    @given(quality_st, si_st, ti_st)
    def test_merged_region_never_beats_fig8_floor(self, quality, si, ti):
        """One region is never larger than the same area as 9 tiles."""
        enc = EncoderModel(noise_sigma=0.0)
        merged = enc.region_size_mbit(quality, si, ti, 9 / 32)
        tiled = enc.tiled_region_size_mbit(quality, si, ti, 9)
        assert merged < tiled

    @given(quality_st, si_st, ti_st, st.floats(1.0, 29.9))
    def test_frame_rate_reduction_shrinks(self, quality, si, ti, rate):
        enc = EncoderModel(noise_sigma=0.0)
        full = enc.region_size_mbit(quality, si, ti, 0.3)
        reduced = enc.region_size_mbit(
            quality, si, ti, 0.3, frame_rate=rate, fps=30.0
        )
        assert reduced < full


class TestQoEProperties:
    @given(si_st, ti_st, st.floats(0.0, 12.0))
    def test_qo_in_range(self, si, ti, b):
        qo = QualityModel().qo(si, ti, b)
        assert 0.0 <= qo <= 100.0

    @given(si_st, ti_st, st.floats(0.0, 6.0), st.floats(0.1, 6.0))
    def test_qo_monotone_in_bitrate(self, si, ti, b, db):
        model = QualityModel()
        assert model.qo(si, ti, b + db) >= model.qo(si, ti, b)

    @given(st.floats(0.0, 100.0), ti_st, st.floats(1.0, 30.0))
    def test_frame_factor_bounds(self, speed, ti, rate):
        alpha = alpha_from_behavior(speed, ti)
        factor = frame_rate_factor(rate, 30.0, alpha)
        assert 0.0 < factor <= 1.0

    @given(st.floats(0.1, 100.0), ti_st)
    def test_factor_monotone_in_alpha(self, speed, ti):
        slow = frame_rate_factor(21.0, 30.0, alpha_from_behavior(speed, ti))
        faster = frame_rate_factor(
            21.0, 30.0, alpha_from_behavior(speed * 2, ti)
        )
        assert faster >= slow - 1e-12


class TestClusteringProperties:
    @given(
        st.lists(
            st.tuples(yaw_st, st.floats(-60.0, 60.0)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_invariants(self, points):
        centers = [ViewingCenter(i, y, p) for i, (y, p) in enumerate(points)]
        clusters = cluster_viewing_centers(centers, delta=11.25, sigma=45.0)
        ids = sorted(u for c in clusters for u in c.user_ids())
        assert ids == list(range(len(points)))  # exactly-once partition
        for cluster in clusters:
            assert cluster.size >= 1

    @given(
        st.lists(
            st.tuples(yaw_st, st.floats(-60.0, 60.0)),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_recursive_split_respects_sigma(self, points):
        centers = [ViewingCenter(i, y, p) for i, (y, p) in enumerate(points)]
        clusters = cluster_viewing_centers(
            centers, delta=11.25, sigma=45.0, recursive_split=True
        )
        for cluster in clusters:
            assert cluster.diameter() <= 45.0 + 1e-9


class TestBufferProperties:
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30))
    def test_buffer_level_invariants(self, downloads):
        buf = PlaybackBuffer(threshold_s=3.0, segment_s=1.0)
        for dl in downloads:
            event = buf.advance(dl)
            assert event.stall_s >= 0.0
            assert event.wait_s >= 0.0
            assert 0.0 <= event.level_after_s <= 4.0 + 1e-9

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30))
    def test_stall_only_when_download_exceeds_buffer(self, downloads):
        buf = PlaybackBuffer()
        for dl in downloads:
            event = buf.advance(dl)
            if event.stall_s > 0:
                assert dl > event.level_before_s - 1e-12


class TestAbrProperties:
    @given(st.floats(0.5, 50.0), st.floats(0.0, 3.0))
    def test_choice_always_valid(self, bandwidth, buffer_s):
        abr = ThroughputBufferABR()
        sizes = [0.5 * 2.0**q for q in (1, 2, 3, 4, 5)]
        pick = abr.choose_quality(sizes, bandwidth, buffer_s)
        assert pick in (1, 2, 3, 4, 5)

    @given(st.floats(0.5, 50.0), st.floats(0.0, 3.0))
    def test_chosen_fits_budget_or_is_lowest(self, bandwidth, buffer_s):
        abr = ThroughputBufferABR()
        sizes = [0.5 * 2.0**q for q in (1, 2, 3, 4, 5)]
        pick = abr.choose_quality(sizes, bandwidth, buffer_s)
        budget = abr.budget_mbit(bandwidth, buffer_s)
        assert pick == 1 or sizes[pick - 1] <= budget


class TestNetworkProperties:
    @given(
        st.lists(st.floats(0.5, 20.0), min_size=1, max_size=40),
        st.floats(0.0, 50.0),
        st.floats(0.01, 30.0),
    )
    def test_download_time_consistent(self, bandwidths, start, size):
        trace = NetworkTrace("x", np.array(bandwidths))
        dl = trace.download_time(size, start)
        assert dl > 0
        realized = size / dl
        assert trace.min_mbps - 1e-6 <= realized <= trace.max_mbps + 1e-6

    @given(
        st.lists(st.floats(0.5, 20.0), min_size=1, max_size=20),
        st.floats(0.0, 10.0),
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
    )
    def test_download_time_additive(self, bandwidths, start, size1, size2):
        """Downloading a+b from t equals downloading a, then b."""
        trace = NetworkTrace("x", np.array(bandwidths))
        whole = trace.download_time(size1 + size2, start)
        first = trace.download_time(size1, start)
        second = trace.download_time(size2, start + first)
        assert whole == pytest_approx(first + second, rel=1e-6, abs=1e-6)


def pytest_approx(value, rel=1e-9, abs=1e-9):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs)


class TestQuaternionProperties:
    @given(yaw_st, pitch_st)
    def test_angle_quaternion_round_trip(self, yaw, pitch):
        from repro.geometry import angles_to_quaternion, quaternion_to_angles

        yaw2, pitch2 = quaternion_to_angles(angles_to_quaternion(yaw, pitch))
        assert angular_distance_deg(yaw, pitch, yaw2, pitch2) < 1e-4


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.floats(0.1, 3.0)),
            min_size=1,
            max_size=60,
        ),
        st.floats(1.0, 10.0),
        st.sampled_from(["lru", "lfu"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_cache_invariants(self, requests, capacity, policy):
        from repro.streaming import EdgeCache

        cache = EdgeCache(capacity_mbit=capacity, policy=policy)
        for key, size in requests:
            cache.request(key, size)
            assert 0.0 <= cache.used_mbit <= capacity + 1e-9

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.1, 1.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_backhaul_never_exceeds_requested(self, requests):
        from repro.streaming import simulate_cache

        stats = simulate_cache(requests, capacity_mbit=3.0)
        assert stats.bytes_backhaul_mbit <= stats.bytes_requested_mbit + 1e-9
        assert 0 <= stats.hits <= stats.requests

    # A small key pool with widely varying sizes: the same key is
    # frequently re-requested at a different size, exercising the
    # stale-size re-admission path (grow-to-evict, shrink, drop when
    # the new size no longer fits).
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.floats(0.0, 4.0)),
            min_size=1,
            max_size=80,
        ),
        st.floats(1.0, 8.0),
        st.sampled_from(["lru", "lfu"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_consistent_under_resizes(
        self, requests, capacity, policy
    ):
        from repro.streaming import EdgeCache

        cache = EdgeCache(capacity_mbit=capacity, policy=policy)
        for key, size in requests:
            cache.request(key, size)
            # used_mbit is exactly the sum of resident object sizes.
            assert cache.used_mbit == pytest_approx(
                sum(cache._objects.values()), rel=1e-9, abs=1e-9
            )
            assert cache.used_mbit <= capacity + 1e-9
            # The frequency table tracks resident objects only.
            assert set(cache._frequency) <= set(cache._objects)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.floats(0.0, 4.0)),
            min_size=1,
            max_size=80,
        ),
        st.floats(1.0, 8.0),
        st.sampled_from(["lru", "lfu"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stats_ratios_bounded(self, requests, capacity, policy):
        from repro.streaming import simulate_cache

        stats = simulate_cache(
            requests, capacity_mbit=capacity, policy=policy
        )
        assert 0.0 <= stats.hit_ratio <= 1.0
        assert 0.0 <= stats.byte_hit_ratio <= 1.0
        assert stats.requests == len(requests)
