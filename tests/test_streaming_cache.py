"""Unit tests for the edge-cache extension."""

import dataclasses

import pytest

from repro.streaming import (
    CacheStats,
    CacheTenant,
    EdgeCache,
    EdgeHitModel,
    SharedCacheResult,
    build_edge_hit_model,
    build_shared_edge_hit_models,
    interleave_tenant_requests,
    ptile_vs_ctile_caching,
    simulate_cache,
)


class TestEdgeCache:
    def test_miss_then_hit(self):
        cache = EdgeCache(capacity_mbit=10.0)
        assert not cache.request("a", 1.0)
        assert cache.request("a", 1.0)

    def test_lru_eviction(self):
        cache = EdgeCache(capacity_mbit=2.0, policy="lru")
        cache.request("a", 1.0)
        cache.request("b", 1.0)
        cache.request("a", 1.0)  # refresh a
        cache.request("c", 1.0)  # evicts b (least recently used)
        assert cache.request("a", 1.0)
        assert not cache.request("b", 1.0)

    def test_lfu_eviction(self):
        cache = EdgeCache(capacity_mbit=2.0, policy="lfu")
        for _ in range(3):
            cache.request("hot", 1.0)
        cache.request("cold", 1.0)
        cache.request("new", 1.0)  # evicts cold (lowest frequency)
        assert cache.request("hot", 1.0)
        assert not cache.request("cold", 1.0)

    def test_oversized_object_not_stored(self):
        cache = EdgeCache(capacity_mbit=1.0)
        assert not cache.request("big", 5.0)
        assert not cache.request("big", 5.0)  # still a miss
        assert cache.used_mbit == 0.0

    def test_capacity_respected(self):
        cache = EdgeCache(capacity_mbit=3.0)
        for i in range(10):
            cache.request(f"o{i}", 1.0)
        assert cache.used_mbit <= 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity_mbit=0.0)
        with pytest.raises(ValueError):
            EdgeCache(capacity_mbit=1.0, policy="fifo")
        with pytest.raises(ValueError):
            EdgeCache(capacity_mbit=1.0).request("a", -1.0)

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_frequency_table_bounded_on_long_streams(self, policy):
        """Regression: _frequency must not grow with the stream length.

        It used to keep one entry per key ever requested — including
        long-evicted keys and oversized objects that were never stored —
        leaking memory over long request streams and skewing LFU toward
        keys whose popularity came from an evicted tenure.
        """
        cache = EdgeCache(capacity_mbit=4.0, policy=policy)
        for i in range(1000):  # stream far longer than capacity
            cache.request(f"obj-{i}", 1.0)
        cache.request("oversized", 9.0)  # served, never stored
        assert len(cache._frequency) <= len(cache._objects)
        assert "oversized" not in cache._frequency
        assert cache.used_mbit <= 4.0

    def test_lfu_eviction_ignores_evicted_tenure(self):
        """An evicted key re-enters with a fresh count, not its old one."""
        cache = EdgeCache(capacity_mbit=2.0, policy="lfu")
        for _ in range(5):
            cache.request("hot", 1.0)
        cache.request("filler", 1.0)
        cache.request("evictor", 1.0)  # evicts filler (freq 1 < 5)
        assert not cache.request("filler", 1.0)  # re-admitted (evictor out)
        # filler's count restarts at 1 for the new tenure; before the
        # fix it would have carried over to 2.
        assert cache._frequency["filler"] == 1

    def test_hit_with_changed_size_updates_accounting(self):
        """Regression: a resident key re-requested at a new size must
        update the stored size and _used_mbit (they used to go stale)."""
        cache = EdgeCache(capacity_mbit=10.0)
        assert not cache.request("a", 2.0)
        assert cache.request("a", 5.0)  # still a hit, size updated
        assert cache.used_mbit == pytest.approx(5.0)
        assert cache._objects["a"] == pytest.approx(5.0)
        assert cache.request("a", 1.0)  # shrink updates too
        assert cache.used_mbit == pytest.approx(1.0)

    def test_hit_with_grown_size_evicts_to_fit(self):
        cache = EdgeCache(capacity_mbit=10.0, policy="lru")
        cache.request("a", 4.0)
        cache.request("b", 4.0)
        assert cache.request("a", 8.0)  # grows; must evict b to fit
        assert cache.used_mbit == pytest.approx(8.0)
        assert not cache.request("b", 4.0)  # b was evicted
        assert cache.used_mbit <= 10.0

    def test_hit_with_oversized_new_size_drops_object(self):
        cache = EdgeCache(capacity_mbit=10.0)
        cache.request("a", 2.0)
        assert not cache.request("a", 11.0)  # no longer storable: miss
        assert cache.used_mbit == 0.0
        assert "a" not in cache._objects
        assert "a" not in cache._frequency

    def test_capacity_sized_regrow_survives_float_residue(self):
        # Regression (hypothesis falsifying example): subtraction residue
        # in _used_mbit made a capacity-sized re-admission evict past an
        # empty cache and crash.
        capacity = 2.542870980097112
        cache = EdgeCache(capacity_mbit=capacity, policy="lru")
        cache.request((0,), 1.0)
        cache.request((1,), 1.2549724979308496)
        assert cache.request((0,), capacity)  # grows to exactly capacity
        assert cache.used_mbit == pytest.approx(capacity)
        assert list(cache._objects) == [(0,)]

    def test_empty_cache_accounting_resets_exactly(self):
        cache = EdgeCache(capacity_mbit=3.0, policy="lfu")
        cache.request("a", 0.1 + 0.2)  # sums with float error
        cache.request("b", 2.0)
        cache.request("c", 2.9)  # evicts both
        assert list(cache._objects) == ["c"]
        assert not cache.request("a", 0.3)
        assert cache.used_mbit <= cache.capacity_mbit


class TestSimulateCache:
    def test_stats_accounting(self):
        stats = simulate_cache(
            [("a", 2.0), ("a", 2.0), ("b", 3.0)], capacity_mbit=10.0
        )
        assert stats.requests == 3
        assert stats.hits == 1
        assert stats.bytes_requested_mbit == pytest.approx(7.0)
        assert stats.bytes_backhaul_mbit == pytest.approx(5.0)
        assert stats.hit_ratio == pytest.approx(1 / 3)
        assert stats.byte_hit_ratio == pytest.approx(2 / 7)

    def test_empty_stream(self):
        stats = simulate_cache([], capacity_mbit=1.0)
        assert stats.hit_ratio == 0.0
        assert stats.byte_hit_ratio == 0.0


class TestPtileVsCtileCaching:
    @pytest.fixture(scope="class")
    def comparison(self, manifest2, small_dataset, ptiles2):
        return ptile_vs_ctile_caching(
            manifest2, small_dataset.traces[2][:8], ptiles2,
            capacity_mbit=50.0,
        )

    def test_both_schemes_present(self, comparison):
        assert set(comparison) == {"ctile", "ptile"}

    def test_concurrent_viewers_hit(self, comparison):
        # Viewers of the same segment share objects.
        assert comparison["ctile"].hit_ratio > 0.5
        assert comparison["ptile"].hit_ratio > 0.5

    def test_ptile_cuts_backhaul(self, comparison):
        """The extension's headline: Ptiles reduce backhaul traffic."""
        assert (
            comparison["ptile"].bytes_backhaul_mbit
            < comparison["ctile"].bytes_backhaul_mbit
        )

    def test_requires_viewers(self, manifest2, ptiles2):
        with pytest.raises(ValueError):
            ptile_vs_ctile_caching(manifest2, [], ptiles2)

    def test_stats_type(self, comparison):
        assert isinstance(comparison["ctile"], CacheStats)


class TestEdgeHitModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeHitModel(hit_ratios=(0.5,), edge_bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            EdgeHitModel(hit_ratios=(1.5,))
        with pytest.raises(ValueError):
            EdgeHitModel(hit_ratios=(-0.1,))

    def test_hit_ratio_clamps_past_the_end(self):
        model = EdgeHitModel(hit_ratios=(0.2, 0.4, 0.6))
        assert model.hit_ratio(0) == 0.2
        assert model.hit_ratio(2) == 0.6
        assert model.hit_ratio(99) == 0.6  # last ratio past the end

    def test_hit_ratio_clamps_negative_index(self):
        model = EdgeHitModel(hit_ratios=(0.2, 0.4, 0.6))
        assert model.hit_ratio(-5) == 0.2

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            EdgeHitModel(hit_ratios=(0.5,), edge_bandwidth_mbps=-10.0)

    def test_empty_model_never_hits(self):
        model = EdgeHitModel(hit_ratios=())
        assert model.hit_ratio(0) == 0.0
        assert model.mean_hit_ratio == 0.0

    def test_mean(self):
        model = EdgeHitModel(hit_ratios=(0.0, 0.5, 1.0))
        assert model.mean_hit_ratio == pytest.approx(0.5)


class TestBuildEdgeHitModel:
    @pytest.fixture(scope="class")
    def model(self, manifest2, small_dataset, ptiles2):
        return build_edge_hit_model(
            manifest2, small_dataset.traces[2][:8], ptiles2,
            capacity_mbit=2000.0,
        )

    def test_one_ratio_per_segment_in_bounds(self, model, manifest2):
        assert len(model.hit_ratios) == manifest2.num_segments
        assert all(0.0 <= r <= 1.0 for r in model.hit_ratios)

    def test_deterministic(self, model, manifest2, small_dataset, ptiles2):
        again = build_edge_hit_model(
            manifest2, small_dataset.traces[2][:8], ptiles2,
            capacity_mbit=2000.0,
        )
        assert again.hit_ratios == model.hit_ratios

    def test_population_sharing_yields_hits(self, model):
        # Eight concurrent viewers share Ptile objects per segment, so
        # an ample cache must serve a meaningful byte fraction.
        assert model.mean_hit_ratio > 0.3

    def test_capacity_monotone(self, manifest2, small_dataset, ptiles2):
        tiny = build_edge_hit_model(
            manifest2, small_dataset.traces[2][:8], ptiles2,
            capacity_mbit=1.0,
        )
        big = build_edge_hit_model(
            manifest2, small_dataset.traces[2][:8], ptiles2,
            capacity_mbit=8000.0,
        )
        assert big.mean_hit_ratio >= tiny.mean_hit_ratio

    def test_requires_viewers(self, manifest2, ptiles2):
        with pytest.raises(ValueError):
            build_edge_hit_model(manifest2, [], ptiles2)

    def test_all_fallback_population_trains_zero_ratios(
        self, manifest2, small_dataset, ptiles2
    ):
        # No viewer matches a Ptile, so the replay is empty: a private
        # model reads zero hits where the shared replay would refuse.
        no_ptiles = [dataclasses.replace(sp, ptiles=()) for sp in ptiles2]
        model = build_edge_hit_model(
            manifest2, small_dataset.traces[2][:2], no_ptiles
        )
        assert model.hit_ratios == (0.0,) * manifest2.num_segments
        tenant = CacheTenant(2, manifest2, small_dataset.traces[2][:2],
                             no_ptiles)
        with pytest.raises(ValueError, match="empty request stream"):
            build_shared_edge_hit_models([tenant])


class TestSharedEdgeCache:
    @pytest.fixture(scope="class")
    def tenants(self, manifest2, manifest8, small_dataset, ptiles2, ptiles8):
        return [
            CacheTenant(2, manifest2, small_dataset.traces[2][:6], ptiles2),
            CacheTenant(8, manifest8, small_dataset.traces[8][:6], ptiles8),
        ]

    @pytest.fixture(scope="class")
    def shared(self, tenants):
        return build_shared_edge_hit_models(tenants, capacity_mbit=2000.0)

    def test_one_model_per_video_in_bounds(self, shared, tenants):
        assert isinstance(shared, SharedCacheResult)
        assert set(shared.models) == {2, 8}
        for tenant in tenants:
            ratios = shared.models[tenant.video_id].hit_ratios
            assert len(ratios) == tenant.manifest.num_segments
            assert all(0.0 <= r <= 1.0 for r in ratios)

    def test_per_video_stats_sum_to_overall(self, shared):
        assert shared.overall.requests == sum(
            s.requests for s in shared.per_video.values()
        )
        assert shared.overall.hits == sum(
            s.hits for s in shared.per_video.values()
        )
        assert 0.0 <= shared.overall.hit_ratio <= 1.0
        assert 0.0 <= shared.overall.byte_hit_ratio <= 1.0

    def test_deterministic(self, shared, tenants):
        again = build_shared_edge_hit_models(tenants, capacity_mbit=2000.0)
        assert again.models == shared.models
        assert again.overall == shared.overall

    def test_huge_capacity_matches_private_caches(
        self, tenants, manifest2, manifest8, small_dataset, ptiles2, ptiles8
    ):
        # With effectively infinite capacity tenants cannot evict each
        # other, so the shared cache degenerates to private caches.
        shared = build_shared_edge_hit_models(tenants, capacity_mbit=1e9)
        private2 = build_edge_hit_model(
            manifest2, small_dataset.traces[2][:6], ptiles2,
            capacity_mbit=1e9,
        )
        private8 = build_edge_hit_model(
            manifest8, small_dataset.traces[8][:6], ptiles8,
            capacity_mbit=1e9,
        )
        assert shared.models[2].hit_ratios == private2.hit_ratios
        assert shared.models[8].hit_ratios == private8.hit_ratios

    def test_contention_lowers_hit_ratio(self, tenants):
        tiny = build_shared_edge_hit_models(tenants, capacity_mbit=2.0)
        huge = build_shared_edge_hit_models(tenants, capacity_mbit=1e9)
        assert tiny.mean_hit_ratio <= huge.mean_hit_ratio

    def test_ptile_beats_ctile_byte_hit(self, tenants):
        ptile = build_shared_edge_hit_models(
            tenants, capacity_mbit=50.0, scheme="ptile"
        )
        ctile = build_shared_edge_hit_models(
            tenants, capacity_mbit=50.0, scheme="ctile"
        )
        assert (
            ptile.overall.byte_hit_ratio >= ctile.overall.byte_hit_ratio
        )

    def test_ctile_scheme_supported(self, tenants):
        result = build_shared_edge_hit_models(
            tenants, capacity_mbit=500.0, scheme="ctile"
        )
        assert result.scheme == "ctile"
        assert result.overall.requests > 0

    def test_validation(self, tenants, manifest2, small_dataset):
        with pytest.raises(ValueError, match="tenant"):
            build_shared_edge_hit_models([])
        with pytest.raises(ValueError, match="duplicate"):
            build_shared_edge_hit_models([tenants[0], tenants[0]])
        no_ptiles = CacheTenant(2, manifest2, small_dataset.traces[2][:2])
        with pytest.raises(ValueError, match="ptile"):
            build_shared_edge_hit_models([no_ptiles])
        with pytest.raises(ValueError, match="scheme"):
            build_shared_edge_hit_models(tenants, scheme="fifo")
        with pytest.raises(ValueError, match="viewer"):
            CacheTenant(2, manifest2, ())

    def test_interleaver_namespaces_and_alternates(self, tenants):
        stream = list(
            interleave_tenant_requests(tenants, scheme="ptile")
        )
        assert stream
        segments = [seg for _, seg, _, _ in stream]
        assert segments == sorted(segments)  # segment-synchronous rounds
        for video_id, _, key, size in stream:
            assert key[0] == video_id  # namespaced: no cross-video clash
            assert size >= 0.0
        # Within the first round the tenants must alternate at viewer
        # granularity, not stream one whole population contiguously —
        # otherwise contention is invisible to the cache.
        round0 = [vid for vid, seg, _, _ in stream if seg == 0]
        changes = sum(
            1 for a, b in zip(round0, round0[1:]) if a != b
        )
        assert changes > 2

    def test_empty_tenant_stream_rejected(self):
        # Silently yielding an empty stream (or training all-miss
        # models) hides configuration bugs; both entry points must
        # refuse loudly instead.
        with pytest.raises(ValueError, match="empty tenant collection"):
            list(interleave_tenant_requests(()))
        with pytest.raises(ValueError, match="at least one CacheTenant"):
            build_shared_edge_hit_models([])
        with pytest.raises(ValueError, match="at least one CacheTenant"):
            build_shared_edge_hit_models(iter(()))
