"""N clients sharing one bottleneck link: each runs ``run_session`` over
the fair share ``network.scaled(1 / N)`` (processor sharing, exact while
every client stays backlogged)."""

import pickle

import numpy as np
import pytest

from repro.streaming import (
    CtileScheme,
    EdgeHitModel,
    PtileScheme,
    SessionConfig,
    run_session,
)


@pytest.fixture
def short_config():
    return SessionConfig(max_segments=15)


def _shared_link(scheme_cls, manifest, heads, network, device, n=None,
                 **kwargs):
    """Per-client results of ``n`` clients (default: one per head trace,
    reusing heads round-robin) on the fair share of ``network``."""
    n = len(heads) if n is None else n
    fair = network.scaled(1.0 / n)
    return [
        run_session(scheme_cls(), manifest, heads[i % len(heads)], fair,
                    device, **kwargs)
        for i in range(n)
    ]


def _mean_quality(results) -> float:
    return float(np.mean([r.mean_quality_level for r in results]))


class TestRunSharedLink:
    def test_single_client_equals_full_link(
        self, small_dataset, manifest2, network_traces, device, short_config
    ):
        head = small_dataset.test_traces(2)[0]
        (shared,) = _shared_link(
            CtileScheme, manifest2, [head], network_traces[1], device,
            config=short_config,
        )
        solo = run_session(
            CtileScheme(), manifest2, head, network_traces[1], device,
            config=short_config,
        )
        assert shared.total_energy_j == pytest.approx(solo.total_energy_j)

    def test_fair_share_scaling(self, network_traces):
        fair = network_traces[0].scaled(1.0 / 2)
        assert fair.mean_mbps == pytest.approx(network_traces[0].mean_mbps / 2)

    def test_quality_degrades_with_contention(
        self, small_dataset, manifest2, network_traces, device, short_config
    ):
        heads = small_dataset.test_traces(2)
        alone = _shared_link(
            CtileScheme, manifest2, heads[:1], network_traces[0], device,
            config=short_config,
        )
        crowded = _shared_link(
            CtileScheme, manifest2, heads[:4], network_traces[0], device,
            config=short_config,
        )
        assert _mean_quality(crowded) <= _mean_quality(alone)


class TestCapacitySweep:
    def test_invalid_count(self, network_traces):
        # A fair share only exists for a positive client count.
        for share in (0.0, 1.0 / -2):
            with pytest.raises(ValueError):
                network_traces[1].scaled(share)

    def test_sweep_shape(
        self, small_dataset, manifest2, network_traces, device, ptiles2,
        short_config
    ):
        heads = small_dataset.test_traces(2)
        qualities = [
            _mean_quality(_shared_link(
                PtileScheme, manifest2, heads, network_traces[0], device, n,
                ptiles=ptiles2, config=short_config,
            ))
            for n in (1, 2, 4)
        ]
        assert qualities == sorted(qualities, reverse=True)

    def test_ptile_scales_further_than_ctile(
        self, small_dataset, manifest2, network_traces, device, ptiles2,
        short_config
    ):
        """The deployment argument: Ptile sustains more viewers per
        cell at a given quality than Ctile."""
        heads = small_dataset.test_traces(2)
        ptile = _shared_link(
            PtileScheme, manifest2, heads, network_traces[0], device, 4,
            ptiles=ptiles2, config=short_config,
        )
        ctile = _shared_link(
            CtileScheme, manifest2, heads, network_traces[0], device, 4,
            config=short_config,
        )
        assert _mean_quality(ptile) >= _mean_quality(ctile)


class TestSharedEdgeCacheWiring:
    def test_edge_model_recorded_per_segment(
        self, small_dataset, manifest2, network_traces, device
    ):
        heads = small_dataset.test_traces(2)[:2]
        model = EdgeHitModel(hit_ratios=(0.5,) * manifest2.num_segments)
        shared = _shared_link(
            CtileScheme, manifest2, heads, network_traces[1], device,
            config=SessionConfig(max_segments=15, edge_model=model),
        )
        for result in shared:
            assert result.total_edge_hit_mbit > 0
            assert result.edge_hit_fraction == pytest.approx(0.5)

    def test_edge_model_threaded_through_capacity_sweep(
        self, small_dataset, manifest2, network_traces, device
    ):
        heads = small_dataset.test_traces(2)[:2]
        model = EdgeHitModel(hit_ratios=(1.0,), edge_bandwidth_mbps=1e6)
        crowded = _shared_link(
            CtileScheme, manifest2, heads, network_traces[0], device, 4,
            config=SessionConfig(max_segments=15, edge_model=model),
        )
        # Full hits at a near-infinite edge rate: downloads are
        # effectively instantaneous, so nothing can stall post-startup
        # no matter how many clients share the backhaul.
        assert sum(r.rebuffer_count for r in crowded) == 0
        for result in crowded:
            assert result.edge_hit_fraction == pytest.approx(1.0)

    def test_no_edge_model_records_zero(
        self, small_dataset, manifest2, network_traces, device, short_config
    ):
        head = small_dataset.test_traces(2)[0]
        (shared,) = _shared_link(
            CtileScheme, manifest2, [head], network_traces[1], device,
            config=short_config,
        )
        assert shared.total_edge_hit_mbit == 0.0
        assert shared.edge_hit_fraction == 0.0


class TestSharedLinkDeterminism:
    def _run(self, small_dataset, manifest2, network_traces, device,
             edge_model=None):
        heads = small_dataset.test_traces(2)[:3]
        return _shared_link(
            CtileScheme, manifest2, heads, network_traces[1], device,
            config=SessionConfig(max_segments=15, edge_model=edge_model),
        )

    def test_repeated_runs_byte_identical(
        self, small_dataset, manifest2, network_traces, device
    ):
        first = self._run(small_dataset, manifest2, network_traces, device)
        second = self._run(small_dataset, manifest2, network_traces, device)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_repeated_edge_cache_runs_byte_identical(
        self, small_dataset, manifest2, network_traces, device
    ):
        model = EdgeHitModel(hit_ratios=(0.7,) * manifest2.num_segments)
        first = self._run(small_dataset, manifest2, network_traces, device,
                          edge_model=model)
        second = self._run(small_dataset, manifest2, network_traces, device,
                           edge_model=model)
        assert pickle.dumps(first) == pickle.dumps(second)
