"""Integration tests for the streaming session simulator."""

import dataclasses

import pytest

from repro.core import OursScheme
from repro.power import TilingScheme
from repro.streaming import (
    CtileScheme,
    NontileScheme,
    PopulationEngine,
    PtileScheme,
    SessionConfig,
    run_session,
)


@pytest.fixture(scope="module")
def session_inputs(request):
    return None


def _run(scheme, manifest, dataset, traces, device, vid=2, ptiles=None,
         ftiles=None, config=None):
    head = dataset.test_traces(vid)[0]
    return run_session(
        scheme,
        manifest,
        head,
        traces[1],
        device,
        ptiles=ptiles,
        ftiles=ftiles,
        config=config or SessionConfig(),
    )


class TestSessionBasics:
    def test_record_per_segment(self, small_dataset, manifest2, network_traces,
                                device):
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device)
        assert result.num_segments == manifest2.num_segments
        assert [r.index for r in result.records] == list(
            range(manifest2.num_segments)
        )

    def test_max_segments(self, small_dataset, manifest2, network_traces, device):
        cfg = SessionConfig(max_segments=5)
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device, config=cfg)
        assert result.num_segments == 5

    def test_energy_components_positive(self, small_dataset, manifest2,
                                        network_traces, device):
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device)
        assert result.energy.transmission_j > 0
        assert result.energy.decoding_j > 0
        assert result.energy.rendering_j > 0
        assert result.total_energy_j == pytest.approx(
            result.energy.transmission_j
            + result.energy.decoding_j
            + result.energy.rendering_j
        )

    def test_metadata_propagated(self, small_dataset, manifest2, network_traces,
                                 device):
        result = _run(NontileScheme(), manifest2, small_dataset, network_traces,
                      device)
        assert result.scheme_name == "nontile"
        assert result.video_id == 2
        assert result.device_name == device.name
        assert result.network_name == network_traces[1].name

    def test_deterministic(self, small_dataset, manifest2, network_traces,
                           device):
        a = _run(CtileScheme(), manifest2, small_dataset, network_traces, device)
        b = _run(CtileScheme(), manifest2, small_dataset, network_traces, device)
        assert a.total_energy_j == b.total_energy_j
        assert a.mean_qoe == b.mean_qoe


class TestSchemeBehaviour:
    def test_ptile_mostly_hits(self, small_dataset, manifest2, network_traces,
                               device, ptiles2):
        result = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                      device, ptiles=ptiles2)
        assert result.ptile_hit_rate > 0.5

    def test_ptile_decodes_cheaper_than_ctile(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        ptile = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                     device, ptiles=ptiles2)
        ctile = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                     device)
        assert ptile.energy.decoding_j < ctile.energy.decoding_j

    def test_ptile_downloads_less_than_ctile(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        ptile = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                     device, ptiles=ptiles2)
        ctile = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                     device)
        assert ptile.energy.transmission_j < ctile.energy.transmission_j

    def test_nontile_full_coverage(self, small_dataset, manifest2,
                                   network_traces, device):
        result = _run(NontileScheme(), manifest2, small_dataset, network_traces,
                      device)
        assert result.mean_coverage == pytest.approx(1.0)

    def test_decode_scheme_recorded(self, small_dataset, manifest2,
                                    network_traces, device, ptiles2):
        result = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                      device, ptiles=ptiles2)
        schemes = {r.decode_scheme for r in result.records}
        assert TilingScheme.PTILE in schemes


class TestStartupAndStalls:
    def test_first_segment_not_counted_as_rebuffer(
        self, small_dataset, manifest2, network_traces, device
    ):
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device)
        assert result.records[0].stall_s == 0.0
        assert result.records[0].qoe.rebuffer_penalty == 0.0

    def test_startup_stall_opt_in(self, small_dataset, manifest2,
                                  network_traces, device):
        cfg = SessionConfig(count_startup_stall=True, max_segments=3)
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device, config=cfg)
        assert result.records[0].qoe.rebuffer_penalty > 0.0
        # The recorded stall must agree with the QoE penalty: opting in
        # makes the startup download a real stall, not a hardcoded 0.
        assert result.records[0].stall_s > 0.0
        assert result.records[0].stall_s == pytest.approx(
            result.records[0].download_time_s
        )

    @pytest.mark.parametrize("ours", [False, True], ids=["ctile", "ours"])
    def test_counted_startup_stall_is_a_rebuffer(
        self, small_dataset, manifest8, ptiles8, network_traces, device, ours
    ):
        # Every recorded stall is a rebuffering event: the session
        # result, the Eq. 2 accumulator and the population engine count
        # the opted-in startup stall alike.
        scheme = OursScheme(device) if ours else CtileScheme()
        cfg = SessionConfig(count_startup_stall=True, max_segments=10)
        result = _run(scheme, manifest8, small_dataset, network_traces,
                      device, vid=8, ptiles=ptiles8, config=cfg)
        stalled = sum(r.stall_s > 0 for r in result.records)
        assert result.records[0].stall_s > 0.0
        assert result.rebuffer_count == stalled
        assert result.session_qoe.rebuffer_count == stalled
        population = PopulationEngine(
            scheme, manifest8, small_dataset.test_traces(8)[:1],
            network_traces[1], device, ptiles=ptiles8, config=cfg,
        ).run()
        assert population.rebuffer_count.tolist() == [stalled]

    def test_buffer_bounded(self, small_dataset, manifest2, network_traces,
                            device):
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device)
        for record in result.records:
            assert record.buffer_before_s <= 3.0 + 1e-9


class TestQoEPlumbing:
    def test_coverage_in_unit_interval(self, small_dataset, manifest2,
                                       network_traces, device, ptiles2):
        result = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                      device, ptiles=ptiles2)
        for record in result.records:
            assert 0.0 <= record.coverage <= 1.0

    def test_qo_effective_bounded(self, small_dataset, manifest2,
                                  network_traces, device):
        result = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device)
        for record in result.records:
            assert 0.0 <= record.qo_effective <= 100.0

    def test_empty_video_rejected(self, small_dataset, manifest2,
                                  network_traces, device):
        cfg = SessionConfig(max_segments=0)
        with pytest.raises(ValueError):
            _run(CtileScheme(), manifest2, small_dataset, network_traces,
                 device, config=cfg)


class TestSessionConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("late_fetch_horizon_s", -5.0),
        ("late_fetch_horizon_s", -1e-9),
        ("late_fetch_horizon_s", float("nan")),
        ("late_fetch_horizon_s", float("inf")),
        ("late_fetch_horizon_s", float("-inf")),
        ("horizon", 0),
        ("horizon", -3),
        ("predictor_window_s", 0.0),
        ("predictor_window_s", -1.0),
        ("predictor_window_s", float("nan")),
        ("predictor_window_s", float("inf")),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(SessionConfig(), **{field: value})

    @pytest.mark.parametrize("kwargs", [
        {},
        {"late_fetch_horizon_s": 0.0},
        {"late_fetch_horizon_s": 1.0},
        # Valid for run_session; only the population engine rejects it.
        {"late_fetch_horizon_s": 2.0, "max_segments": 10},
        {"horizon": 1},
        {"horizon": 3},
        {"horizon": 8},
        {"predictor_window_s": 1.0},
        {"max_segments": 0},
    ])
    def test_accepts_the_configs_in_use(self, kwargs):
        config = SessionConfig(**kwargs)
        assert all(getattr(config, k) == v for k, v in kwargs.items())

    def test_negative_late_fetch_no_longer_reads_the_future(
        self, small_dataset, manifest8, network_traces, device
    ):
        # It used to feed the predictor samples past the segment's
        # playback midpoint and lift the session's QoE.
        with pytest.raises(ValueError, match="late_fetch_horizon_s"):
            _run(CtileScheme(), manifest8, small_dataset, network_traces,
                 device, vid=8, config=SessionConfig(
                     max_segments=6, late_fetch_horizon_s=-5.0))


class TestEdgeModel:
    def test_zero_hit_model_identical_to_none(self, small_dataset, manifest2,
                                              network_traces, device):
        from repro.streaming import EdgeHitModel

        base = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                    device)
        zero = EdgeHitModel(hit_ratios=(0.0,) * manifest2.num_segments)
        with_model = _run(CtileScheme(), manifest2, small_dataset,
                          network_traces, device,
                          config=SessionConfig(edge_model=zero))
        assert [r.download_time_s for r in with_model.records] == [
            r.download_time_s for r in base.records
        ]
        assert with_model.total_energy_j == base.total_energy_j

    def test_edge_hits_shorten_downloads(self, small_dataset, manifest2,
                                         network_traces, device):
        from repro.streaming import EdgeHitModel

        base = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                    device)
        # A fast edge link serving 60% of every download must beat the
        # backhaul-only path in total download time and stalls.
        model = EdgeHitModel(
            hit_ratios=(0.6,) * manifest2.num_segments,
            edge_bandwidth_mbps=500.0,
        )
        cached = _run(CtileScheme(), manifest2, small_dataset, network_traces,
                      device, config=SessionConfig(edge_model=model))
        base_dl = sum(r.download_time_s for r in base.records)
        cached_dl = sum(r.download_time_s for r in cached.records)
        assert cached_dl < base_dl
        assert cached.total_stall_s <= base.total_stall_s

    def test_trained_model_runs_end_to_end(self, small_dataset, manifest2,
                                           network_traces, device, ptiles2):
        from repro.streaming import build_edge_hit_model

        model = build_edge_hit_model(
            manifest2, small_dataset.train_traces(2), ptiles2,
            capacity_mbit=2000.0,
        )
        result = _run(PtileScheme(), manifest2, small_dataset, network_traces,
                      device, ptiles=ptiles2,
                      config=SessionConfig(edge_model=model))
        assert result.num_segments == manifest2.num_segments
        assert all(r.download_time_s >= 0.0 for r in result.records)


class TestZeroBandwidthBins:
    """Regression: zero-bandwidth trace bins must not crash the loop."""

    def _zero_start_trace(self):
        import numpy as np
        from repro.traces import NetworkTrace

        return NetworkTrace("outage-start", np.array([0.0] + [5.0] * 60))

    def test_zero_bin_at_startup(self, small_dataset, manifest2, device):
        # The startup probe lands in the dead bin; it must probe forward
        # instead of feeding 0 to the harmonic-mean estimator.
        head = small_dataset.test_traces(2)[0]
        result = run_session(
            CtileScheme(), manifest2, head, self._zero_start_trace(), device,
            config=SessionConfig(max_segments=4),
        )
        assert result.num_segments == 4
        assert all(r.download_time_s >= 0 for r in result.records)

    def test_zero_bin_mid_session_instant_download(
        self, small_dataset, manifest2, device
    ):
        # A size-0 plan makes the download instantaneous, which samples
        # the trace at wall_t as a fallback; inside a dead bin the
        # sample must be skipped, not fed to the estimator.
        import numpy as np

        from repro.power import TilingScheme as _TS
        from repro.streaming import DownloadPlan
        from repro.traces import NetworkTrace

        class EmptyScheme:
            name = "empty"

            def plan(self, ctx):
                return DownloadPlan(
                    scheme_name=self.name,
                    quality=1,
                    frame_rate=ctx.fps,
                    total_size_mbit=0.0,
                    decode_scheme=_TS.CTILE,
                )

        trace = NetworkTrace("mostly-dead", np.array([0.0, 1.0, 0.0, 0.0]))
        head = small_dataset.test_traces(2)[0]
        result = run_session(
            EmptyScheme(), manifest2, head, trace, device,
            config=SessionConfig(max_segments=6),
        )
        assert result.num_segments == 6


class TestTruncatedHorizon:
    """Regression: MPC lookahead must respect max_segments truncation."""

    def test_future_manifests_clipped_to_truncated_length(
        self, small_dataset, manifest2, network_traces, device
    ):
        max_segments = 5

        class SpyScheme(CtileScheme):
            seen: list = []

            def plan(self, ctx):
                for m in ctx.window_manifests:
                    SpyScheme.seen.append(m.segment_index)
                return super().plan(ctx)

        SpyScheme.seen = []
        _run(SpyScheme(), manifest2, small_dataset, network_traces, device,
             config=SessionConfig(max_segments=max_segments))
        assert SpyScheme.seen, "scheme never saw a lookahead window"
        assert max(SpyScheme.seen) == max_segments - 1

    def test_ours_plans_match_prefix_manifest(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        # Planning a truncated session must equal planning a video that
        # physically ends at the truncation point: with the horizon
        # clipped to the truncated length, OursScheme's MPC can no
        # longer see (and plan against) segments that will never play.
        from repro.core import OursScheme

        head = small_dataset.test_traces(2)[0]
        max_segments = manifest2.num_segments - 3
        truncated = run_session(
            OursScheme(device), manifest2, head, network_traces[1], device,
            ptiles=ptiles2,
            config=SessionConfig(max_segments=max_segments),
        )
        full = run_session(
            OursScheme(device), manifest2, head, network_traces[1], device,
            ptiles=ptiles2,
        )
        # The tail segments (inside the final horizon window) now see a
        # shorter lookahead than the full run did, so the truncated run
        # is NOT simply the full run's prefix once the horizon matters.
        assert truncated.num_segments == max_segments
        for rec_t, rec_f in zip(
            truncated.records[: max_segments - 5], full.records
        ):
            assert rec_t.quality == rec_f.quality
            assert rec_t.size_mbit == rec_f.size_mbit
