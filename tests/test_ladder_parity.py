"""Parity gate for the encoding-ladder generalization.

The load-bearing guarantee of this subsystem: under the default ladder
(the paper's CRF 38..18, step 5), every code path that now consumes a
per-video :class:`~repro.encoding.EncodingLadder` — the encoder rate
law, sessions, the population engine, and the serving plan tables — is
byte-identical to the hard-coded ``quality -> 43 - 5q`` it replaced.
Anything less means the ladder subsystem changed baseline experiment
results just by existing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import OursScheme
from repro.encoding import DEFAULT_ENCODING_LADDER, EncodingLadder
from repro.experiments import make_setup
from repro.streaming import PopulationEngine, SessionConfig, run_session
from repro.video import VideoManifest

CFG = SessionConfig(max_segments=10)


def _quarter_steps():
    q = 1.0
    steps = []
    while q <= 5.0:
        steps.append(q)
        q += 0.25
    return steps


class TestEncoderParity:
    """The ladder-backed rate law equals the legacy affine formula."""

    def test_crf_matches_legacy_formula(self):
        for q in _quarter_steps():
            assert DEFAULT_ENCODING_LADDER.crf(q) == 43.0 - 5.0 * q

    def test_bitrate_matches_legacy_formula(self, noise_free_encoder):
        # The pre-ladder code computed ref * 2**((28 - (43 - 5q)) / 4)
        # scaled by content; exact float equality, not approx.
        for q in _quarter_steps():
            legacy = (
                noise_free_encoder.ref_bitrate_mbps
                * 2.0 ** ((28.0 - (43.0 - 5.0 * q)) / 4.0)
                * noise_free_encoder.content_factor(33.0, 14.0)
            )
            assert noise_free_encoder.full_frame_bitrate_mbps(
                q, 33.0, 14.0
            ) == legacy

    def test_default_field_is_default_ladder(self, encoder):
        assert encoder.ladder == DEFAULT_ENCODING_LADDER
        assert encoder.ladder.digest() == DEFAULT_ENCODING_LADDER.digest()


class TestSessionParity:
    """Explicit default ladder == implicit default, record for record."""

    @pytest.fixture(scope="class")
    def explicit_manifest(self, video8, encoder):
        explicit = dataclasses.replace(encoder, ladder=EncodingLadder())
        return VideoManifest(video8, explicit)

    def test_session_records_identical(
        self, manifest8, explicit_manifest, ptiles8, small_dataset,
        network_traces, device,
    ):
        for user in range(2):
            trace = small_dataset.test_traces(8)[user]
            a = run_session(OursScheme(device=device), manifest8, trace,
                            network_traces[1], device, ptiles=ptiles8,
                            config=CFG)
            b = run_session(OursScheme(device=device), explicit_manifest,
                            trace, network_traces[1], device, ptiles=ptiles8,
                            config=CFG)
            assert a.records == b.records

    def test_population_engine_identical(
        self, manifest8, explicit_manifest, ptiles8, small_dataset,
        network_traces, device,
    ):
        traces = small_dataset.test_traces(8)

        def run_pop(manifest):
            engine = PopulationEngine(
                OursScheme(device=device), manifest, traces,
                network_traces[1], device, ptiles=ptiles8, config=CFG,
            )
            return engine.run([0, 1, 2])

        base = run_pop(manifest8)
        explicit = run_pop(explicit_manifest)
        for field in dataclasses.fields(base):
            a = getattr(base, field.name)
            b = getattr(explicit, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    def test_plan_tables_memo_shared(
        self, manifest8, explicit_manifest, device,
    ):
        # Serving path: identical ladders share one memoized PlanTables
        # entry — the digest-keyed memo does not split the default case.
        scheme = OursScheme(device=device)
        for manifest in (manifest8, explicit_manifest):
            scheme._plan_tables(manifest)
        assert len(scheme._tables_cache) == 1


class TestSetupParity:
    """ExperimentSetup.with_ladders with the default ladder is a no-op."""

    @pytest.fixture(scope="class")
    def setup(self):
        return make_setup(max_duration_s=20, n_users=6, n_train=4,
                          video_ids=(8,))

    def test_manifest_unchanged(self, setup):
        override = setup.with_ladders({8: EncodingLadder()})
        assert override.manifest(8).encoder == setup.manifest(8).encoder

    def test_session_records_identical(self, setup, device):
        override = setup.with_ladders({8: EncodingLadder()})
        trace = setup.dataset.test_traces(8)[0]
        runs = []
        for s in (setup, override):
            runs.append(run_session(
                OursScheme(device=device), s.manifest(8), trace,
                s.trace2, device, ptiles=s.ptiles(8), config=CFG,
            ))
        assert runs[0].records == runs[1].records
