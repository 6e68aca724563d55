"""Shared fixtures: small, fast instances of the heavy objects.

Session-scoped so the synthetic dataset, Ptiles, and manifests are built
once per test run.
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import ftiles_key, ptiles_key
from repro.geometry import DEFAULT_GRID
from repro.power import PIXEL_3
from repro.ptile import PtileConfig, build_video_ptiles
from repro.streaming import build_video_ftiles
from repro.traces import build_dataset, paper_traces
from repro.video import EncoderModel, VideoManifest


@pytest.fixture(scope="session")
def small_dataset():
    """Videos 2 (focused) and 8 (exploratory), 16 users, 30 s each."""
    return build_dataset(
        n_users=16, n_train=12, video_ids=(2, 8), max_duration_s=30
    )


@pytest.fixture(scope="session")
def encoder():
    return EncoderModel()


@pytest.fixture(scope="session")
def noise_free_encoder():
    return EncoderModel(noise_sigma=0.0)


@pytest.fixture(scope="session")
def network_traces():
    return paper_traces(duration_s=300)


@pytest.fixture(scope="session")
def video2(small_dataset):
    return small_dataset.video(2)


@pytest.fixture(scope="session")
def video8(small_dataset):
    return small_dataset.video(8)


@pytest.fixture(scope="session")
def manifest2(video2, encoder):
    return VideoManifest(video2, encoder)


@pytest.fixture(scope="session")
def manifest8(video8, encoder):
    return VideoManifest(video8, encoder)


@pytest.fixture(scope="session")
def ptiles2(small_dataset, video2):
    return build_video_ptiles(
        video2, small_dataset.train_traces(2), DEFAULT_GRID
    )


@pytest.fixture(scope="session")
def ptiles8(small_dataset, video8):
    return build_video_ptiles(
        video8, small_dataset.train_traces(8), DEFAULT_GRID
    )


@pytest.fixture(scope="session")
def ftiles2(small_dataset, video2):
    return build_video_ftiles(video2, small_dataset.train_traces(2))


# The content keys of the fixtures above: a SweepContext holding them
# needs each one next to it (``ptiles_keys`` / ``ftiles_keys``).


@pytest.fixture(scope="session")
def ptiles2_key(small_dataset, video2):
    return ptiles_key(
        video2, small_dataset.train_traces(2), DEFAULT_GRID, PtileConfig()
    )


@pytest.fixture(scope="session")
def ptiles8_key(small_dataset, video8):
    return ptiles_key(
        video8, small_dataset.train_traces(8), DEFAULT_GRID, PtileConfig()
    )


@pytest.fixture(scope="session")
def ftiles2_key(small_dataset, video2):
    return ftiles_key(video2, small_dataset.train_traces(2))


@pytest.fixture(scope="session")
def device():
    return PIXEL_3
