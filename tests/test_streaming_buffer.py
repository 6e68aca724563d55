"""Unit tests for playback-buffer dynamics (Eq. 6-7)."""

import pytest

from repro.streaming import PlaybackBuffer


class TestPlaybackBuffer:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PlaybackBuffer(threshold_s=0.0)
        with pytest.raises(ValueError):
            PlaybackBuffer(segment_s=0.0)

    def test_cold_start(self):
        buf = PlaybackBuffer()
        assert buf.level_s == 0.0
        assert buf.advance(0.5).wait_s == 0.0

    def test_first_download_stalls_for_its_duration(self):
        buf = PlaybackBuffer()
        event = buf.advance(0.8)
        assert event.stall_s == pytest.approx(0.8)  # startup delay
        assert event.level_after_s == pytest.approx(1.0)

    def test_eq6_steady_state(self):
        buf = PlaybackBuffer(threshold_s=3.0, segment_s=1.0)
        # Fill the buffer with fast downloads.
        for _ in range(5):
            buf.advance(0.2)
        # Level should ratchet towards the threshold but never pass
        # threshold + L.
        assert buf.level_s <= 4.0

    def test_wait_gate(self):
        buf = PlaybackBuffer(threshold_s=3.0, segment_s=1.0)
        for _ in range(6):
            buf.advance(0.1)
        level_before = buf.level_s
        event = buf.advance(0.1)
        assert event.wait_s > 0.0
        assert event.wait_s == pytest.approx(max(level_before - 3.0, 0.0))

    def test_eq6_formula(self):
        buf = PlaybackBuffer(threshold_s=3.0, segment_s=1.0)
        buf.advance(0.5)  # level = 1.0
        event = buf.advance(0.4)
        # B2 = max(B1 - dl, 0) + L = max(1.0 - 0.4, 0) + 1 = 1.6
        assert event.level_after_s == pytest.approx(1.6)
        assert event.stall_s == 0.0

    def test_stall_when_download_outlasts_buffer(self):
        buf = PlaybackBuffer(threshold_s=3.0, segment_s=1.0)
        buf.advance(0.5)  # level 1.0
        event = buf.advance(2.5)
        assert event.stall_s == pytest.approx(1.5)
        assert event.level_after_s == pytest.approx(1.0)

    def test_wait_drains_before_download(self):
        buf = PlaybackBuffer(threshold_s=2.0, segment_s=1.0)
        for _ in range(5):
            buf.advance(0.05)
        level = buf.level_s
        event = buf.advance(0.05)
        assert event.wait_s > 0.0
        assert event.level_before_s == pytest.approx(level - event.wait_s)

    def test_negative_download_rejected(self):
        with pytest.raises(ValueError):
            PlaybackBuffer().advance(-0.1)

    def test_level_never_negative(self):
        buf = PlaybackBuffer()
        for dl in (3.0, 5.0, 0.1, 4.0):
            event = buf.advance(dl)
            assert event.level_after_s >= 0.0
