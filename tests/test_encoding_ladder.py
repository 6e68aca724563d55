"""Unit tests for the EncodingLadder value type."""

import pickle

import pytest

from repro.encoding import (
    CRF_MAX,
    CRF_MIN,
    DEFAULT_ENCODING_LADDER,
    EncodingLadder,
    MIN_CRF_SPACING,
)
from repro.video import EncoderModel


class TestDefaultLadder:
    def test_reproduces_paper_formula(self):
        # The paper's CRF = 43 - 5q, CRF 38..18 step 5.
        assert DEFAULT_ENCODING_LADDER.crfs == (38.0, 33.0, 28.0, 23.0, 18.0)
        for q in (1, 2, 3, 4, 5):
            assert DEFAULT_ENCODING_LADDER.crf(q) == 43.0 - 5.0 * q

    def test_fractional_matches_paper_formula_exactly(self):
        # The Nontile scheme walks the ladder in 0.25-quality steps; the
        # piecewise-linear interpolation must be byte-identical to the
        # affine 43 - 5q it replaces, not merely close.
        q = 1.0
        while q <= 5.0:
            assert DEFAULT_ENCODING_LADDER.crf(q) == 43.0 - 5.0 * q
            q += 0.25

    def test_levels(self):
        assert DEFAULT_ENCODING_LADDER.num_levels == 5
        assert DEFAULT_ENCODING_LADDER.levels == (1, 2, 3, 4, 5)

    def test_module_constant_is_default_construction(self):
        assert EncodingLadder() == DEFAULT_ENCODING_LADDER

    def test_quality_to_crf_delegates(self):
        # The encoder's quality-to-CRF mapping is the default ladder's.
        assert EncoderModel().ladder.crf(2.5) == DEFAULT_ENCODING_LADDER.crf(2.5)


class TestValidation:
    def test_needs_two_rungs(self):
        with pytest.raises(ValueError, match="at least 2"):
            EncodingLadder(crfs=(28.0,))

    def test_must_decrease(self):
        with pytest.raises(ValueError, match="decrease"):
            EncodingLadder(crfs=(18.0, 23.0))

    def test_spacing_floor(self):
        with pytest.raises(ValueError, match="decrease"):
            EncodingLadder(crfs=(28.0, 28.0 - MIN_CRF_SPACING / 2))
        # Exactly the minimum spacing is allowed.
        EncodingLadder(crfs=(28.0, 28.0 - MIN_CRF_SPACING))

    def test_crf_range(self):
        with pytest.raises(ValueError):
            EncodingLadder(crfs=(CRF_MAX + 1.0, 18.0))
        with pytest.raises(ValueError):
            EncodingLadder(crfs=(38.0, CRF_MIN - 1.0))
        with pytest.raises(ValueError):
            EncodingLadder(crfs=(float("nan"), 18.0))

    def test_quality_out_of_range(self):
        ladder = EncodingLadder(crfs=(40.0, 30.0, 20.0))
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            ladder.crf(0.5)
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            ladder.crf(3.5)


class TestNonDefaultLadders:
    def test_interpolation(self):
        ladder = EncodingLadder(crfs=(40.0, 30.0, 24.0))
        assert ladder.crf(1.5) == pytest.approx(35.0)
        assert ladder.crf(2.5) == pytest.approx(27.0)
        assert ladder.crf(3) == 24.0

    def test_longer_ladder(self):
        ladder = EncodingLadder(crfs=(42.0, 36.0, 30.0, 24.0, 20.0, 16.0))
        assert ladder.num_levels == 6
        assert ladder.levels == (1, 2, 3, 4, 5, 6)
        assert ladder.crf(6) == 16.0


class TestDigest:
    def test_stable_and_distinct(self):
        a = EncodingLadder()
        b = EncodingLadder(crfs=(39.0, 33.0, 28.0, 23.0, 18.0))
        assert a.digest() == EncodingLadder().digest()
        assert a.digest() != b.digest()

    def test_fingerprint_carries_crfs(self):
        fp = DEFAULT_ENCODING_LADDER.fingerprint()
        assert DEFAULT_ENCODING_LADDER.crfs in fp

    def test_pickle_round_trip(self):
        ladder = EncodingLadder(crfs=(40.0, 30.0, 20.0))
        digest = ladder.digest()  # memoize before pickling
        clone = pickle.loads(pickle.dumps(ladder))
        assert clone == ladder
        assert clone.digest() == digest
