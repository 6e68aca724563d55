"""Parity tests for the content-digest encoding.

Every cache key in the repository (artifacts, session results, shards)
is a :func:`~repro.experiments.artifacts.content_digest`, so the
encoding is a contract with every cache already on disk:

* **Golden** — the sweep-context, job, manifest, and Ptile keys of the
  small test dataset equal hex digests recorded before the one-pass
  encoder replaced the per-node one.  A change here invalidates every
  existing cache and needs a schema-version bump, not a new golden.
  The two sweep-context goldens were re-recorded once, with results
  schema v5, when the context digest became a composition of the
  components' content keys.
* **Oracle parity** — on arbitrary nested inputs the production digest
  equals :func:`tests.digest_reference.reference_digest`, the original
  per-node encoder.
* **Order** — a dict fingerprints the same whatever its insertion order,
  including when distinct keys share a repr.
* **Robustness** — object-dtype arrays (whose bytes are pointers) are
  rejected instead of digested.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.experiments import make_schemes
from repro.experiments.artifacts import (
    content_digest,
    manifest_key,
    ptiles_key,
    session_job_digest,
    structural_fingerprint,
    sweep_context_digest,
)
from repro.experiments.runner import SessionJob, SweepContext
from repro.geometry import DEFAULT_GRID
from repro.ptile import PtileConfig
from repro.streaming.session import SessionConfig

from .digest_reference import reference_digest

GOLDEN = {
    "context":
        "b04469df09537ec7b17ab80a95c00fdd348399f21def9aa53ed3790c8ccf495c",
    "slice2":
        "c324af692606aa5a2b9c67b2fbe5e09c558aa7cfe24fb463863f7574c2e8fe1a",
    "job":
        "955e83e66b72229adc9ee335bd445001d243340d68a097c6d380a03fc953a535",
    "manifest_key":
        "086bb18d674d0d669b53e10581fa2d341fee254ebcda97cd657a14ff0a6602e9",
    "ptiles_key":
        "b43a132a1e99db5ae3166ee05a73cadbd0664940a30100e8ddfeb6d07232d889",
}


@pytest.fixture(scope="module")
def sweep_context(small_dataset, manifest2, manifest8, ptiles2, ptiles8,
                  ftiles2, ptiles2_key, ptiles8_key, ftiles2_key,
                  network_traces, device):
    trace1, trace2 = network_traces
    return SweepContext(
        schemes=make_schemes(device),
        device=device,
        networks={"trace1": trace1, "trace2": trace2},
        manifests={2: manifest2, 8: manifest8},
        head_traces={
            2: tuple(small_dataset.test_traces(2)),
            8: tuple(small_dataset.test_traces(8)),
        },
        ptiles={2: ptiles2, 8: ptiles8},
        ftiles={2: ftiles2},
        config=SessionConfig(),
        ptiles_keys={2: ptiles2_key, 8: ptiles8_key},
        ftiles_keys={2: ftiles2_key},
    )


class TestGolden:
    def test_sweep_context(self, sweep_context):
        assert sweep_context_digest(sweep_context) == GOLDEN["context"]

    def test_sliced_sweep_context(self, sweep_context):
        sliced = sweep_context.slice({2})
        assert sliced is not sweep_context
        assert sweep_context_digest(sliced) == GOLDEN["slice2"]

    def test_session_job(self):
        job = SessionJob(key="k", scheme="ours", video_id=2,
                         network="trace2", user_index=1)
        assert session_job_digest(job) == GOLDEN["job"]

    def test_artifact_keys(self, small_dataset, encoder):
        video = small_dataset.video(2)
        assert manifest_key(video, encoder) == GOLDEN["manifest_key"]
        assert ptiles_key(
            video, small_dataset.train_traces(2), DEFAULT_GRID, PtileConfig()
        ) == GOLDEN["ptiles_key"]

    def test_context_fingerprint_matches_oracle(self, sweep_context):
        fingerprint = structural_fingerprint(sweep_context)
        assert content_digest(fingerprint) == reference_digest(fingerprint)


# ----------------------------------------------------------------------
# Oracle parity on generated structures.
# ----------------------------------------------------------------------

_arrays = hnp.arrays(
    dtype=st.sampled_from(["<f8", "<f4", "<i8", "<i4", "|u1", "|b1"]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | _arrays
    | _arrays.map(lambda a: a.T)  # non-contiguous when 2-D or more
)
_scalar_keys = st.integers(-1000, 1000) | st.text(max_size=6)
_keys = _scalar_keys | st.tuples(_scalar_keys, _scalar_keys)
_nested = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
    ),
    max_leaves=24,
)


def _old_dict_fingerprint(obj: dict) -> tuple:
    """The dict rule before entries were ordered by key alone."""
    items = [
        (structural_fingerprint(k), structural_fingerprint(v))
        for k, v in obj.items()
    ]
    return ("dict", tuple(sorted(items, key=repr)))


class TestOracleParity:
    @given(_nested)
    @settings(max_examples=300, deadline=None)
    def test_digest_equals_per_node_encoder(self, obj):
        assert content_digest(obj) == reference_digest(obj)
        assert content_digest("tag", obj, 3) == reference_digest(
            "tag", obj, 3
        )

    @given(st.dictionaries(_keys, _nested, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_dict_fingerprint_bytes_unchanged(self, obj):
        assert content_digest(structural_fingerprint(obj)) == (
            reference_digest(_old_dict_fingerprint(obj))
        )

    @pytest.mark.parametrize("value", [
        enum.IntEnum("Level", "LOW HIGH").HIGH,
        type("Name", (str,), {})("ptile"),
        namedtuple("Pair", "a b")(1, "x"),
        np.float32(0.1),
        np.uint8(200),
        -(10**30),
        b"",
        (),
        {},
    ], ids=repr)
    def test_subclasses_and_scalars_take_the_old_branches(self, value):
        assert content_digest(value) == reference_digest(value)

    @pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}])
    def test_same_rejections(self, value):
        with pytest.raises(TypeError):
            reference_digest(value)
        with pytest.raises(TypeError):
            content_digest(value)


# ----------------------------------------------------------------------
# Insertion-order independence.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class _Label:
    """Hashable by identity: equal fields, distinct dict keys."""

    name: str


class TestInsertionOrder:
    @given(st.dictionaries(_keys, _nested, min_size=2, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_shuffled_insertion_same_digest(self, obj, rng):
        entries = list(obj.items())
        rng.shuffle(entries)
        assert content_digest(structural_fingerprint(dict(entries))) == (
            content_digest(structural_fingerprint(obj))
        )

    @pytest.mark.parametrize("make_keys", [
        lambda: (float("nan"), float("nan")),
        lambda: (_Label("a"), _Label("a")),
    ], ids=["nan", "identity-hashed"])
    def test_tied_key_reprs_fall_back_to_whole_entries(self, make_keys):
        first, second = make_keys()
        forward = {first: np.arange(3.0), second: "b"}
        backward = {second: "b", first: np.arange(3.0)}
        assert len(forward) == len(backward) == 2
        digest = content_digest(structural_fingerprint(forward))
        assert digest == content_digest(structural_fingerprint(backward))
        assert digest == reference_digest(_old_dict_fingerprint(forward))


# ----------------------------------------------------------------------
# Object-dtype arrays.
# ----------------------------------------------------------------------


class TestObjectArrays:
    @pytest.mark.parametrize("array", [
        np.array([1, "a", None], dtype=object),
        np.zeros(2, dtype=[("x", "<f8"), ("o", object)]),
        np.empty((0,), dtype=object),
    ], ids=["object", "structured-with-object", "empty-object"])
    def test_rejected(self, array):
        with pytest.raises(TypeError, match="object-dtype"):
            content_digest(array)
        with pytest.raises(TypeError, match="object-dtype"):
            content_digest(("nested", [array]))

    def test_rejected_through_a_fingerprint(self):
        @dataclasses.dataclass
        class Holder:
            values: np.ndarray

        fingerprint = structural_fingerprint(
            Holder(np.array([1.0, "x"], dtype=object))
        )
        with pytest.raises(TypeError, match="object-dtype"):
            content_digest(fingerprint)

    def test_plain_arrays_unaffected(self):
        array = np.arange(4.0)
        assert content_digest(array) == reference_digest(array)
