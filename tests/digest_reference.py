"""The per-node reference encoder: the parity oracle of content digests.

Production encodes a digest input in one pass into one buffer and hashes
it once (:func:`repro.experiments.artifacts.content_digest`).  This
module keeps the original recursive encoder, which feeds every node to
the hasher as it goes, written for clarity rather than speed.  The
digest parity tests compare production digests against
:func:`reference_digest` — the token streams, and so the SHA-256 hex
digests, must be identical.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

import numpy as np


def _update(h: "hashlib._Hash", obj: Any) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        raw = str(int(obj)).encode("ascii")
        h.update(b"i" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, bytes):
        h.update(b"y" + struct.pack("<I", len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        meta = f"{arr.dtype.str}{arr.shape}".encode("ascii")
        h.update(b"a" + struct.pack("<I", len(meta)) + meta + arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"t" + struct.pack("<I", len(obj)))
        for part in obj:
            _update(h, part)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        h.update(b"d" + struct.pack("<I", len(items)))
        for key, value in items:
            _update(h, key)
            _update(h, value)
    else:
        raise TypeError(
            f"cannot digest {type(obj).__name__}; pass a fingerprint of "
            "primitives/arrays instead"
        )


def reference_digest(*parts: Any) -> str:
    """SHA-256 hex digest of ``parts`` by the per-node encoder."""
    h = hashlib.sha256()
    _update(h, parts)
    return h.hexdigest()
