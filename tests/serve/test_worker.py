"""Worker gather-path tests: one encode per tenant batch, ``live`` order.

``_gather_queries`` assembles one tenant's query words from the request
ring.  These tests drive it in-process over a plain array standing in for
the shared ring, so the layout rules are checked without forking a
worker: packed rows come straight from their slots, the feature rows of
every feature request are encoded together in one bundle call, and every
request's rows land where ``live`` puts them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import kernels
from repro.core.encoder import Encoder
from repro.serve.engine import TenantSlot
from repro.serve.worker import PAYLOAD_FEATURES, PAYLOAD_PACKED, _gather_queries

NUM_FEATURES = 12
DIM = 1000  # 16 words, the last one partly padding


class RecordingBackend(kernels.NumpyPackedBackend):
    """The NumPy backend, counting the bundle calls it receives."""

    name = "recording"

    def __init__(self) -> None:
        self.bundle_rows: list[int] = []

    def bundle_majority(self, codebook_words, idx):
        self.bundle_rows.append(np.asarray(idx).shape[0])
        return super().bundle_majority(codebook_words, idx)


@pytest.fixture(scope="module")
def encoder() -> Encoder:
    return Encoder(num_features=NUM_FEATURES, dim=DIM, levels=8, seed=3)


def tenant_for(encoder: Encoder) -> TenantSlot:
    return TenantSlot(
        index=0, tenant_id="t", prefix="p", control_name="c", dim=DIM,
        num_classes=2, codebook_name="cb", num_features=NUM_FEATURES,
        levels=encoder.levels, low=encoder.low, high=encoder.high,
    )


def ring_with(payloads: list[np.ndarray]) -> SimpleNamespace:
    """A ring whose slot ``i`` holds ``payloads[i]``'s raw 64-bit words."""
    slot_words = max(p.size for p in payloads)
    array = np.zeros((len(payloads), slot_words), dtype=np.uint64)
    for slot, payload in enumerate(payloads):
        array[slot, : payload.size] = payload.reshape(-1).view(np.uint64)
    return SimpleNamespace(array=array)


def mixed_batch(encoder: Encoder, rng):
    """Three requests: features (2 rows), packed (3 rows), features (1 row)."""
    feats_a = rng.random((2, NUM_FEATURES))
    packed_b = encoder.encode_packed(rng.random((3, NUM_FEATURES))).words
    feats_c = rng.random((1, NUM_FEATURES))
    ring = ring_with([feats_a, packed_b, feats_c])
    live = [
        (10, 0, 2, PAYLOAD_FEATURES),
        (11, 1, 3, PAYLOAD_PACKED),
        (12, 2, 1, PAYLOAD_FEATURES),
    ]
    expected = np.concatenate([
        encoder.encode_packed(feats_a).words,
        packed_b,
        encoder.encode_packed(feats_c).words,
    ])
    return ring, live, expected


class TestGatherQueries:
    def test_mixed_batch_in_live_order(self, encoder):
        ring, live, expected = mixed_batch(encoder, np.random.default_rng(0))
        codebook = SimpleNamespace(array=encoder.packed_codebook().words)
        words = encoder.packed_codebook().words.shape[2]
        got = _gather_queries(
            ring, live, tenant_for(encoder), codebook, 0, words
        )
        assert (got == expected).all()

    def test_mixed_batch_word_shard(self, encoder):
        """A word-sharded worker encodes against its codebook columns."""
        ring, live, expected = mixed_batch(encoder, np.random.default_rng(1))
        codebook = SimpleNamespace(array=encoder.packed_codebook().words)
        got = _gather_queries(ring, live, tenant_for(encoder), codebook, 5, 12)
        assert (got == expected[:, 5:12]).all()

    def test_two_packed_requests_of_different_sizes(self, encoder):
        rng = np.random.default_rng(2)
        a = encoder.encode_packed(rng.random((1, NUM_FEATURES))).words
        b = encoder.encode_packed(rng.random((4, NUM_FEATURES))).words
        ring = ring_with([b, a])
        live = [(0, 1, 1, PAYLOAD_PACKED), (1, 0, 4, PAYLOAD_PACKED)]
        got = _gather_queries(ring, live, tenant_for(encoder), None, 0, 16)
        assert (got == np.concatenate([a, b])).all()


def test_fake_backend_receives_every_encode(encoder):
    """Encoder.encode_packed and the worker's gather path both bundle
    through the scoped backend: one call each, the worker's covering
    every feature row of its batch."""
    backend = RecordingBackend()
    ring, live, expected = mixed_batch(encoder, np.random.default_rng(3))
    codebook = SimpleNamespace(array=encoder.packed_codebook().words)
    with kernels.use_kernel_backend(backend):
        encoder.encode_packed(np.zeros((5, NUM_FEATURES)))
        assert backend.bundle_rows == [5]
        got = _gather_queries(
            ring, live, tenant_for(encoder), codebook, 0, 16
        )
    assert backend.bundle_rows == [5, 3]
    assert (got == expected).all()
