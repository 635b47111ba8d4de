"""Tests for noisy-chunk detection."""

import numpy as np
import pytest

from repro.core.chunks import (
    chunk_accuracy_profile,
    chunk_similarities,
    chunk_similarities_batch,
    detect_faulty_chunks,
    detect_faulty_chunks_batch,
)
from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import pack
from repro.datasets.synthetic import make_prototype_classification
from repro.obs.metrics import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=40, num_classes=4, num_train=200, num_test=80,
        boundary_fraction=0.2, boundary_depth=(0.25, 0.4), seed=6,
    )
    encoder = Encoder(num_features=40, dim=1_000, seed=2)
    clf = HDCClassifier(encoder, num_classes=4, epochs=0).fit(
        task.train_x, task.train_y
    )
    encoded_test = encoder.encode_batch(task.test_x)
    return clf.model, encoded_test, np.asarray(task.test_y)


class TestChunkSimilarities:
    def test_chunks_sum_to_global(self, fitted):
        """Per-chunk scores partition the full similarity exactly."""
        model, queries, _ = fitted
        q = queries[0]
        sims = chunk_similarities(model, q, 10)
        total = model.similarities(q[None, :])[0]
        assert np.allclose(sims.sum(axis=0), total)

    def test_shape(self, fitted):
        model, queries, _ = fitted
        assert chunk_similarities(model, queries[0], 20).shape == (20, 4)

    def test_rejects_batch(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="single 1-D"):
            chunk_similarities(model, queries[:2], 10)

    def test_rejects_dim_mismatch(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="dim"):
            chunk_similarities(model, np.zeros(999, dtype=np.uint8), 10)


class TestDetectFaultyChunks:
    def test_clean_model_mostly_healthy(self, fitted):
        model, queries, labels = fitted
        flags = 0
        for q in queries[:30]:
            pred = int(model.predict(q[None, :])[0])
            flags += detect_faulty_chunks(model, q, pred, 10, margin=0.03).sum()
        assert flags / (30 * 10) < 0.10

    def test_damaged_chunk_detected(self, fitted):
        """Concentrated damage in one chunk of the right class trips the
        detector for that chunk specifically."""
        model, queries, labels = fitted
        damaged = model.copy()
        q = queries[0]
        pred = int(model.predict(q[None, :])[0])
        # Invert chunk 3 of the predicted class outright.
        d = model.dim // 10
        damaged.class_hv[pred, 3 * d : 4 * d] ^= 1
        faulty = detect_faulty_chunks(damaged, q, pred, 10, margin=0.03)
        assert faulty[3]

    def test_margin_zero_is_strict(self, fitted):
        model, queries, _ = fitted
        q = queries[0]
        pred = int(model.predict(q[None, :])[0])
        strict = detect_faulty_chunks(model, q, pred, 10, margin=0.0)
        lenient = detect_faulty_chunks(model, q, pred, 10, margin=0.2)
        assert strict.sum() >= lenient.sum()

    def test_bad_predicted(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="predicted class"):
            detect_faulty_chunks(model, queries[0], 99, 10)

    def test_bad_margin(self, fitted):
        model, queries, _ = fitted
        with pytest.raises(ValueError, match="margin"):
            detect_faulty_chunks(model, queries[0], 0, 10, margin=-0.1)


GEOMETRIES = [(1280, 20), (1000, 10), (10_000, 20), (1280, 40), (999, 3)]


class TestBatchedChunkOps:
    """The batched sweeps must equal per-query float loops for every
    chunk geometry, word-aligned (1280/20) or not, and for both input
    forms."""

    @pytest.fixture(scope="class")
    def aligned(self):
        rng = np.random.default_rng(21)
        model = HDCModel(rng.integers(0, 2, (5, 1280), dtype=np.uint8))
        queries = rng.integers(0, 2, (16, 1280), dtype=np.uint8)
        return model, queries

    @pytest.mark.parametrize("form", ["uint8", "packed"])
    @pytest.mark.parametrize(
        "dim, num_chunks", GEOMETRIES,
        ids=[f"{dim}-{m}" for dim, m in GEOMETRIES],
    )
    def test_batch_equals_float_reference(self, dim, num_chunks, form):
        rng = np.random.default_rng(dim + num_chunks)
        model = HDCModel(rng.integers(0, 2, (5, dim), dtype=np.uint8))
        queries = rng.integers(0, 2, (16, dim), dtype=np.uint8)
        batch_input = pack(queries) if form == "packed" else queries
        with use_metrics(MetricsRegistry()) as registry:
            batched = chunk_similarities_batch(model, batch_input, num_chunks)
        assert registry.counter("chunks.detect_batches_packed") == 1
        assert registry.counter("chunks.detect_batches_float") == 0
        with use_metrics(MetricsRegistry()) as registry:
            looped = np.stack([
                chunk_similarities(model, q, num_chunks)
                for q in queries.astype(np.float64)
            ])
        assert registry.counter("chunks.detect_batches_float") == 16
        assert batched.shape == (16, num_chunks, 5)
        assert (batched == looped).all()

    def test_multibit_model_takes_float_path(self):
        rng = np.random.default_rng(22)
        model = HDCModel(rng.integers(0, 4, (3, 1000), dtype=np.uint8), bits=2)
        queries = rng.integers(0, 2, (4, 1000), dtype=np.uint8)
        with use_metrics(MetricsRegistry()) as registry:
            sims = chunk_similarities_batch(model, queries, 10)
        assert registry.counter("chunks.detect_batches_float") == 1
        assert registry.counter("chunks.detect_batches_packed") == 0
        assert np.allclose(sims.sum(axis=1), model.similarities(queries))

    def test_detect_batch_equals_loop(self, aligned):
        model, queries = aligned
        preds = model.predict(queries)
        batched = detect_faulty_chunks_batch(model, queries, preds, 20, 0.02)
        looped = np.stack(
            [
                detect_faulty_chunks(model, q, int(p), 20, 0.02)
                for q, p in zip(queries, preds)
            ]
        )
        assert (batched == looped).all()

    def test_detect_batch_validates_predicted(self, aligned):
        model, queries = aligned
        with pytest.raises(ValueError, match="predicted class"):
            detect_faulty_chunks_batch(
                model, queries, np.full(queries.shape[0], 99), 20
            )
        with pytest.raises(ValueError, match="predicted must be"):
            detect_faulty_chunks_batch(model, queries, np.array([0]), 20)


class TestChunkAccuracyProfile:
    def test_batched_equals_loop_reference(self, fitted):
        """The vectorised profile matches the per-query loop it replaced."""
        model, queries, labels = fitted
        vectorised = chunk_accuracy_profile(
            model, queries[:40], labels[:40], 10
        )
        hits = np.zeros(10, dtype=np.int64)
        for query, label in zip(queries[:40], labels[:40]):
            sims = chunk_similarities(model, query, 10)
            hits += np.argmax(sims, axis=1) == label
        assert (vectorised == hits / 40.0).all()

    def test_profile_above_chance(self, fitted):
        model, queries, labels = fitted
        profile = chunk_accuracy_profile(model, queries[:40], labels[:40], 10)
        assert profile.shape == (10,)
        assert (profile > 1.0 / 4).all()  # every chunk beats chance

    def test_damage_dents_profile(self, fitted):
        model, queries, labels = fitted
        damaged = model.copy()
        d = model.dim // 10
        damaged.class_hv[:, 5 * d : 6 * d] ^= 1  # nuke chunk 5 of all classes
        clean = chunk_accuracy_profile(model, queries[:40], labels[:40], 10)
        hurt = chunk_accuracy_profile(damaged, queries[:40], labels[:40], 10)
        assert hurt[5] < clean[5]
