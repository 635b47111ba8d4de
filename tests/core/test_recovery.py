"""Tests for probabilistic substitution and the recovery loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.packed import pack
from repro.core.recovery import (
    RecoveryConfig,
    RecoveryStats,
    RobustHDRecovery,
    probabilistic_substitution,
    recover_block,
    recover_step,
)
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.obs.metrics import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def fitted():
    task = make_prototype_classification(
        "toy", num_features=60, num_classes=5, num_train=300, num_test=200,
        boundary_fraction=0.4, boundary_depth=(0.25, 0.45), seed=7,
    )
    encoder = Encoder(num_features=60, dim=2_000, seed=3)
    clf = HDCClassifier(encoder, num_classes=5, epochs=0).fit(
        task.train_x, task.train_y
    )
    encoded_test = encoder.encode_batch(task.test_x)
    return clf.model, encoded_test, np.asarray(task.test_y)


@pytest.fixture(scope="module")
def fitted_10k():
    """The benchmark's geometry: D=10,000 with the default 20 chunks, so
    every chunk is 500 bits and no chunk starts on a word boundary."""
    task = make_prototype_classification(
        "toy10k", num_features=60, num_classes=5, num_train=300,
        num_test=120, boundary_fraction=0.4, boundary_depth=(0.25, 0.45),
        seed=8,
    )
    encoder = Encoder(num_features=60, dim=10_000, seed=4)
    clf = HDCClassifier(encoder, num_classes=5, epochs=0).fit(
        task.train_x, task.train_y
    )
    encoded_test = encoder.encode_batch(task.test_x)
    return clf.model, encoded_test, np.asarray(task.test_y)


class TestRecoveryConfig:
    def test_defaults_valid(self):
        RecoveryConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(confidence_threshold=1.5),
            dict(substitution_rate=0.0),
            dict(substitution_rate=1.5),
            dict(num_chunks=0),
            dict(detection_margin=-0.1),
            dict(temperature=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestProbabilisticSubstitution:
    def test_rate_one_copies_everything(self):
        rng = np.random.default_rng(0)
        target = np.zeros(100, dtype=np.uint8)
        source = np.ones(100, dtype=np.uint8)
        changed = probabilistic_substitution(target, source, 1.0, rng)
        assert changed == 100
        assert (target == source).all()

    def test_in_place(self):
        rng = np.random.default_rng(1)
        target = np.zeros(50, dtype=np.uint8)
        view = target[10:30]
        probabilistic_substitution(view, np.ones(20, dtype=np.uint8), 1.0, rng)
        assert target[10:30].sum() == 20
        assert target[:10].sum() == 0

    def test_equal_vectors_change_nothing(self):
        rng = np.random.default_rng(2)
        target = rng.integers(0, 2, 100, dtype=np.uint8)
        changed = probabilistic_substitution(target, target.copy(), 0.5, rng)
        assert changed == 0

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_expected_change_rate(self, rate):
        rng = np.random.default_rng(3)
        target = np.zeros(4_000, dtype=np.uint8)
        source = np.ones(4_000, dtype=np.uint8)
        changed = probabilistic_substitution(target, source, rate, rng)
        assert abs(changed / 4_000 - rate) < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            probabilistic_substitution(
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8),
                0.5, np.random.default_rng(0),
            )

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            probabilistic_substitution(
                np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                0.0, np.random.default_rng(0),
            )


class TestRecoverStep:
    def test_returns_prediction(self, fitted):
        model, queries, labels = fitted
        config = RecoveryConfig(num_chunks=20)
        pred = recover_step(
            model.copy(), queries[0], config, np.random.default_rng(0)
        )
        assert 0 <= pred < model.num_classes

    def test_untrusted_query_never_writes(self, fitted):
        model, queries, _ = fitted
        work = model.copy()
        config = RecoveryConfig(confidence_threshold=1.0, num_chunks=20)
        stats = RecoveryStats()
        for q in queries[:20]:
            recover_step(work, q, config, np.random.default_rng(0), stats)
        assert (work.class_hv == model.class_hv).all()
        assert stats.queries_trusted == 0
        assert stats.queries_seen == 20

    def test_clean_model_barely_touched(self, fitted):
        """On an unattacked model the margin gate keeps repair volume tiny."""
        model, queries, _ = fitted
        work = model.copy()
        config = RecoveryConfig(num_chunks=20)
        rng = np.random.default_rng(1)
        stats = RecoveryStats()
        for q in queries[:50]:
            recover_step(work, q, config, rng, stats)
        changed = np.mean(work.class_hv != model.class_hv)
        assert changed < 0.02

    def test_multibit_model_rejected(self, fitted):
        model, queries, _ = fitted
        bad = HDCModel(class_hv=model.class_hv.copy(), bits=2)
        # valid levels for 2-bit, but recovery is binary-only
        with pytest.raises(ValueError, match="1-bit"):
            recover_step(
                bad, queries[0], RecoveryConfig(), np.random.default_rng(0)
            )

    def test_query_shape_validated(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="1-D vector"):
            recover_step(
                model.copy(), np.zeros((2, model.dim), dtype=np.uint8),
                RecoveryConfig(), np.random.default_rng(0),
            )

    def test_stats_accumulate(self, fitted):
        model, queries, _ = fitted
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(2))
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        stats = RecoveryStats()
        rng = np.random.default_rng(3)
        for q in queries[:30]:
            recover_step(attacked, q, config, rng, stats)
        assert stats.queries_seen == 30
        assert stats.queries_trusted > 0
        assert stats.chunks_checked == stats.queries_trusted * 20
        assert len(stats.confidence_trace) == 30
        assert 0.0 <= stats.trust_rate <= 1.0


class TestRecoverBlock:
    """Batched recovery must replay the sequential stream exactly."""

    def _attacked(self, fitted, seed=20):
        model, queries, _ = fitted
        return (
            attack(model, 0.10, "random",
                   np.random.default_rng(seed))[0],
            queries,
        )

    def _run(self, model, queries, block_size):
        work = model.copy()
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        rng = np.random.default_rng(7)
        stats = RecoveryStats()
        preds = []
        for lo in range(0, queries.shape[0], block_size):
            preds.append(
                recover_block(
                    work, queries[lo : lo + block_size], config, rng, stats
                )
            )
        return work, np.concatenate(preds), stats

    def test_block_size_order_equivalent(self, fitted):
        """Any block size gives the same predictions, model, and stats as
        the one-query-at-a-time stream (identical RNG draw order)."""
        self._check_block_size_order(fitted)

    def test_block_size_order_equivalent_benchmark_shape(self, fitted_10k):
        self._check_block_size_order(fitted_10k)

    def _check_block_size_order(self, fitted):
        attacked, queries = self._attacked(fitted)
        ref_model, ref_preds, ref_stats = self._run(attacked, queries[:60], 1)
        for block_size in (7, 60):
            work, preds, stats = self._run(attacked, queries[:60], block_size)
            assert (preds == ref_preds).all()
            assert (work.class_hv == ref_model.class_hv).all()
            assert stats.bits_substituted == ref_stats.bits_substituted
            assert stats.chunks_repaired == ref_stats.chunks_repaired
            assert stats.confidence_trace == ref_stats.confidence_trace

    def test_packed_and_float64_identical(self, fitted):
        self._check_packed_and_float_identical(fitted)

    def test_packed_and_float64_identical_benchmark_shape(self, fitted_10k):
        self._check_packed_and_float_identical(fitted_10k)

    def _check_packed_and_float_identical(self, fitted):
        """The same bits as float64 take the float reference end to end
        and must replay the packed run exactly."""
        attacked, queries = self._attacked(fitted)
        packed_model, packed_preds, packed_stats = self._run(
            attacked, queries[:60], 16
        )
        with use_metrics(MetricsRegistry()) as registry:
            float_model, float_preds, float_stats = self._run(
                attacked, queries[:60].astype(np.float64), 16
            )
        assert registry.counter("model.similarity_batches_packed") == 0
        assert registry.counter("chunks.detect_batches_packed") == 0
        assert registry.counter("chunks.detect_batches_float") > 0
        assert (packed_preds == float_preds).all()
        assert (packed_model.class_hv == float_model.class_hv).all()
        assert packed_stats.bits_substituted == float_stats.bits_substituted
        assert packed_stats.bits_substituted > 0

    def test_recover_step_is_block_of_one(self, fitted):
        attacked, queries = self._attacked(fitted)
        a, b = attacked.copy(), attacked.copy()
        config = RecoveryConfig(confidence_threshold=0.5, num_chunks=20)
        for q in queries[:20]:
            p_step = recover_step(a, q, config, np.random.default_rng(9))
            p_block = recover_block(
                b, q[None, :], config, np.random.default_rng(9)
            )
            assert p_step == p_block[0]
        assert (a.class_hv == b.class_hv).all()

    def test_empty_block(self, fitted):
        model, queries, _ = fitted
        preds = recover_block(
            model.copy(), queries[:0], RecoveryConfig(num_chunks=20),
            np.random.default_rng(0),
        )
        assert preds.shape == (0,)


class TestRobustHDRecovery:
    def test_block_size_equivalence(self, fitted):
        """The streaming wrapper matches itself across block sizes."""
        model, queries, _ = fitted
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(12))
        outs = []
        for block_size in (1, 32, 256):
            work = attacked.copy()
            rec = RobustHDRecovery(
                work, RecoveryConfig(confidence_threshold=0.5),
                seed=4, block_size=block_size,
            )
            preds = rec.process(queries[:80])
            outs.append((preds, work.class_hv.copy(), rec.stats))
        for preds, class_hv, stats in outs[1:]:
            assert (preds == outs[0][0]).all()
            assert (class_hv == outs[0][1]).all()
            assert stats.bits_substituted == outs[0][2].bits_substituted

    def test_bad_block_size(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="block_size"):
            RobustHDRecovery(model.copy(), block_size=0)


    def test_recovery_improves_attacked_model(self, fitted):
        """The paper's core claim at unit scale: online unsupervised
        recovery wins back accuracy lost to a 10% attack."""
        model, queries, labels = fitted
        clean_acc = float(np.mean(model.predict(queries) == labels))
        attacked, _ = attack(model, 0.10, "random",
                             np.random.default_rng(4))
        attacked_acc = float(np.mean(attacked.predict(queries) == labels))
        recovery = RobustHDRecovery(attacked, RecoveryConfig(), seed=5)
        stream, evalq = queries[:120], queries[120:]
        eval_labels = labels[120:]
        for _ in range(3):
            recovery.process(stream)
        recovered_acc = float(np.mean(attacked.predict(evalq) == eval_labels))
        eval_attacked = float(
            np.mean(
                attack(model, 0.10, "random",
                       np.random.default_rng(4))[0]
                .predict(evalq) == eval_labels
            )
        )
        assert recovered_acc >= eval_attacked - 0.02
        assert recovery.stats.bits_substituted > 0

    def test_process_returns_predictions(self, fitted):
        model, queries, _ = fitted
        recovery = RobustHDRecovery(model.copy(), RecoveryConfig(), seed=0)
        preds = recovery.process(queries[:10])
        assert preds.shape == (10,)
        assert ((preds >= 0) & (preds < model.num_classes)).all()

    def test_indivisible_chunks_rejected(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError, match="divisible"):
            RobustHDRecovery(model.copy(), RecoveryConfig(num_chunks=7))

    def test_multibit_rejected(self, fitted):
        model, _, _ = fitted
        bad = HDCModel(class_hv=model.class_hv.copy(), bits=2)
        with pytest.raises(ValueError, match="1-bit"):
            RobustHDRecovery(bad)


class TestRecoveryStats:
    def test_trust_rate_empty(self):
        stats = RecoveryStats()
        assert stats.trust_rate == 0.0

    def test_trust_rate_ratio(self):
        stats = RecoveryStats(queries_seen=10, queries_trusted=4)
        assert stats.trust_rate == pytest.approx(0.4)


class TestPackedStreamIngest:
    """A packed query stream must drive recovery bit-identically."""

    def test_process_packed_equals_uint8(self, fitted):
        self._check_process_packed_equals_uint8(fitted)

    def test_process_packed_equals_uint8_benchmark_shape(self, fitted_10k):
        # A zero margin makes the 10% attack trip the detector at 500-bit
        # chunks, so the comparison covers substitutions too.
        stats = self._check_process_packed_equals_uint8(
            fitted_10k, RecoveryConfig(detection_margin=0.0)
        )
        assert stats.bits_substituted > 0

    def _check_process_packed_equals_uint8(self, fitted, config=None):
        model, encoded_test, _ = fitted
        stream = encoded_test[:120]
        packed_stream = pack(stream)
        rng = np.random.default_rng(0)
        attacked_a, _ = attack(model.copy(), 0.08, "random", rng)
        attacked_b = attacked_a.copy()

        rec_a = RobustHDRecovery(attacked_a, config, seed=9)
        rec_b = RobustHDRecovery(attacked_b, config, seed=9)
        preds_a = rec_a.process(stream)
        preds_b = rec_b.process(packed_stream)

        assert (preds_a == preds_b).all()
        assert (attacked_a.class_hv == attacked_b.class_hv).all()
        assert rec_a.stats.bits_substituted == rec_b.stats.bits_substituted
        assert rec_a.stats.queries_trusted == rec_b.stats.queries_trusted
        return rec_a.stats

    def test_recover_block_packed_equals_uint8(self, fitted):
        self._check_recover_block_packed_equals_uint8(fitted)

    def test_recover_block_packed_equals_uint8_benchmark_shape(
        self, fitted_10k
    ):
        stats = self._check_recover_block_packed_equals_uint8(
            fitted_10k, RecoveryConfig(detection_margin=0.0)
        )
        assert stats.bits_substituted > 0

    def _check_recover_block_packed_equals_uint8(
        self, fitted, config=RecoveryConfig()
    ):
        model, encoded_test, _ = fitted
        block = encoded_test[:60]
        rng = np.random.default_rng(1)
        attacked_a, _ = attack(model.copy(), 0.10, "random", rng)
        attacked_b = attacked_a.copy()
        stats_a, stats_b = RecoveryStats(), RecoveryStats()
        preds_a = recover_block(
            attacked_a, block, config, np.random.default_rng(4), stats_a
        )
        preds_b = recover_block(
            attacked_b, pack(block), config, np.random.default_rng(4),
            stats_b,
        )
        assert (preds_a == preds_b).all()
        assert (attacked_a.class_hv == attacked_b.class_hv).all()
        assert stats_a.bits_substituted == stats_b.bits_substituted
        return stats_a

    @pytest.mark.parametrize("form", ["uint8", "packed"])
    def test_chunk_votes_never_take_float_path(self, fitted_10k, form):
        """A 1-bit model's chunk detection stays on the packed kernel at
        the benchmark shape, whatever form the stream arrives in."""
        model, encoded_test, _ = fitted_10k
        stream = encoded_test[:60]
        attacked, _ = attack(model, 0.10, "random", np.random.default_rng(2))
        rec = RobustHDRecovery(attacked, seed=5)
        with use_metrics(MetricsRegistry()) as registry:
            rec.process(pack(stream) if form == "packed" else stream)
        assert rec.stats.queries_trusted > 0
        assert registry.counter("chunks.detect_batches_packed") > 0
        assert registry.counter("chunks.detect_batches_float") == 0

    def test_packed_dim_mismatch_rejected(self, fitted):
        model, _, _ = fitted
        bad = pack(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="dim"):
            recover_block(
                model, bad, RecoveryConfig(), np.random.default_rng(0)
            )
