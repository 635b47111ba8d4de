"""Live-recovery serving tests: snapshot adoption, bit-identity, degraded mode.

The headline equivalence pin: a seeded attack-and-recover run publishing
generations into a serving engine under live traffic must end
bit-identical — final model words *and* served predictions — to the same
run executed sequentially with no serving tier attached.  Publishing
draws from no RNG and reads only the version-stamped packed cache, so
any divergence is a real concurrency bug.  The same pin holds when the
recovering tenant is served through the TCP gateway, in single frames or
``SUBMIT_BATCH`` frames, beside a second tenant that must never see a
changed answer.
"""

import asyncio
import glob
import threading
import time

import numpy as np
import pytest

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.packed import PackedModel
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import ModelPublisher, RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import (
    AsyncGatewayClient,
    GatewayServer,
    ServingEngine,
    TenantRegistry,
)
from repro.serve.autoscale import WorkerAutoscaler
from repro.serve.shm import ShmArray, generation_segment
from serve_helpers import serve_all


class RecordingPublisher:
    """In-process ModelPublisher keeping the last published snapshot."""

    def __init__(self):
        self.words = None
        self.version = 0
        self.generations = 0
        self.touches = 0

    def publish(self, model):
        packed = model.packed()
        self.words = packed.words.copy()
        self.version = packed.version
        self.generations += 1
        return self.generations

    def touch(self):
        self.touches += 1


@pytest.fixture(scope="module")
def task():
    return make_prototype_classification(
        "live", num_features=16, num_classes=5, num_train=300, num_test=200,
        seed=0,
    )


def make_experiment(task):
    return RecoveryExperiment(dataset=task, dim=1_000, epochs=2, levels=16,
                              seed=7)


def run_reference(task):
    recorder = RecordingPublisher()
    experiment = make_experiment(task)
    outcome = experiment.attack_and_recover(
        0.2, config=RecoveryConfig(), passes=2, seed=11, publisher=recorder,
    )
    return experiment, outcome, recorder


class TestPublisherContract:
    def test_recording_publisher_satisfies_protocol(self):
        assert isinstance(RecordingPublisher(), ModelPublisher)

    def test_publisher_does_not_change_outcome(self, task):
        bare = make_experiment(task).attack_and_recover(
            0.2, config=RecoveryConfig(), passes=2, seed=11,
        )
        _, published, recorder = run_reference(task)
        assert published.accuracy_trace == bare.accuracy_trace
        assert published.recovered_accuracy == bare.recovered_accuracy
        assert recorder.generations >= 1

    def test_blocks_without_writes_heartbeat_instead(self, task):
        from repro.core.recovery import RobustHDRecovery

        experiment = make_experiment(task)
        recorder = RecordingPublisher()
        recovery = RobustHDRecovery(
            experiment.model, RecoveryConfig(), seed=1, publisher=recorder,
        )
        # _announce runs once per processed block: the first announce
        # publishes the initial model as a generation; an announce with
        # no intervening model write must heartbeat, not republish an
        # identical generation; a write makes the next one publish again.
        recovery._announce()
        recovery._announce()
        assert (recorder.generations, recorder.touches) == (1, 1)
        with experiment.model.writable() as hv:
            hv[0, 0] ^= 1
        recovery._announce()
        assert (recorder.generations, recorder.touches) == (2, 1)


class TestConcurrentBitIdentity:
    def test_concurrent_run_matches_sequential_reference(self, task):
        reference, ref_outcome, recorder = run_reference(task)
        eval_words = reference._eval_packed.words

        concurrent = make_experiment(task)
        engine = ServingEngine(concurrent.classifier, num_workers=2)
        prefix = engine.config.prefix
        stop = threading.Event()
        rounds = 0

        def traffic():
            nonlocal rounds
            while not stop.is_set():
                serve_all(engine, eval_words)
                rounds += 1

        thread = threading.Thread(target=traffic, daemon=True)
        thread.start()
        try:
            outcome = concurrent.attack_and_recover(
                0.2, config=RecoveryConfig(), passes=2, seed=11,
                publisher=engine.publisher,
            )
            final_predictions = serve_all(engine, eval_words)
        finally:
            stop.set()
            thread.join()
            engine.stop()

        # The run itself is unperturbed by concurrent serving...
        assert outcome.accuracy_trace == ref_outcome.accuracy_trace
        assert outcome.recovered_accuracy == ref_outcome.recovered_accuracy
        # ...the published generations match the sequential recorder...
        assert engine.publisher.generation - 1 == recorder.generations
        # ...and the last served snapshot is bit-identical: model words
        # (via served predictions on the recovered model) included.
        ref_model = PackedModel(words=recorder.words, dim=1_000,
                                version=recorder.version)
        ref_predictions = np.argmin(ref_model.distances(eval_words), axis=1)
        assert (final_predictions == ref_predictions).all()
        assert rounds >= 1  # traffic genuinely overlapped the recovery
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    def test_requests_after_publish_see_new_generation(self, task):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1)
        try:
            serve_all(engine, eval_words)  # generation 1 traffic
            model = experiment.model
            with model.writable() as hv:
                hv[:, 0] ^= 1  # flip every class's first bit
            engine.publisher.publish(model)
            served = serve_all(engine, eval_words)
            expected = np.argmin(model.packed().distances(eval_words), axis=1)
            assert (served == expected).all()
            assert engine.trace.last.generation == 2
        finally:
            engine.stop()


@pytest.fixture(scope="module")
def bystander():
    """A second tenant that is served but never attacked or recovered."""
    other = make_prototype_classification(
        "live-bystander", num_features=16, num_classes=4, num_train=160,
        num_test=16, seed=5,
    )
    encoder = Encoder(num_features=16, dim=1_000, levels=16, seed=6)
    clf = HDCClassifier(encoder, num_classes=4, epochs=1, seed=7).fit(
        other.train_x, other.train_y
    )
    return other, clf


class TestGatewayLiveRecovery:
    @pytest.mark.parametrize("frame_batch", [1, 8, 32])
    def test_gateway_run_matches_sequential_reference(
        self, task, bystander, frame_batch
    ):
        """One tenant is attacked and recovered while both tenants are
        served over one gateway connection, with the worker autoscaler
        running: ``SUBMIT_BATCH`` frames of ``frame_batch`` requests on
        a credited connection, or pipelined single frames on a plain one
        when ``frame_batch`` is 1.  The recovered tenant ends
        bit-identical to the sequential recorder (model words and served
        predictions); the other tenant's answers never change."""
        reference, ref_outcome, recorder = run_reference(task)
        eval_words = reference._eval_packed.words
        ref_predictions = np.argmin(
            PackedModel(words=recorder.words, dim=1_000,
                        version=recorder.version).distances(eval_words),
            axis=1,
        )
        other_task, other_clf = bystander
        qpr = 8
        other_words = other_clf.encoder.encode_packed(
            other_task.test_x[:qpr]
        ).words
        other_expected = other_clf.predict(other_task.test_x[:qpr])

        concurrent = make_experiment(task)
        tenants = TenantRegistry()
        tenants.add("attacked", concurrent.classifier)
        tenants.add("bystander", other_clf)
        engine = ServingEngine(
            tenants, num_workers=2, min_workers=2, max_workers=3,
            ring_slots=128, max_queries_per_request=qpr * frame_batch,
        )
        prefix = engine.config.prefix
        server = GatewayServer(engine, connection_window=128).start()
        scaler = WorkerAutoscaler(engine, interval_s=0.1).start()
        publisher = engine.publisher_for("attacked")
        done = threading.Event()
        result = {}

        def recover():
            try:
                result["outcome"] = concurrent.attack_and_recover(
                    0.2, config=RecoveryConfig(), passes=2, seed=11,
                    publisher=publisher,
                )
            finally:
                done.set()

        async def send(client, tenant, payloads):
            if frame_batch == 1:
                return list(await asyncio.gather(*[
                    client.predict(p, tenant=tenant) for p in payloads
                ]))
            return await client.submit_batch(payloads, tenant=tenant)

        async def pump(client, tenant, words, check):
            """Frames until recovery lands, and two more; returns how
            many frames were issued while it was running."""
            during, after = 0, 0
            while after < 2:
                # Captured before issuing: only frames sent after the
                # final generation may be held to the recovered model.
                settled = done.is_set()
                entries = await send(client, tenant, [words] * frame_batch)
                assert len(entries) == frame_batch
                for got in entries:
                    check(got, settled)
                if settled:
                    after += 1
                else:
                    during += 1
            return during

        def check_attacked(got, settled):
            if settled:
                np.testing.assert_array_equal(got, ref_predictions[:qpr])

        def check_bystander(got, settled):
            np.testing.assert_array_equal(got, other_expected)

        async def drive():
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", server.port, credited=frame_batch > 1
            )
            try:
                assert client.credited == (frame_batch > 1)
                # Traffic is flowing before the recovery thread starts.
                check_bystander(
                    (await send(client, "bystander", [other_words]))[0],
                    False,
                )
                thread = threading.Thread(target=recover, daemon=True)
                thread.start()
                try:
                    during = await asyncio.gather(
                        *[pump(client, "attacked", eval_words[:qpr],
                               check_attacked) for _ in range(3)],
                        *[pump(client, "bystander", other_words,
                               check_bystander) for _ in range(3)],
                    )
                finally:
                    await asyncio.to_thread(thread.join)
                chunks = [eval_words[lo:lo + qpr]
                          for lo in range(0, eval_words.shape[0], qpr)]
                served = []
                for lo in range(0, len(chunks), frame_batch):
                    served += await send(
                        client, "attacked", chunks[lo:lo + frame_batch]
                    )
                return during, np.concatenate(served)
            finally:
                await client.close()

        try:
            during, final_predictions = asyncio.run(drive())
            shed = server.admission.shed_total
            # The words the workers map for the attacked tenant's final
            # generation.
            segment = ShmArray.attach(
                generation_segment(publisher.prefix, publisher.generation),
                recorder.words.shape, recorder.words.dtype,
            )
            final_words = segment.array.copy()
            segment.close()
        finally:
            scaler.stop()
            server.stop()
            engine.stop()

        outcome = result["outcome"]
        assert outcome.accuracy_trace == ref_outcome.accuracy_trace
        assert publisher.generation - 1 == recorder.generations
        np.testing.assert_array_equal(final_words, recorder.words)
        np.testing.assert_array_equal(final_predictions, ref_predictions)
        assert sum(during) > 0  # frames were served while recovery ran
        assert shed == 0  # no shed at this load
        assert glob.glob(f"/dev/shm/{prefix}*") == []


class TestDegradedMode:
    def test_stalled_writer_flags_degraded_batches(self, task):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            serve_all(engine, eval_words)
            assert engine.trace.degraded_batches == 0
            # A writer registers (touch), then stalls past the threshold.
            engine.publisher.touch()
            time.sleep(0.2)
            serve_all(engine, eval_words)
            last = engine.trace.last
            assert last.degraded
            assert last.staleness_s >= 0.05
            # Serving carried on regardless: availability over freshness.
            assert engine.trace.requests_expired == 0
        finally:
            engine.stop()

    def test_idle_engine_without_writer_is_not_degraded(self, task):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            time.sleep(0.2)  # far past the stall threshold, but no writer
            serve_all(engine, eval_words)
            assert engine.trace.degraded_batches == 0
            assert engine.trace.last.staleness_s == 0.0
        finally:
            engine.stop()

    def test_finished_recovery_deregisters_writer(self, task):
        experiment = make_experiment(task)
        eval_words = experiment._eval_packed.words
        engine = ServingEngine(experiment.classifier, num_workers=1,
                               stall_timeout=0.05)
        try:
            experiment.attack_and_recover(
                0.2, config=RecoveryConfig(), passes=1, seed=11,
                publisher=engine.publisher,
            )
            time.sleep(0.2)  # recovery done; its silence is not a stall
            serve_all(engine, eval_words)
            assert engine.trace.last is not None
            assert not engine.trace.last.degraded
        finally:
            engine.stop()
