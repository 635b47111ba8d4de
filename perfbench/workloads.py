"""The four perfbench workloads, all at one canonical shape.

Every workload serves one tenant -- ``make_prototype_classification``
with 32 features and 26 classes, ``Encoder(dim=10_000, levels=32)``,
``HDCClassifier(epochs=1)`` -- from ``ServingEngine(num_workers=1)``
behind a ``GatewayServer`` on loopback, and drives it from this process
over at most two client connections.  Inputs come from the run's seed
and are generated before timing starts; every answer is checked against
an in-process reference.  See ``README.md`` for why each workload exists.

A workload function returns a :class:`Outcome`: request counts, the
end-to-end figures by their detail names, and (when a tracer is given)
the client-side root spans the ledger in :mod:`tracing` joins against.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier
from repro.core.packed import PackedModel
from repro.core.recovery import RecoveryConfig, RobustHDRecovery
from repro.datasets.synthetic import make_prototype_classification
from repro.faults.api import attack
from repro.serve import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayServer,
    ServingEngine,
)
from repro.serve.client import GatewayError, GatewayRejected
from repro.serve.protocol import ProtocolError

DIM = 10_000
LEVELS = 32
NUM_CLASSES = 26
NUM_FEATURES = 32
ROWS = 4                      # query rows per request
FRAME_REQUESTS = 32           # requests per SUBMIT_BATCH frame
FRAMES_IN_FLIGHT = 2
# In-flight cap (the gateway sheds beyond it): deep enough that a 100 ms
# host stall at 2000 req/s queues instead of failing requests.
RING_SLOTS = 256
# The batch loop keeps two 32-request frames in flight on one credited
# connection, so its window must hold 64 requests.
CONNECTION_WINDOW = FRAME_REQUESTS * FRAMES_IN_FLIGHT
HTTP_CONNECTIONS = 2
NUM_TRAIN = NUM_CLASSES * 40
NUM_TEST = 4000               # recovery: 2000 stream + 2000 evaluation
BASE_ROWS = 1024              # encoded rows the packed request pool mutates
FLIP_BITS = 100               # bits flipped per pooled row (1% of D)
POOL_REQUESTS = 8192          # 32768 rows, 41 MB: larger than any cache
HTTP_POOL_REQUESTS = 2048
FEATURE_JITTER = 0.01
LADDER = (500, 1000, 2000)    # single_open arrival rates, req/s
P99_LIMIT_MS = 25.0
READ_RATE = 500               # recover_live reads, req/s
ATTACK_RATE = 0.10
PASSES = 2
ROUND_GAP_S = 0.15            # reads between rounds see the final model
REALISATIONS = 16            # seeded attacks a recover_live run cycles through
READ_SLACK_S = 120.0
SETUP_REPEATS = 5
WARMUP_S = 0.3
WARMUP_REQUESTS = 1024        # closed loops warm up on a fixed count
HTTP_WARMUP_REQUESTS = 128
# The closed loops measure fixed-count epochs, each on a fresh stack, so
# an epoch's work does not hang on how fast the host ran earlier ones
# (the engine's cost per request grows with the requests it has served).
BATCH_EPOCH_REQUESTS = 8192
HTTP_EPOCH_REQUESTS = 512
EPOCH_SLICES = 4              # CPU-cost slices per epoch
# Serving cost figures (CPU per request) are measured over many short
# slices -- epochs, windows of CPU_WINDOW_S -- and reported as their
# lower quartile.  The shared host's speed swings by up to 70% within a
# second (a fixed Python loop's CPU time, measured on a 2-vCPU Xeon VM),
# and a slice that ran while the host was busy costs more; the lower
# quartile holds the cost on a quiet host, the median does not.
COST_QUANTILE = 25
CPU_WINDOW_S = 0.25
# About the CPU time of one HostSpeed calibration sample on that VM (17-23
# ms measured); scaled times read as times at that host speed.
CALIBRATION_REFERENCE_S = 0.020
CALIBRATION_LOOP = 70_000
CALIBRATION_ROWS = 800
WINDOW_S = 1.0
DRAIN_TIMEOUT_S = 30.0
HOST = "127.0.0.1"

# OSError covers refused and reset connections and timeouts.
REQUEST_ERRORS = (GatewayRejected, GatewayError, ProtocolError, OSError)


def now() -> float:
    return time.perf_counter()


def ns(t: float) -> int:
    """A ``perf_counter`` reading in the tracer's integer nanoseconds."""
    return int(t * 1e9)


def _worker_cpu_s(pid: int) -> float:
    """CPU seconds a worker process has run, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/schedstat") as f:
            return int(f.read().split()[0]) / 1e9
    except FileNotFoundError:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(engine) -> float:
    """CPU seconds used so far by this process (every thread: client,
    gateway loop, engine collectors) and by the engine's workers.

    CPU time leaves out the time the host runs other tenants or other
    processes, so cost per request holds still on a shared host where
    wall-clock rates swing with the neighbours.
    """
    return time.process_time() + workers_cpu_s(engine)


def workers_cpu_s(engine) -> float:
    return sum(_worker_cpu_s(worker.pid) for worker in engine.workers)


class HostSpeed:
    """How fast the host runs right now, from a fixed calibration kernel.

    CPU costs drift with the host: its speed steps by 20-30% for seconds
    to minutes at a time as other tenants load the same cores and memory.
    The kernel -- a pure-Python loop and a memory-bound numpy
    XOR+popcount, about equal in time, code the program never runs --
    runs on the measuring thread just before and just after each slice
    (a set-up, an epoch, a recovery round), and :meth:`scale` turns the
    slice's CPU time into one at the reference speed.  In a 200 s probe
    of gateway_batch epochs this paired scaling cut the spread of the
    lower quartile between 8 s blocks from 0.089 to 0.047.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 1 << 63, (CALIBRATION_ROWS, 157), dtype=np.uint64)
        self._classes = rng.integers(0, 1 << 63, (NUM_CLASSES, 157), dtype=np.uint64)
        self.samples: list[float] = []

    def sample(self) -> float:
        """The kernel's CPU seconds, now."""
        start = time.thread_time()
        x, table = 0, {}
        for i in range(CALIBRATION_LOOP):
            x += i * i % 7
            table[i & 255] = x
        np.bitwise_count(self._rows[:, None, :] ^ self._classes[None]).sum(-1)
        self.samples.append(time.thread_time() - start)
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from a slice's CPU time to the reference host speed."""
        return 2 * CALIBRATION_REFERENCE_S / (before + after)


def cost_figure(values) -> float:
    """The reported cost of a set of slices (see COST_QUANTILE)."""
    return percentile(values, COST_QUANTILE)


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


def window_rates(start: float, elapsed: float, done, weight: int = 1) -> list:
    """Completions per second in each WINDOW_S window of a closed loop.

    The engine slows as it serves (see README), so the per-window rates
    show how much of its rate a run loses from start to end.
    """
    count = max(1, int(elapsed // WINDOW_S))
    index = np.minimum(((np.asarray(done) - start) // WINDOW_S).astype(int), count - 1)
    return (np.bincount(index, minlength=count)[:count] * weight / WINDOW_S).tolist()


def make_task():
    """The fixed task every workload serves (seed 0: the program's data)."""
    return make_prototype_classification(
        "perfbench", num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
        num_train=NUM_TRAIN, num_test=NUM_TEST, seed=0,
    )


def make_encoder() -> Encoder:
    return Encoder(num_features=NUM_FEATURES, dim=DIM, levels=LEVELS, seed=0)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class PackedPool:
    """Distinct packed requests ``(n, ROWS, words)`` with source labels."""

    words: np.ndarray
    labels: np.ndarray
    keys: list[int]
    reference: np.ndarray | None = None   # (n, ROWS) expected labels


def packed_pool(task, rng: np.random.Generator, requests: int) -> PackedPool:
    """Seeded requests: encoded test rows, each with FLIP_BITS bits flipped.

    Flipping a random 1% of a row's bits keeps it a plausible query of its
    source class while making every pooled row distinct.
    """
    base = make_encoder().encode_packed(task.test_x[:BASE_ROWS]).words
    rows = requests * ROWS
    source = rng.integers(0, BASE_ROWS, rows)
    words = base[source].copy()
    positions = rng.integers(0, DIM, (rows, FLIP_BITS))
    bits = np.left_shift(np.uint64(1), (positions % 64).astype(np.uint64))
    np.bitwise_xor.at(
        words, (np.repeat(np.arange(rows), FLIP_BITS), positions.ravel() // 64),
        bits.ravel(),
    )
    words = words.reshape(requests, ROWS, -1)
    return PackedPool(
        words=words,
        labels=np.asarray(task.test_y[:BASE_ROWS])[source].reshape(requests, ROWS),
        keys=[request_key(words[i]) for i in range(requests)],
    )


def request_key(payload: np.ndarray) -> int:
    """Join key of one request: a hash of its first query row.

    The tracer sees the same rows at the engine boundary, so client spans
    and engine residences meet on this key without a shared id.
    """
    return hash(np.ascontiguousarray(payload[0]).tobytes())


def set_reference(pool: PackedPool, classifier: HDCClassifier) -> None:
    """Expected labels: ``PackedModel.distances`` argmin per packed row."""
    flat = pool.words.reshape(-1, pool.words.shape[-1])
    distances = classifier.model.packed().distances(flat)
    pool.reference = np.argmin(distances, axis=1).reshape(pool.labels.shape)


# ---------------------------------------------------------------------------
# The serving stack and its set-up
# ---------------------------------------------------------------------------


class Stack:
    """One tenant behind ``ServingEngine(num_workers=1)`` and a gateway."""

    def __init__(self, task, *, http: bool, warm_payload: np.ndarray) -> None:
        self.classifier = HDCClassifier(
            make_encoder(), num_classes=NUM_CLASSES, epochs=1, seed=0,
        ).fit(task.train_x, task.train_y)
        self.engine = ServingEngine(
            self.classifier, num_workers=1, ring_slots=RING_SLOTS,
        )
        self.gateway = None
        try:
            self.gateway = GatewayServer(
                self.engine, connection_window=CONNECTION_WINDOW,
                http_port=0 if http else None,
            ).start()
            # The worker adopts generation 1 on its first batch.
            with GatewayClient(HOST, self.gateway.port) as client:
                client.predict(warm_payload)
        except BaseException:
            self.close()
            raise

    @property
    def tenant(self) -> str:
        return self.engine.tenants[0]

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
        self.engine.stop()


def timed_stack(task, speed: HostSpeed, *, http: bool, warm_payload: np.ndarray,
                setups: list) -> Stack:
    """Build a stack and append its set-up to ``setups``.

    A set-up is (CPU seconds, wall seconds, HostSpeed scale) of training,
    spawning the engine, starting the gateway and the first adoption; the
    CPU count takes in the new worker process's share.
    """
    before = speed.sample()
    cpu, start = time.process_time(), now()
    stack = Stack(task, http=http, warm_payload=warm_payload)
    wall = now() - start
    cpu = time.process_time() - cpu + workers_cpu_s(stack.engine)
    setups.append((cpu, wall, speed.scale(before, speed.sample())))
    return stack


def set_up(task, speed: HostSpeed, *, http: bool,
           warm_payload: np.ndarray) -> tuple[Stack, list]:
    """Build the stack once untimed, then SETUP_REPEATS timed; keep the last.

    The first build in a process runs slow (allocator and import warm-up),
    a cost of starting the process rather than of set-up.  Returns the
    stack and every timed set-up (see :func:`timed_stack`).
    """
    Stack(task, http=http, warm_payload=warm_payload).close()
    setups: list = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        stack = timed_stack(task, speed, http=http, warm_payload=warm_payload,
                            setups=setups)
    return stack, setups


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def count_failure(errors: dict, exc: BaseException, count: int = 1) -> None:
    """Tally a failed request by exception type and gateway code."""
    kind = type(exc).__name__
    code = getattr(exc, "code", None)
    if code is not None:
        kind += f".{getattr(code, 'name', code)}"
    errors[kind] = errors.get(kind, 0) + count


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    attempted: int = 0
    wrong: int = 0
    errors: dict = field(default_factory=dict)    # failure type -> count
    metrics: dict = field(default_factory=dict)   # detail name -> (value, unit)
    costs: dict = field(default_factory=dict)     # cost name -> per-slice values
    samples: dict = field(default_factory=dict)   # detail name -> sample count
    roots: list = field(default_factory=list)     # (start_ns, send_ns, end_ns, keys)
    primary_ms: float = float("nan")              # for trace.overhead_share
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def put(self, name: str, value: float, unit: str, samples: int | None = None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = int(samples)

    def put_cost(self, name: str, slices, unit: str) -> None:
        """A cost figure from its per-slice values (see COST_QUANTILE)."""
        self.costs[name] = [float(v) for v in slices]
        self.put(name, cost_figure(self.costs[name]), unit, len(self.costs[name]))


class _Checker:
    """Counts wrong answers and accuracy against labels."""

    def __init__(self, reference: np.ndarray, labels: np.ndarray) -> None:
        self.reference = reference
        self.labels = labels
        self.wrong = 0
        self.hits = 0
        self.rows = 0

    def check(self, index, predictions: np.ndarray) -> None:
        expected = self.reference[index]
        if predictions.shape != expected.shape or not np.array_equal(
            predictions, expected
        ):
            self.wrong += 1
        self.hits += int(np.count_nonzero(predictions == self.labels[index]))
        self.rows += predictions.size

    @property
    def accuracy(self) -> float:
        return self.hits / self.rows if self.rows else float("nan")


async def _timed_slices(stack: Stack, speed: HostSpeed | None, serve,
                        counts: list) -> list:
    """Serve a closed loop slice by slice, timing each slice's CPU.

    ``serve(count)`` awaits ``count`` more requests (None: until the
    loop's own deadline).  Returns per slice (start, wall seconds, CPU
    seconds, HostSpeed scale or None), the host's speed sampled just
    before and just after each slice.
    """
    slices = []
    before = speed.sample() if speed is not None else None
    for count in counts:
        cpu, start = cpu_seconds(stack.engine), now()
        await serve(count)
        wall, cpu = now() - start, cpu_seconds(stack.engine) - cpu
        after = speed.sample() if speed is not None else None
        slices.append((start, wall, cpu,
                       speed.scale(before, after) if speed is not None else None))
        before = after
    return slices


def _slice_counts(requests: int | None) -> list:
    return [None] if requests is None else [requests // EPOCH_SLICES] * EPOCH_SLICES


def _put_cpu_cost(out: Outcome, prefix: str, requests: int | None,
                  completed: int) -> None:
    """CPU per request in each slice, as measured and at the reference speed."""
    slices = out.extra["slices"]
    n = (completed if requests is None else requests) / len(slices)
    out.put_cost(f"{prefix}_cpu_us_per_req",
                 [cpu * 1e6 / n for _, _, cpu, _ in slices], "us")
    if slices[0][3] is not None:
        out.put_cost(f"{prefix}_ref_cpu_us_per_req",
                     [cpu * scale * 1e6 / n for _, _, cpu, scale in slices], "us")


async def _connect(port: int, *, credited: bool = False) -> AsyncGatewayClient:
    return await AsyncGatewayClient.connect(HOST, port, credited=credited)


# ---------------------------------------------------------------------------
# gateway_batch: closed loop, two 32-request frames in flight
# ---------------------------------------------------------------------------


def gateway_batch(stack: Stack, pool: PackedPool, seconds: float,
                  trace: bool, requests: int | None = None,
                  speed: HostSpeed | None = None) -> Outcome:
    """Two frames in flight for ``seconds``, or for ``requests`` requests
    when given (an epoch of fixed work)."""
    out = Outcome()
    checker = _Checker(pool.reference, pool.labels)
    frames_per_pool = len(pool.words) // FRAME_REQUESTS
    rtts: list[tuple] = []
    state = {"frame": 0, "requests": 0}

    async def loop(until: float, frames: int, record: bool, client) -> None:
        last = state["frame"] + frames

        async def sender() -> None:
            while now() < until and state["frame"] < last:
                frame = state["frame"]
                state["frame"] += 1
                lo = (frame % frames_per_pool) * FRAME_REQUESTS
                payloads = list(pool.words[lo:lo + FRAME_REQUESTS])
                sent = now()
                try:
                    replies = await client.submit_batch(
                        payloads, return_exceptions=True
                    )
                except REQUEST_ERRORS as exc:
                    if record:
                        state["requests"] += FRAME_REQUESTS
                        count_failure(out.errors, exc, FRAME_REQUESTS)
                    continue
                done = now()
                if not record:
                    continue
                state["requests"] += FRAME_REQUESTS
                ok = [r for r in replies if isinstance(r, np.ndarray)]
                for reply in replies:
                    if not isinstance(reply, np.ndarray):
                        count_failure(out.errors, reply)
                if len(ok) == FRAME_REQUESTS:
                    checker.check(slice(lo, lo + FRAME_REQUESTS), np.stack(ok))
                rtts.append((sent, done))
                if trace:
                    out.roots.append((
                        ns(sent), ns(sent), ns(done),
                        pool.keys[lo:lo + FRAME_REQUESTS],
                    ))

        await asyncio.gather(*(sender() for _ in range(FRAMES_IN_FLIGHT)))

    async def main() -> None:
        client = await _connect(stack.gateway.port, credited=True)
        try:
            await loop(math.inf, WARMUP_REQUESTS // FRAME_REQUESTS, False, client)

            async def serve(count):
                if count is None:
                    await loop(now() + seconds, math.inf, True, client)
                else:
                    await loop(math.inf, count // FRAME_REQUESTS, True, client)

            out.extra["slices"] = await _timed_slices(
                stack, speed, serve, _slice_counts(requests)
            )
            out.extra["credit_waits"] = client.credit_waits
        finally:
            await client.close()

    asyncio.run(main())
    out.extra["start"] = out.extra["slices"][0][0]
    elapsed = sum(wall for _, wall, _, _ in out.extra["slices"])
    out.attempted = state["requests"]
    out.wrong = checker.wrong
    times = np.asarray(rtts).reshape(-1, 2)
    rtt_ms = (times[:, 1] - times[:, 0]) * 1e3
    completed = out.attempted - out.failed
    out.put("batch_req_per_s", completed / elapsed, "req/s", completed)
    _put_cpu_cost(out, "batch", requests, completed)
    out.put("batch_frame_p10_ms", percentile(rtt_ms, 10), "ms", rtt_ms.size)
    out.put("batch_frame_p50_ms", percentile(rtt_ms, 50), "ms", rtt_ms.size)
    out.put("batch_frame_p99_ms", percentile(rtt_ms, 99), "ms", rtt_ms.size)
    out.extra["window_rates"] = window_rates(
        out.extra["start"], elapsed, times[:, 1], FRAME_REQUESTS
    )
    out.put("served_accuracy", checker.accuracy, "ratio", checker.rows)
    out.primary_ms = percentile(rtt_ms, 50)
    return out


# ---------------------------------------------------------------------------
# Open loop of single frames (single_open, and the reads of recover_live)
# ---------------------------------------------------------------------------


@dataclass
class OpenLoopLog:
    """Per-request record of one open-loop phase (times in perf_counter s)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    outstanding: np.ndarray
    index: np.ndarray            # pool request index
    predictions: np.ndarray      # (n, ROWS); -1 when the request failed
    errors: dict = field(default_factory=dict)


async def open_loop(client, pool: PackedPool, rate: float, seconds: float,
                    rng: np.random.Generator, first: int,
                    stop: threading.Event | None = None) -> OpenLoopLog:
    """Seeded Poisson arrivals of single frames on one pipelined connection.

    Each request is timed from its due time, so a stall also charges the
    requests queued behind it; ``sent - due`` is the generator's lateness.
    """
    gaps = rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 64)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    n = offsets.size
    log = OpenLoopLog(
        due=np.empty(n), sent=np.full(n, np.nan), done=np.full(n, np.nan),
        outstanding=np.zeros(n), index=(first + np.arange(n)) % len(pool.words),
        predictions=np.full((n, ROWS), -1, dtype=np.int64),
    )
    in_flight: set = set()

    async def one(i: int) -> None:
        log.sent[i] = now()
        try:
            predictions = await client.predict(pool.words[log.index[i]])
        except REQUEST_ERRORS as exc:
            count_failure(log.errors, exc)
            return
        log.done[i] = now()
        log.predictions[i] = predictions

    start = now() + 0.01
    log.due[:] = start + offsets
    i = 0
    while i < n and not (stop is not None and stop.is_set()):
        t = now()
        while i < n and log.due[i] <= t:
            log.outstanding[i] = len(in_flight)
            task = asyncio.get_running_loop().create_task(one(i))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, log.due[i] - now()))
    # Requests never sent (stopped early) are not part of the phase.
    keep = slice(0, i)
    for name in ("due", "sent", "done", "outstanding", "index", "predictions"):
        setattr(log, name, getattr(log, name)[keep])
    if in_flight:
        _, pending = await asyncio.wait(set(in_flight), timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
            count_failure(log.errors, TimeoutError("no reply while draining"))
    return log


def _step_figures(log: OpenLoopLog) -> dict:
    ok = ~np.isnan(log.done)
    latency_ms = (log.done[ok] - log.due[ok]) * 1e3
    late_ms = (log.sent - log.due) * 1e3
    half = log.due.size // 2
    # A backlog grows when the second half of the step queues deeper, or
    # sends later, than the first half.
    growing = bool(
        half
        and (
            np.median(log.outstanding[half:])
            > 2 * np.median(log.outstanding[:half]) + 2
            or np.median(late_ms[half:]) > np.median(late_ms[:half]) + 2.0
        )
    )
    return {
        "latency_ms": latency_ms,
        "late_ms": late_ms,
        "failed": sum(log.errors.values()),
        "growing": growing,
    }


def _window_costs(cpu_at: list, log: OpenLoopLog) -> list:
    """CPU microseconds per request answered, in each sampling window that
    lies within the step's requests."""
    done = np.sort(log.done[~np.isnan(log.done)])
    if not done.size:
        return [float("nan")]
    costs = []
    for (t0, c0), (t1, c1) in zip(cpu_at, cpu_at[1:]):
        if t0 < log.due[0] or t1 > done[-1]:
            continue
        answered = np.searchsorted(done, t1) - np.searchsorted(done, t0)
        if answered:
            costs.append((c1 - c0) * 1e6 / answered)
    return costs or [float("nan")]


def _add_roots(out: Outcome, log: OpenLoopLog, pool: PackedPool) -> None:
    for i in np.flatnonzero(~np.isnan(log.done)):
        out.roots.append((
            ns(log.due[i]), ns(log.sent[i]), ns(log.done[i]),
            [pool.keys[log.index[i]]],
        ))


def single_open(stack: Stack, pool: PackedPool, seconds: float,
                rng: np.random.Generator, trace: bool) -> Outcome:
    out = Outcome()
    checker = _Checker(pool.reference, pool.labels)
    step_s = seconds / len(LADDER)
    logs = {}
    cpu_at: list[tuple] = []     # (time, CPU seconds) every CPU_WINDOW_S

    async def sample_cpu() -> None:
        while True:
            cpu_at.append((now(), cpu_seconds(stack.engine)))
            await asyncio.sleep(CPU_WINDOW_S)

    async def main() -> None:
        client = await _connect(stack.gateway.port)
        sampler = asyncio.get_running_loop().create_task(sample_cpu())
        try:
            first = 0
            for rate in LADDER:
                logs[rate] = await open_loop(client, pool, rate, step_s, rng, first)
                first += logs[rate].due.size
        finally:
            sampler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sampler
            await client.close()

    asyncio.run(main())
    max_rate = 0
    meeting = True
    late_all = []
    within_limit = 0
    for rate, log in logs.items():
        figures = _step_figures(log)
        out.attempted += log.due.size
        for kind, count in log.errors.items():
            out.errors[kind] = out.errors.get(kind, 0) + count
        ok = np.flatnonzero(~np.isnan(log.done))
        for i in ok:
            checker.check(log.index[i], log.predictions[i])
        latency = figures["latency_ms"]
        within_limit += int(np.count_nonzero(latency <= P99_LIMIT_MS))
        p99 = percentile(latency, 99)
        out.put(f"single_p10_ms.r{rate}", percentile(latency, 10), "ms", latency.size)
        out.put(f"single_p50_ms.r{rate}", percentile(latency, 50), "ms", latency.size)
        out.put(f"single_p99_ms.r{rate}", p99, "ms", latency.size)
        out.put(f"single_late_ms_p50.r{rate}", percentile(figures["late_ms"], 50),
                "ms", figures["late_ms"].size)
        out.put_cost(f"single_cpu_us_per_req.r{rate}", _window_costs(cpu_at, log), "us")
        late_all.append(figures["late_ms"])
        # The ladder is climbed in order: a rate counts only if every
        # lower rate also met the limits.
        meeting = meeting and (p99 <= P99_LIMIT_MS and not figures["failed"]
                               and not figures["growing"])
        if meeting:
            max_rate = rate
        if trace:
            _add_roots(out, log, pool)
    out.wrong = checker.wrong
    out.put("single_max_rate", max_rate, "req/s")
    # Goodput: requests answered within the latency limit, per second of
    # the ladder.  It equals the offered load while every step meets the
    # limit and falls as soon as latency or failures grow.
    out.put("single_goodput_per_s", within_limit / seconds, "req/s", out.attempted)
    # The ladder's cost per request: each step's cost, weighted by the
    # requests the step sent.
    out.put("single_cpu_us_per_req", sum(
        out.metrics[f"single_cpu_us_per_req.r{rate}"][0] * log.due.size
        for rate, log in logs.items()
    ) / max(1, out.attempted), "us", out.attempted)
    out.put("served_accuracy", checker.accuracy, "ratio", checker.rows)
    late = np.concatenate(late_all)
    out.extra["late_ms"] = late
    out.primary_ms = out.metrics["single_p50_ms.r500"][0]
    return out


# ---------------------------------------------------------------------------
# http_features: two keep-alive connections, raw feature rows as JSON
# ---------------------------------------------------------------------------


@dataclass
class FeaturePool:
    """Distinct feature requests as JSON bodies, with source labels."""

    features: np.ndarray          # (n, ROWS, NUM_FEATURES)
    bodies: list[bytes]
    keys: list[int]
    labels: np.ndarray
    reference: np.ndarray | None = None   # (n, ROWS) expected labels


def feature_pool(task, rng: np.random.Generator, requests: int) -> FeaturePool:
    """Seeded feature rows: test rows plus Gaussian jitter, as JSON bodies."""
    rows = requests * ROWS
    source = rng.integers(0, task.test_x.shape[0], rows)
    x = np.clip(
        task.test_x[source] + rng.normal(0.0, FEATURE_JITTER, (rows, NUM_FEATURES)),
        0.0, 1.0,
    ).reshape(requests, ROWS, NUM_FEATURES)
    return FeaturePool(
        features=x,
        bodies=[json.dumps({"features": x[i].tolist()}).encode() for i in range(requests)],
        keys=[request_key(x[i]) for i in range(requests)],
        labels=np.asarray(task.test_y)[source].reshape(requests, ROWS),
    )


def set_feature_reference(pool: FeaturePool, classifier: HDCClassifier) -> None:
    """Expected labels: ``HDCClassifier.predict`` on the raw feature rows."""
    pool.reference = classifier.predict(
        pool.features.reshape(-1, NUM_FEATURES)
    ).reshape(pool.labels.shape)


class _HttpConnection:
    """Minimal HTTP/1.1 keep-alive client for ``POST /v1/predict``."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_HttpConnection":
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return cls(reader, writer)

    async def predict(self, body: bytes) -> np.ndarray:
        self.writer.write(
            b"POST /v1/predict HTTP/1.1\r\nHost: perfbench\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        reply = await self.reader.readexactly(length)
        if status != 200:
            raise GatewayError(status, reply.decode("utf-8", "replace"))
        return np.asarray(json.loads(reply)["predictions"], dtype=np.int64)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def http_features(stack: Stack, pool: FeaturePool, seconds: float,
                  trace: bool, requests: int | None = None,
                  speed: HostSpeed | None = None) -> Outcome:
    """Two keep-alive connections for ``seconds``, or for ``requests``
    requests when given (an epoch of fixed work)."""
    out = Outcome()
    checker = _Checker(pool.reference, pool.labels)
    rtts: list[tuple] = []
    state = {"next": 0, "requests": 0}

    async def connection(conn: _HttpConnection, until: float, last: float,
                         record: bool) -> None:
        while now() < until and state["next"] < last:
            i = state["next"] % len(pool.bodies)
            state["next"] += 1
            sent = now()
            try:
                predictions = await conn.predict(pool.bodies[i])
            except (*REQUEST_ERRORS, asyncio.IncompleteReadError, ValueError) as exc:
                if record:
                    state["requests"] += 1
                    count_failure(out.errors, exc)
                continue
            done = now()
            if not record:
                continue
            state["requests"] += 1
            checker.check(i, predictions)
            rtts.append((sent, done))
            if trace:
                out.roots.append((ns(sent), ns(sent), ns(done), [pool.keys[i]]))

    async def main() -> None:
        conns = [await _HttpConnection.open(stack.gateway.http_port)
                 for _ in range(HTTP_CONNECTIONS)]
        try:
            await asyncio.gather(*(connection(c, math.inf, HTTP_WARMUP_REQUESTS, False)
                                   for c in conns))

            async def serve(count):
                if count is None:
                    until, last = now() + seconds, math.inf
                else:
                    until, last = math.inf, state["next"] + count
                await asyncio.gather(*(connection(c, until, last, True) for c in conns))

            out.extra["slices"] = await _timed_slices(
                stack, speed, serve, _slice_counts(requests)
            )
        finally:
            for conn in conns:
                await conn.close()

    asyncio.run(main())
    out.attempted = state["requests"]
    out.wrong = checker.wrong
    times = np.asarray(rtts).reshape(-1, 2)
    rtt_ms = (times[:, 1] - times[:, 0]) * 1e3
    out.extra["start"] = out.extra["slices"][0][0]
    elapsed = sum(wall for _, wall, _, _ in out.extra["slices"])
    completed = out.attempted - out.failed
    out.put("http_req_per_s", completed / elapsed, "req/s", completed)
    _put_cpu_cost(out, "http", requests, completed)
    out.put("http_p10_ms", percentile(rtt_ms, 10), "ms", rtt_ms.size)
    out.put("http_p50_ms", percentile(rtt_ms, 50), "ms", rtt_ms.size)
    out.put("http_p99_ms", percentile(rtt_ms, 99), "ms", rtt_ms.size)
    out.extra["window_rates"] = window_rates(out.extra["start"], elapsed, times[:, 1])
    out.put("served_accuracy", checker.accuracy, "ratio", checker.rows)
    out.extra["body_bytes"] = float(np.mean([len(b) for b in pool.bodies]))
    out.primary_ms = percentile(rtt_ms, 50)
    return out


def packed_closed_loop(stack: Stack, pool: PackedPool, seconds: float) -> None:
    """Two closed-loop connections of single packed frames (no checks).

    The http_features traced run uses it as the worker's packed-only
    baseline, so the encoder's share of worker busy time is measured in
    the same run.
    """
    async def one_connection(until: float) -> None:
        client = await _connect(stack.gateway.port)
        try:
            i = 0
            while now() < until:
                await client.predict(pool.words[i % len(pool.words)])
                i += 1
        finally:
            await client.close()

    async def main() -> None:
        until = now() + seconds
        await asyncio.gather(*(one_connection(until) for _ in range(HTTP_CONNECTIONS)))

    asyncio.run(main())


# ---------------------------------------------------------------------------
# recover_live: seeded attack + recovery publishing beside open-loop reads
# ---------------------------------------------------------------------------


class _Recorder:
    """In-process ModelPublisher for the sequential reference run."""

    def __init__(self) -> None:
        self.words = None
        self.generations = 0

    def publish(self, model) -> int:
        self.words = model.packed().words.copy()
        self.generations += 1
        return self.generations

    def touch(self) -> None:
        pass


class _TimedPublisher:
    """Forwards to the engine's publisher and notes when publishes end."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.ends: list[float] = []
        self.starts: list[float] = []

    def publish(self, model) -> int:
        self.starts.append(now())
        generation = self.inner.publish(model)
        self.ends.append(now())
        return generation

    def touch(self) -> None:
        self.inner.touch()

    def end_writing(self) -> None:
        self.inner.end_writing()

    @property
    def last_publish_trace_id(self):
        return self.inner.last_publish_trace_id


@dataclass
class Realisation:
    """One seeded attack and stream order, with its sequential reference."""

    attack_seed: int
    order_seed: int
    words: np.ndarray | None = None          # the recovered model's words
    accuracy_trace: tuple = ()
    attacked_accuracy: float = float("nan")
    reads: np.ndarray | None = None          # read pool labels on that model


@dataclass
class RecoveryInputs:
    stream: object          # PackedHypervectors, the unlabeled stream
    evaluation: object      # PackedHypervectors, scored with labels
    eval_labels: np.ndarray
    realisations: list
    clean_accuracy: float = float("nan")


def recovery_inputs(task, rng: np.random.Generator) -> RecoveryInputs:
    """The stream and evaluation halves of the test split, and REALISATIONS
    seeded (attack, stream order) pairs.

    How much work recovery does depends on the attack (every model write
    restarts the block sweep), so a run cycles through several attacks
    and its figures do not hang on one draw.
    """
    packed = make_encoder().encode_packed(task.test_x)
    split = NUM_TEST // 2
    return RecoveryInputs(
        stream=packed[:split],
        evaluation=packed[split:],
        eval_labels=np.asarray(task.test_y[split:], dtype=np.int64),
        realisations=[
            Realisation(int(rng.integers(1 << 31)), int(rng.integers(1 << 31)))
            for _ in range(REALISATIONS)
        ],
    )


def recover_round(clean_model, inputs: RecoveryInputs, realisation: Realisation,
                  publisher, tracer=None) -> dict:
    """One attack-then-recover round: 10% flips, then PASSES stream passes."""
    def score(model) -> float:
        return float(np.mean(model.predict(inputs.evaluation) == inputs.eval_labels))

    attacked, _ = attack(
        clean_model, ATTACK_RATE, "random",
        np.random.default_rng(realisation.attack_seed),
    )
    attacked_accuracy = score(attacked)
    recovery = RobustHDRecovery(
        attacked, RecoveryConfig(), seed=realisation.attack_seed + 1,
        publisher=publisher,
    )
    order_rng = np.random.default_rng(realisation.order_seed)
    accuracy_trace = []
    first_block = now()
    cpu = time.thread_time()
    root = tracer.open("perfbench.round") if tracer is not None else None
    try:
        for _ in range(PASSES):
            order = order_rng.permutation(len(inputs.stream))
            recovery.process(inputs.stream[order])
            accuracy_trace.append(score(attacked))
    finally:
        if root is not None:
            tracer.close(root)
        end_writing = getattr(publisher, "end_writing", None)
        if end_writing is not None:
            end_writing()
    return {
        "first_block": first_block,
        # CPU of the recovering thread alone: the reads beside it run on
        # their own threads.
        "cpu_s": time.thread_time() - cpu,
        "attacked_accuracy": attacked_accuracy,
        "accuracy_trace": tuple(accuracy_trace),
        "words": attacked.packed().words.copy(),
        "stats": recovery.stats,
    }


def set_recovery_reference(inputs: RecoveryInputs, stack: Stack,
                           reads: PackedPool) -> None:
    """Sequential reference runs, and the reads' labels on each result."""
    model = stack.classifier.model
    inputs.clean_accuracy = float(
        np.mean(model.predict(inputs.evaluation) == inputs.eval_labels)
    )
    flat = reads.words.reshape(-1, reads.words.shape[-1])
    for realisation in inputs.realisations:
        recorder = _Recorder()
        result = recover_round(model, inputs, realisation, recorder)
        realisation.words = recorder.words
        realisation.accuracy_trace = result["accuracy_trace"]
        realisation.attacked_accuracy = result["attacked_accuracy"]
        recovered = PackedModel(words=recorder.words, dim=DIM, version=0)
        realisation.reads = np.argmin(
            recovered.distances(flat), axis=1
        ).reshape(reads.labels.shape)


def recover_live(stack: Stack, inputs: RecoveryInputs, reads: PackedPool,
                 seconds: float, rng: np.random.Generator, trace: bool,
                 tracer=None, speed: HostSpeed | None = None) -> Outcome:
    out = Outcome()
    clean = stack.classifier.model
    publisher = _TimedPublisher(stack.engine.publisher_for(stack.tenant))
    stop = threading.Event()
    box: dict = {}

    def reader() -> None:
        async def main() -> None:
            client = await _connect(stack.gateway.port)
            try:
                # Rounds run in whole cycles, so the reads' schedule
                # outlasts ``seconds``; ``stop`` ends it.
                box["log"] = await open_loop(
                    client, reads, READ_RATE, seconds + READ_SLACK_S, rng, 0, stop
                )
            finally:
                await client.close()
        try:
            asyncio.run(main())
        except BaseException as exc:  # reported after join
            box["error"] = exc

    thread = threading.Thread(target=reader, name="perfbench-reads")
    thread.start()
    rounds = []
    realisations = inputs.realisations
    try:
        time.sleep(WARMUP_S)
        speed_at = [speed.sample()] if speed is not None else []
        start = now()
        # Whole cycles through the realisations, so each weighs the same.
        while len(rounds) % len(realisations) or now() - start < seconds:
            realisation = realisations[len(rounds) % len(realisations)]
            publisher.starts.clear()
            publisher.ends.clear()
            result = recover_round(clean, inputs, realisation, publisher, tracer)
            result["realisation"] = realisation
            result["publish_starts"] = list(publisher.starts)
            result["last_publish"] = (
                publisher.ends[-1] if publisher.ends else now()
            )
            rounds.append(result)
            if speed is not None:
                speed_at.append(speed.sample())
            time.sleep(ROUND_GAP_S)
    finally:
        stop.set()
        thread.join()
    if "error" in box:
        raise box["error"]
    log = box["log"]

    # Model check: every round must end bit-identical to its reference.
    for result in rounds:
        reference = result["realisation"]
        if not (np.array_equal(result["words"], reference.words)
                and result["accuracy_trace"] == reference.accuracy_trace):
            out.wrong += 1
    # Read check: reads sent after a round's final publish and answered
    # before the next round's first publish saw exactly the recovered
    # model; reads made while recovery publishes must return a label.
    windows = []
    for r, result in enumerate(rounds):
        next_start = (
            rounds[r + 1]["publish_starts"][0]
            if r + 1 < len(rounds) and rounds[r + 1]["publish_starts"]
            else float("inf")
        )
        windows.append((result["last_publish"], next_start,
                        result["realisation"].reads))
    checked = 0
    ok = np.flatnonzero(~np.isnan(log.done))
    for i in ok:
        predictions = log.predictions[i]
        expected = next((labels for lo, hi, labels in windows
                         if lo < log.sent[i] and log.done[i] < hi), None)
        if expected is not None:
            checked += 1
            if not np.array_equal(predictions, expected[log.index[i]]):
                out.wrong += 1
        elif predictions.min() < 0 or predictions.max() >= NUM_CLASSES:
            out.wrong += 1
    if not checked:
        out.wrong += 1   # the final-model check must have run

    out.attempted = log.due.size + len(rounds)
    out.errors = log.errors
    busy = [(r["first_block"], r["last_publish"]) for r in rounds]
    during = np.array([
        any(lo <= log.due[i] <= hi for lo, hi in busy) for i in ok
    ], dtype=bool)
    latency_ms = (log.done[ok] - log.due[ok]) * 1e3
    during_ms = latency_ms[during] if during.size else latency_ms
    round_s = [r["last_publish"] - r["first_block"] for r in rounds]
    qps = PASSES * len(inputs.stream) * len(rounds) / sum(round_s)
    out.put("recover_stream_qps", qps, "queries/s", len(rounds))
    # Rounds differ in work (each attack needs its own repairs), so the
    # cost is the whole cycle's, each attack weighing the same -- not a
    # quantile, which would pick the cheapest attacks.
    queries = PASSES * len(inputs.stream)
    out.put("recover_cpu_us_per_query",
            np.mean([r["cpu_s"] for r in rounds]) * 1e6 / queries, "us", len(rounds))
    if speed is not None:
        out.put("recover_ref_cpu_us_per_query", np.mean([
            r["cpu_s"] * speed.scale(before, after)
            for r, before, after in zip(rounds, speed_at, speed_at[1:])
        ]) * 1e6 / queries, "us", len(rounds))
    out.put("recover_read_p10_ms", percentile(during_ms, 10), "ms", during_ms.size)
    out.put("recover_read_p50_ms", percentile(during_ms, 50), "ms", during_ms.size)
    out.put("recover_read_p99_ms", percentile(during_ms, 99), "ms", during_ms.size)
    out.put("recovered_accuracy", float(np.mean(
        [r.accuracy_trace[-1] for r in realisations])), "ratio", len(realisations))
    out.put("clean_accuracy", inputs.clean_accuracy, "ratio")
    out.put("recover_reads_checked", checked, "count")
    out.put("attacked_accuracy", float(np.mean(
        [r.attacked_accuracy for r in realisations])), "ratio", len(realisations))
    out.extra.update(
        rounds=rounds, late_ms=(log.sent - log.due) * 1e3,
    )
    out.primary_ms = 1e3 / qps
    if trace:
        _add_roots(out, log, reads)
    return out
