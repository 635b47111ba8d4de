"""Asyncio TCP ingress for the multi-tenant serving engine.

:class:`GatewayServer` is the network front door: it speaks the
length-prefixed binary frame protocol (:mod:`repro.serve.protocol`),
admits or sheds each request (:class:`AdmissionController`), and feeds
admitted work into a :class:`~repro.serve.engine.ServingEngine` through
the unified :class:`~repro.serve.engine.ServeRequest` surface.  Replies
ride :class:`~repro.serve.engine.ServeFuture` done-callbacks back onto
the event loop, so a slow engine never blocks the acceptor and one
connection's stall never delays another's responses.

The server hosts its own event loop on a daemon thread —
``start()``/``stop()`` are plain synchronous calls, usable from tests,
benchmarks and ``with`` blocks, while everything network-facing stays
async inside.  With ``http_port`` set it additionally serves a minimal
HTTP/1.1 JSON ingress (``POST /v1/predict``, :mod:`repro.serve.http`)
through the *same* admission controller and engine path.

**One ingress core.**  TCP ``PACKED``/``FEATURES`` single frames,
``SUBMIT_BATCH`` frames and HTTP ``POST /v1/predict`` bodies all run
through :func:`serve_batch`; a single frame or an HTTP body is just a
batch of one.  Each ingress decodes (``SUBMIT_BATCH`` bodies as numpy
views over the wire buffer, :func:`~repro.serve.protocol.decode_submit_batch`),
then the core admits every entry under one admission-lock acquisition
(:meth:`AdmissionController.admit_many`), run-merges adjacent admitted
entries into zero-copy row slices, hands them to the engine in one
:meth:`~repro.serve.engine.ServingEngine.submit_many` call, and settles
the whole unit from one done-callback that releases admission exactly
once.  The core also owns the mapping from engine-submit exceptions to
statuses.  What stays per ingress is only the renderer: ``RESPONSE`` /
``ERROR`` / ``REJECT`` frames for singles, one ``RESPONSE_BATCH`` frame
for a batch (both encoded off-loop by whichever collector thread
resolves the last request), or a JSON status for HTTP.  TCP frames are
submitted with ``flush=False`` and the engine's frame buffer flushed
once per read chunk, so adjacent frames coalesce into shared engine
dispatch frames.

**Credit-based backpressure.**  A client that sets
:data:`~repro.serve.protocol.FLAG_CREDIT` on a PING opts its connection
into window flow control: the gateway reserves a slice of the global
in-flight budget (:meth:`AdmissionController.reserve_window`), grants
it as a ``CREDIT`` frame, and from then on bounds the connection by
that window instead of shedding per-request — every reply is preceded
by a ``CREDIT`` grant returning the credits its requests consumed, and
while the window is exhausted the gateway stops reading the socket
(``transport.pause_reading()``), pushing backpressure into TCP instead
of burning cycles shedding.  A credit-*respecting* client is therefore
never shed ``OVERLOADED``; a client that overruns its window gets a
typed ``OVERLOADED`` reject (credits refunded) and keeps its
connection.

**Admission policy** (checked in this order, each with a typed
:class:`~repro.serve.protocol.RejectCode`):

1. ``SHUTTING_DOWN`` — the server is draining; nothing new gets in.
2. ``UNKNOWN_TENANT`` — the frame names a tenant the engine does not
   host.
3. ``RATE_LIMITED`` — the tenant's token bucket is empty.  Each tenant
   gets ``rate_limit`` tokens/s with ``burst`` capacity, so one noisy
   tenant is throttled at the door instead of starving the others
   inside the engine.  The reject carries a ``retry_after_ms`` hint
   derived from the bucket's refill rate.
4. ``OVERLOADED`` — the unreserved in-flight budget (the global cap
   minus every cooperative connection's reserved window) is exhausted.
   Shedding here keeps ``engine.submit`` non-blocking: a free in-flight
   token implies a free ring slot, because the engine releases slots
   strictly before the gateway releases tokens, and reserved windows +
   the unreserved budget never exceed the ring.

Every shed is counted (``gateway.shed`` + per-code metrics and
:attr:`AdmissionController.shed` totals) — the CI smoke leg asserts
zero shed at low load and non-zero under deliberate overload.
"""

from __future__ import annotations

import asyncio
import math
import socket
import threading
import time

import numpy as np

from repro.obs.metrics import current as _metrics
from repro.serve.engine import Backpressure, ServeRequest, ServingEngine
from repro.serve.protocol import (
    BATCH_REJECT_BASE,
    FLAG_CREDIT,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameKind,
    ProtocolError,
    RejectCode,
    SubmitBatch,
    decode_array,
    decode_submit_batch,
    encode_array,  # noqa: F401  (re-exported for gateway users)
    encode_credit,
    encode_frame,
    encode_predictions,
    encode_reject,
    encode_response_batch,
    encode_status,
)

__all__ = ["AdmissionController", "GatewayServer", "TokenBucket"]

EXPIRED_DETAIL = "deadline passed before the engine served the request"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Monotonic-clock lazy refill; ``try_take`` and ``retry_after_s``
    both refill to *now* before deciding.  Not thread-safe on its own —
    the admission controller serialises access under its lock.
    """

    __slots__ = ("_last", "_tokens", "burst", "rate")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be > 0, got rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = time.monotonic()

    def try_take(self, now: float | None = None) -> bool:
        if now is None:
            now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self, now: float | None = None) -> float:
        """Seconds until one token will have refilled (0 if one is free).

        Refills to ``now`` first.  It used to be a stale peek that
        assumed a just-failed :meth:`try_take` had already brought
        ``_tokens`` current — but callers like the HTTP ingress build
        ``Retry-After`` hints on their own schedule, and a peek taken
        later than the failed take over-reports the wait by however much
        has already refilled in between.
        """
        if now is None:
            now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """Token-bucket rate limiting per tenant + global load shedding.

    ``max_inflight`` bounds requests admitted but not yet resolved;
    the gateway caps it at the engine's ring capacity so an admitted
    request always finds a free ring slot (``engine.submit`` never
    blocks the event loop).

    Cooperative connections carve their credit window out of the same
    budget via :meth:`reserve_window`: reserved admissions
    (``reserved=True``) are bounded by their connection's window (the
    gateway enforces it), the unreserved rest shares
    ``max_inflight - reserved`` — so the two together can never
    overrun the ring.
    """

    def __init__(
        self,
        tenants,
        *,
        max_inflight: int,
        rate_limit: float | None = None,
        burst: float | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._lock = threading.Lock()
        self._tenants = set(tenants)
        self._buckets: dict[str, TokenBucket] = {}
        if rate_limit is not None:
            if burst is None:
                burst = max(1.0, rate_limit)
            self._buckets = {
                tenant: TokenBucket(rate_limit, burst)
                for tenant in self._tenants
            }
        self.max_inflight = max_inflight
        self._inflight_free = 0
        self._inflight_reserved = 0
        self._reserved = 0
        self.draining = False
        self.admitted = 0
        self.shed: dict[RejectCode, int] = {code: 0 for code in RejectCode}

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight_free + self._inflight_reserved

    @property
    def reserved(self) -> int:
        """Credits currently reserved by cooperative connections."""
        with self._lock:
            return self._reserved

    @property
    def shed_total(self) -> int:
        with self._lock:
            return sum(self.shed.values())

    def reserve_window(self, requested: int) -> int:
        """Carve a cooperative connection's credit window from the budget.

        Returns the granted window (possibly smaller than requested,
        possibly 0 when the budget is fully reserved — the connection
        then stays non-cooperative).  The caller must return the grant
        via :meth:`release_window` when the connection closes.
        """
        with self._lock:
            grant = max(0, min(requested, self.max_inflight - self._reserved))
            self._reserved += grant
        return grant

    def release_window(self, granted: int) -> None:
        """Return a closed cooperative connection's window."""
        with self._lock:
            self._reserved -= granted

    def _admit_locked(
        self, tenant: str, bucket: TokenBucket | None, now: float,
        reserved: bool,
    ) -> RejectCode | None:
        if self.draining:
            return RejectCode.SHUTTING_DOWN
        if tenant not in self._tenants:
            return RejectCode.UNKNOWN_TENANT
        if bucket is not None and not bucket.try_take(now):
            return RejectCode.RATE_LIMITED
        if reserved:
            # Capacity is guaranteed by the connection's reserved
            # window (the gateway bounds its in-flight to the window).
            self._inflight_reserved += 1
        else:
            if self._inflight_free >= self.max_inflight - self._reserved:
                return RejectCode.OVERLOADED
            self._inflight_free += 1
        self.admitted += 1
        return None

    def admit(
        self, tenant: str, *, reserved: bool = False
    ) -> RejectCode | None:
        """Admit one request for ``tenant``; a code means *shed*.

        An admitted request holds one in-flight token the caller MUST
        return via :meth:`release` exactly once (with the same
        ``reserved`` flag).
        """
        return self._admit(tenant, 1, reserved)[0]

    def admit_many(
        self, tenant: str, count: int, *, reserved: bool = False
    ) -> list[RejectCode | None]:
        """Admit up to ``count`` requests of one tenant in one lock trip.

        Returns a per-request list of ``None`` (admitted — one token
        held, same :meth:`release` contract) or the shedding
        :class:`RejectCode`.  One clock read and one lock acquisition
        cover the whole batch.
        """
        return self._admit(tenant, count, reserved)

    def _admit(
        self, tenant: str, count: int, reserved: bool
    ) -> list[RejectCode | None]:
        codes: list[RejectCode | None] = []
        shed_counts: dict[RejectCode, int] = {}
        with self._lock:
            bucket = self._buckets.get(tenant)
            now = time.monotonic()
            for _ in range(count):
                code = self._admit_locked(tenant, bucket, now, reserved)
                codes.append(code)
                if code is not None:
                    self.shed[code] += 1
                    shed_counts[code] = shed_counts.get(code, 0) + 1
            inflight = self._inflight_free + self._inflight_reserved
        metrics = _metrics()
        if metrics.enabled:
            admitted = count - sum(shed_counts.values())
            if admitted:
                metrics.inc("gateway.admitted", admitted)
                metrics.gauge("gateway.inflight", inflight)
            for code, n in shed_counts.items():
                metrics.inc("gateway.shed", n)
                metrics.inc(f"gateway.shed.{code.name.lower()}", n)
        return codes

    def retry_after_ms(self, tenant: str) -> int:
        """Milliseconds until ``tenant``'s bucket refills one token."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                return 0
            return int(math.ceil(bucket.retry_after_s() * 1000.0))

    def release(self, *, reserved: bool = False, count: int = 1) -> None:
        """Return ``count`` admitted requests' in-flight tokens."""
        with self._lock:
            if reserved:
                self._inflight_reserved -= count
            else:
                self._inflight_free -= count

    def drain(self) -> None:
        """Reject everything from now on (server shutdown)."""
        with self._lock:
            self.draining = True


class _Connection:
    """Per-connection gateway state, touched only on the event loop.

    ``inflight``/``window`` implement the credit protocol for
    cooperative connections: the read loop stops pulling from the
    socket while ``inflight >= window`` and the reply path (hopping
    onto the loop via :meth:`reply`) returns credits and resumes it.
    """

    __slots__ = ("cooperative", "inflight", "loop", "outbox", "resume",
                 "thread", "window")

    def __init__(self, outbox: asyncio.Queue) -> None:
        self.outbox = outbox
        self.loop = asyncio.get_running_loop()
        self.thread = threading.get_ident()
        self.cooperative = False
        self.window = 0
        self.inflight = 0
        self.resume = asyncio.Event()
        self.resume.set()

    def charge(self, credits: int) -> None:
        self.inflight += credits
        if self.inflight >= self.window:
            self.resume.clear()

    def _credit(self, credits: int) -> bytes:
        if not (self.cooperative and credits):
            return b""
        return encode_frame(Frame(
            FrameKind.CREDIT, payload=encode_credit(credits)
        ))

    def refund(self, credits: int, reply: bytes) -> None:
        """Answer a frame that was never charged, handing back the
        ``credits`` its sender spent on it."""
        self.outbox.put_nowait(self._credit(credits) + reply)

    def deliver(self, reply: bytes, credits: int = 0) -> None:
        """Enqueue one reply, returning ``credits`` to the connection.

        Runs on the event loop.  On cooperative connections the credit
        grant is *prepended* to the reply bytes so client-side
        accounting is ahead of the response it unblocks.
        """
        if self.cooperative and credits:
            self.inflight -= credits
            reply = self._credit(credits) + reply
            if self.inflight < self.window:
                self.resume.set()
        self.outbox.put_nowait(reply)

    def reply(self, reply: bytes, credits: int) -> None:
        """:meth:`deliver` from any thread: engine collector threads
        hop onto the loop."""
        if threading.get_ident() == self.thread:
            self.deliver(reply, credits)
            return
        try:
            self.loop.call_soon_threadsafe(self.deliver, reply, credits)
        except RuntimeError:
            pass  # loop already closed (connection torn down)


class BatchOfOne:
    """One request's rows in :class:`SubmitBatch`'s shape for
    :func:`serve_batch`, built from plain tuples: a single frame or an
    HTTP body is a batch of one."""

    __slots__ = ("block", "features", "offsets", "rows", "trace_ids")

    def __init__(
        self, payload: np.ndarray, *, features: bool, trace_id: int = 0
    ) -> None:
        self.block = payload
        self.features = features
        self.rows = (payload.shape[0],)
        self.offsets = (0, payload.shape[0])
        self.trace_ids = (trace_id,)

    def __len__(self) -> int:
        return 1


def serve_batch(
    gateway, tenant: str, batch: SubmitBatch, *, deadline, reserved: bool,
    flush: bool, settle,
) -> bool:
    """The one ingress core: admit, run-merge, submit, settle.

    Every ingress — TCP single frames, ``SUBMIT_BATCH`` frames, HTTP
    bodies — feeds its decoded request(s) through here as a
    :class:`SubmitBatch` (a single request is a :class:`BatchOfOne`).  The
    core admits every entry in one lock trip
    (:meth:`AdmissionController.admit_many`), folds adjacent admitted
    entries into merged engine requests (a run's rows are already
    contiguous in the batch block, so one zero-copy slice serves the
    whole run, bounded by the engine's per-request query cap), and
    hands them to the engine in one
    :meth:`~repro.serve.engine.ServingEngine.submit_many` call.

    ``settle(statuses, predictions, detail)`` runs exactly once with
    the per-entry outcome in the ``RESPONSE_BATCH`` convention —
    ``statuses[i]`` is 0 (OK, ``predictions[i]`` holds its rows), an
    :class:`ErrorCode`, or ``BATCH_REJECT_BASE + RejectCode`` — and
    ``detail`` the engine's error text when the submit itself failed.
    It runs on the calling thread when nothing reached the engine, else
    on the collector thread that resolves the last run.  Every admitted
    entry's in-flight token is released exactly once before it runs.

    Returns True when requests reached the engine (the caller owes the
    engine a :meth:`~repro.serve.engine.ServingEngine.flush` when it
    passed ``flush=False``).
    """
    admission = gateway.admission
    codes = admission.admit_many(tenant, len(batch), reserved=reserved)
    statuses = np.zeros(len(batch), dtype=np.uint8)
    predictions: list = [None] * len(batch)
    cap = gateway.engine.max_queries_per_request
    runs: list[tuple[list[int], list[int]]] = []  # (entries, their rows)
    total = math.inf  # rows in the open run; inf when none is open
    for i, code in enumerate(codes):
        if code is not None:
            statuses[i] = BATCH_REJECT_BASE + int(code)
            total = math.inf
            continue
        n_rows = int(batch.rows[i])
        if total + n_rows > cap:
            runs.append(([], []))
            total = 0
        runs[-1][0].append(i)
        runs[-1][1].append(n_rows)
        total += n_rows
    if not runs:
        settle(statuses, predictions, "")
        return False
    offsets = batch.offsets
    requests = [
        ServeRequest(
            batch.block[offsets[indices[0]]:offsets[indices[-1] + 1]],
            features=batch.features,
            deadline=deadline,
            tenant=tenant,
            trace_id=int(batch.trace_ids[indices[0]]),
        )
        for indices, _ in runs
    ]
    admitted = codes.count(None)
    try:
        futures = gateway.engine.submit_many(requests, flush=flush)
    except ValueError as exc:
        fail, detail = int(ErrorCode.BAD_REQUEST), str(exc)
    except Backpressure as exc:
        # Should not happen (the in-flight cap <= ring slots), but the
        # engine may be shared with non-gateway submitters.
        fail, detail = BATCH_REJECT_BASE + int(RejectCode.OVERLOADED), str(exc)
    except RuntimeError as exc:  # engine stopped underneath us
        fail, detail = (
            BATCH_REJECT_BASE + int(RejectCode.SHUTTING_DOWN), str(exc)
        )
    else:
        remaining = admitted
        lock = threading.Lock()

        def _callback_for(indices: list[int], rows: list[int]):
            # The run was served as one engine request whose prediction
            # rows are the entries' rows back to back (``rows[k]``
            # each); expiry marks the whole run (one shared deadline).
            def _on_done(result) -> None:
                nonlocal remaining
                admission.release(reserved=reserved, count=len(indices))
                if result.predictions is not None:
                    preds = result.predictions
                    offset = 0
                    for index, n in zip(indices, rows):
                        predictions[index] = preds[offset:offset + n]
                        offset += n
                else:
                    statuses[indices] = int(ErrorCode.EXPIRED)
                with lock:
                    remaining -= len(indices)
                    last = remaining == 0
                if last:
                    settle(statuses, predictions, "")
            return _on_done

        for (indices, rows), future in zip(runs, futures):
            future.add_done_callback(_callback_for(indices, rows))
        return True
    # submit_many is all-or-nothing: every admitted entry failed the
    # same way, so resolve them in place and answer immediately.
    admission.release(reserved=reserved, count=admitted)
    statuses[statuses == 0] = fail
    settle(statuses, predictions, detail)
    return False


class GatewayServer:
    """TCP gateway in front of one :class:`ServingEngine`.

    Parameters
    ----------
    engine:
        The (already-running) engine to serve.  The gateway does not
        own it: ``stop()`` drains the gateway but leaves the engine up.
    host, port:
        Listen address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    rate_limit, burst:
        Per-tenant token bucket (tokens/s, capacity).  ``None`` rate
        disables rate limiting.
    max_inflight:
        Global admitted-but-unresolved cap; clamped to the engine's
        ring capacity (see :class:`AdmissionController`).
    max_frame_bytes:
        Inbound frame-size cap per connection.
    connection_window:
        Credit window requested for each cooperative connection
        (clamped to what the admission budget can still reserve).
        Defaults to half the in-flight cap.
    http_port:
        When set, also serve the HTTP/1.1 JSON ingress
        (:mod:`repro.serve.http`) on this port (0 picks a free one —
        read :attr:`http_port` back after :meth:`start`).
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit: float | None = None,
        burst: float | None = None,
        max_inflight: int | None = None,
        max_frame_bytes: int | None = None,
        connection_window: int | None = None,
        http_port: int | None = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self._requested_port = port
        cap = engine.config.ring_slots
        self.admission = AdmissionController(
            engine.tenants,
            max_inflight=min(max_inflight, cap) if max_inflight else cap,
            rate_limit=rate_limit,
            burst=burst,
        )
        if connection_window is None:
            connection_window = max(1, self.admission.max_inflight // 2)
        if connection_window < 1:
            raise ValueError(
                f"connection_window must be >= 1, got {connection_window}"
            )
        self._connection_window = connection_window
        self._max_frame = max_frame_bytes
        self._requested_http_port = http_port
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None
        self.http_port: int | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self, timeout: float = 10.0) -> "GatewayServer":
        """Spin up the loop thread and start listening; returns self."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError(f"gateway failed to start within {timeout}s")
        if self._start_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._start_error!r}"
            )
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self._server = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            ))
            self.port = self._server.sockets[0].getsockname()[1]
            if self._requested_http_port is not None:
                from repro.serve.http import handle_http_connection

                async def _http(reader, writer):
                    await handle_http_connection(self, reader, writer)

                self._http_server = loop.run_until_complete(
                    asyncio.start_server(
                        _http, self.host, self._requested_http_port
                    )
                )
                self.http_port = (
                    self._http_server.sockets[0].getsockname()[1]
                )
        except BaseException as exc:  # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # Cancel whatever survived the drain, then let the loop
            # unwind the cancellations before closing.
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(
                loop.shutdown_asyncgens()
            )
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Drain in-flight requests, close connections, stop the loop.

        Idempotent.  New requests are shed ``SHUTTING_DOWN`` the moment
        this is called; already-admitted ones get their responses
        (bounded by ``timeout``).
        """
        if self._thread is None or self.loop is None:
            return
        self.admission.drain()
        deadline = time.monotonic() + timeout
        while (self.admission.inflight > 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        loop = self.loop
        if loop.is_running():
            async def _shutdown() -> None:
                for server in (self._server, self._http_server):
                    if server is not None:
                        server.close()
                        await server.wait_closed()
                for task in list(self._connections):
                    task.cancel()
            try:
                asyncio.run_coroutine_threadsafe(
                    _shutdown(), loop
                ).result(timeout=timeout)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Replies are small; never let Nagle hold them hostage.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP transports
                pass
        # One writer coroutine per connection serialises every reply —
        # engine done-callbacks only ever enqueue, so responses can
        # never interleave mid-frame.
        outbox: asyncio.Queue = asyncio.Queue()
        conn = _Connection(outbox)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(outbox, writer)
        )
        decoder = (
            FrameDecoder(self._max_frame)
            if self._max_frame
            else FrameDecoder()
        )
        transport = writer.transport
        metrics = _metrics()
        try:
            while True:
                if conn.cooperative and not conn.resume.is_set():
                    # Window exhausted: connection-level backpressure.
                    # Stop reading so in-transit frames queue in the
                    # kernel buffers instead of being shed one by one;
                    # the reply path returns credits and resumes us.
                    try:
                        transport.pause_reading()
                    except (AttributeError, RuntimeError):
                        pass
                    if metrics.enabled:
                        metrics.inc("gateway.paused")
                    await conn.resume.wait()
                    try:
                        transport.resume_reading()
                    except (AttributeError, RuntimeError):
                        pass
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # Typed error back, then hang up: past a framing
                    # error the stream cannot be trusted.
                    await outbox.put(encode_frame(Frame(
                        FrameKind.ERROR,
                        payload=encode_status(
                            ErrorCode.BAD_REQUEST, str(exc)
                        ),
                    )))
                    break
                submitted = False
                for frame in frames:
                    submitted |= self._handle_frame(frame, conn)
                if submitted:
                    # Coalesced singles: one engine dispatch per read
                    # chunk, not one per frame.
                    self.engine.flush()
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            self._connections.discard(task)
            if conn.window:
                self.admission.release_window(conn.window)
            outbox.put_nowait(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            # close() without awaiting wait_closed(): awaiting here can
            # itself be cancelled during loop shutdown and escape the
            # handler as a task exception; the transport finishes the
            # close on its own.
            writer.close()

    async def _write_replies(
        self, outbox: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            item = await outbox.get()
            if item is None:
                return
            try:
                writer.write(item)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return

    # -- frame handling ------------------------------------------------

    def _handle_frame(self, frame: Frame, conn: _Connection) -> bool:
        """Process one inbound frame; True if it reached the engine
        unflushed (the caller flushes once per read chunk)."""
        if frame.kind == FrameKind.PING:
            self._handle_ping(frame, conn)
            return False
        single = frame.kind in (FrameKind.PACKED, FrameKind.FEATURES)
        if not single and frame.kind != FrameKind.SUBMIT_BATCH:
            conn.outbox.put_nowait(encode_frame(Frame(
                FrameKind.ERROR,
                trace_id=frame.trace_id,
                payload=encode_status(
                    ErrorCode.BAD_REQUEST,
                    f"gateway does not accept {frame.kind.name} frames",
                ),
            )))
            return False
        tenant = frame.tenant or self.engine.tenants[0]
        try:
            if single:
                batch = BatchOfOne(
                    decode_array(frame.kind, frame.payload),
                    features=frame.kind == FrameKind.FEATURES,
                    trace_id=frame.trace_id,
                )
            else:
                batch = decode_submit_batch(frame.payload)
        except ProtocolError as exc:
            # A single frame spent one credit; a malformed batch's entry
            # count is unknown, so it gets none back.
            conn.refund(int(single), encode_frame(Frame(
                FrameKind.ERROR,
                tenant=tenant,
                trace_id=frame.trace_id,
                payload=encode_status(ErrorCode.BAD_REQUEST, str(exc)),
            )))
            return False
        count = len(batch)
        if conn.cooperative:
            if conn.inflight + count > conn.window:
                # Window overrun: typed reject, credits refunded — the
                # client that respects its grants never lands here.
                conn.refund(count, self._reject_frame(
                    frame, tenant, RejectCode.OVERLOADED
                ))
                return False
            conn.charge(count)

        def _settle(statuses, predictions, detail) -> None:
            if single:
                reply = self._single_reply(
                    frame, tenant, int(statuses[0]), predictions[0], detail
                )
            else:
                reply = encode_frame(Frame(
                    FrameKind.RESPONSE_BATCH,
                    tenant=tenant,
                    trace_id=frame.trace_id,
                    payload=encode_response_batch(
                        batch.trace_ids, statuses, predictions
                    ),
                ))
            conn.reply(reply, count)

        return serve_batch(
            self, tenant, batch,
            deadline=frame.deadline_ns / 1e9 if frame.deadline_ns else None,
            reserved=conn.cooperative, flush=False, settle=_settle,
        )

    def _handle_ping(self, frame: Frame, conn: _Connection) -> None:
        if frame.flags & FLAG_CREDIT and not conn.cooperative:
            window = self.admission.reserve_window(self._connection_window)
            if window > 0:
                conn.cooperative = True
                conn.window = window
                # Grant before the PONG so the client sees its window
                # the moment the handshake completes.
                conn.outbox.put_nowait(encode_frame(Frame(
                    FrameKind.CREDIT, payload=encode_credit(window)
                )))
        conn.outbox.put_nowait(encode_frame(Frame(
            FrameKind.PONG, trace_id=frame.trace_id
        )))

    def _reject_frame(
        self, frame: Frame, tenant: str, code: RejectCode, detail: str = ""
    ) -> bytes:
        retry = (
            self.admission.retry_after_ms(tenant)
            if code == RejectCode.RATE_LIMITED else None
        )
        return encode_frame(Frame(
            FrameKind.REJECT,
            tenant=tenant,
            trace_id=frame.trace_id,
            payload=encode_reject(code, detail or code.name, retry),
        ))

    def _single_reply(
        self, frame: Frame, tenant: str, status: int, predictions, detail
    ) -> bytes:
        """RESPONSE, ERROR or REJECT frame for a single-request frame."""
        if status >= BATCH_REJECT_BASE:
            return self._reject_frame(
                frame, tenant, RejectCode(status - BATCH_REJECT_BASE), detail
            )
        if status == ErrorCode.EXPIRED:
            detail = EXPIRED_DETAIL
        return encode_frame(Frame(
            FrameKind.ERROR if status else FrameKind.RESPONSE,
            tenant=tenant,
            trace_id=frame.trace_id,
            payload=(
                encode_status(status, detail) if status
                else encode_predictions(predictions)
            ),
        ))
