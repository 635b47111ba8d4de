"""Spans around the calls perfbench makes into each layer, and the ledger.

Nothing under ``src/`` changes.  :meth:`Tracer.install` wraps, at run
time, the public entry points one layer calls in the next, and
:meth:`Tracer.uninstall` puts the originals back.  It runs in the parent
process only, after the engine has forked its worker, so the worker runs
unmodified code; worker-side figures come from ``ServingEngine.trace``.

A span is ``(id, name, start_ns, end_ns, parent, request)``.  ``parent``
is the span open on the same thread when it started; ``request`` is the
join key of the engine request it served (see
``workloads.request_key``).  A span's self time is its duration minus
the part of it its child spans cover.  Spans stay in memory and are
written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

import repro.core.chunks as chunks_module
import repro.core.recovery as recovery_module
import repro.serve.gateway as gateway_module
import repro.serve.http as http_module
from repro.core import kernels
from repro.core.packed import PackedModel
from repro.core.recovery import RobustHDRecovery
from repro.serve.protocol import FrameDecoder
from repro.serve.shm import GenerationPublisher
from workloads import request_key

now_ns = time.perf_counter_ns

# Span name -> layer (the module the call enters) for the ledger.
LAYERS = {
    "protocol.feed": "serve.protocol",
    "protocol.decode_array": "serve.protocol",
    "protocol.decode_submit_batch": "serve.protocol",
    "gateway.admit": "serve.gateway",
    "gateway.admit_many": "serve.gateway",
    "http.json_loads": "serve.http",
    "http.json_dumps": "serve.http",
    "engine.submit": "serve.engine",
    "engine.submit_many": "serve.engine",
    "engine.flush": "serve.engine",
    "worker.batch": "serve.worker",
    "shm.publish": "serve.shm",
    "recovery.process": "core.recovery",
    "recovery.recover_block": "core.recovery",
    "chunks.chunk_similarities_batch": "core.chunks",
    "packed.distances": "core.packed",
    "kernels.distance_table": "core.kernels",
    "client.late": "serve.client",
    "perfbench.round": "perfbench",
}


class EngineRequest:
    """One request as the engine saw it, with the gateway spans before it."""

    __slots__ = ("key", "feed", "pending", "submit", "flush", "render",
                 "start_ns", "done_ns", "event_index")

    def __init__(self, key, feed, pending, submit, start_ns) -> None:
        self.key = key
        self.feed = feed
        self.pending = pending
        self.submit = submit
        self.flush = None
        self.render = None
        self.start_ns = start_ns
        self.done_ns = None
        self.event_index = None


class Tracer:
    """In-memory span recorder plus the run-time wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.requests: list[EngineRequest] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []
        self._task_request: dict[int, EngineRequest] = {}
        self._gateway_thread: int | None = None
        self.engine = None

    # -- spans -----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.feed = None
            local.feed_task = None
            local.pending = []
            local.since_feed = []
        return local

    def open(self, name: str) -> tuple:
        """Start a span on this thread; close it with :meth:`close`."""
        stack = self._state().stack
        sid = next(self._ids)
        token = (sid, name, now_ns(), stack[-1] if stack else None)
        stack.append(sid)
        return token

    def close(self, token: tuple) -> int:
        sid, name, start, parent = token
        self._state().stack.pop()
        self.spans.append((sid, name, start, now_ns(), parent, None))
        return sid

    def _count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn, *, gateway_only=False, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if gateway_only and threading.get_ident() != tracer._gateway_thread:
                return fn(*args, **kwargs)
            token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                sid = tracer.close(token)
            if after is not None:
                after(sid, token[2], args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, **kw) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, (type, ModuleType)):
            self._restore.append((owner, attr, owner.__dict__[attr]))
        else:   # an instance: the wrapper shadows the class's method
            self._restore.append((owner, attr, None))
        setattr(owner, attr, self._wrap(name, original, **kw))

    # -- install / uninstall --------------------------------------------

    def install(self, engine, gateway, *, recovery: bool = False) -> None:
        """Wrap every traced boundary (parent process only)."""
        self.engine = engine
        self._gateway_thread = asyncio.run_coroutine_threadsafe(
            _thread_ident(), gateway.loop
        ).result(timeout=10)

        self._patch(FrameDecoder, "feed", "protocol.feed",
                    gateway_only=True, after=self._after_feed)
        for attr in ("decode_array", "decode_submit_batch"):
            self._patch(gateway_module, attr, f"protocol.{attr}",
                        gateway_only=True, after=self._after_pending)
        for attr in ("admit", "admit_many"):
            self._patch(gateway.admission, attr, f"gateway.{attr}",
                        gateway_only=True, after=self._after_pending)
        self._patch(engine, "submit", "engine.submit", after=self._after_submit)
        self._patch(engine, "submit_many", "engine.submit_many",
                    after=self._after_submit)
        self._patch(engine, "flush", "engine.flush", gateway_only=True,
                    after=self._after_flush)
        real_json = http_module.json
        proxy = SimpleNamespace(
            loads=self._wrap("http.json_loads", real_json.loads,
                             gateway_only=True, after=self._after_pending),
            dumps=self._wrap("http.json_dumps", real_json.dumps,
                             gateway_only=True, after=self._after_render),
            JSONDecodeError=real_json.JSONDecodeError,
        )
        self._restore.append((http_module, "json", real_json))
        http_module.json = proxy
        if recovery:
            self._patch(RobustHDRecovery, "process", "recovery.process")
            self._patch(recovery_module, "recover_block",
                        "recovery.recover_block")
            self._patch(chunks_module, "chunk_similarities_batch",
                        "chunks.chunk_similarities_batch")
            self._patch(PackedModel, "distances", "packed.distances")
            self._patch(type(kernels.active_backend()), "distance_table",
                        "kernels.distance_table", after=self._after_kernel)
            self._patch(GenerationPublisher, "publish", "shm.publish",
                        after=self._after_publish)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- after-call hooks (run on the calling thread) -------------------

    def _after_feed(self, sid, start, args, kwargs, frames) -> None:
        state = self._state()
        state.feed = sid
        state.feed_task = id(asyncio.current_task())
        state.pending = []
        self._count("protocol.frames", len(frames))

    def _after_pending(self, sid, start, args, kwargs, result) -> None:
        self._state().pending.append(sid)

    def _after_submit(self, sid, start, args, kwargs, result) -> None:
        state = self._state()
        on_gateway = threading.get_ident() == self._gateway_thread
        task = id(asyncio.current_task()) if on_gateway else None
        feed = state.feed if task is not None and task == state.feed_task else None
        pending = tuple(state.pending) if on_gateway else ()
        state.pending = []
        if isinstance(result, list):
            pairs = zip(args[0], result)
        else:
            pairs = [(args[0], result)]
        for request, future in pairs:
            record = EngineRequest(request_key(request.payload), feed, pending, sid, start)
            self.requests.append(record)
            if feed is not None:
                state.since_feed.append(record)   # flushed with its chunk
            if on_gateway:
                self._task_request[task] = record
            future.add_done_callback(
                lambda result, record=record: self._resolved(record)
            )
            self._count("engine.requests")

    def _resolved(self, record: EngineRequest) -> None:
        # Runs in the engine's collector, before it records the batch's
        # ServeBatchEvent: the event about to be recorded is this one's.
        record.done_ns = now_ns()
        record.event_index = len(self.engine.trace)

    def _after_flush(self, sid, start, args, kwargs, result) -> None:
        state = self._state()
        for record in state.since_feed:
            record.flush = sid
        state.since_feed = []

    def _after_render(self, sid, start, args, kwargs, result) -> None:
        record = self._task_request.pop(id(asyncio.current_task()), None)
        if record is not None:
            record.render = sid

    def _after_kernel(self, sid, start, args, kwargs, result) -> None:
        queries, model = args[1], args[2]
        rows = queries.shape[0]
        self._count("kernels.rows", rows)
        # Computed, not measured: each call streams its query rows, the
        # whole class matrix and the int64 output once.
        self._count("kernels.bytes", queries.nbytes + model.nbytes + result.nbytes)

    def _after_publish(self, sid, start, args, kwargs, result) -> None:
        self._count("shm.publish_bytes", args[1].packed().nbytes)

    # -- output ---------------------------------------------------------

    def write(self, path: Path, extra_spans=()) -> None:
        """Write every span as one JSON object per line.

        A gateway or engine span shared by several requests (one read
        chunk, one batch frame) carries the first request it served.
        """
        owner: dict[int, int] = {}
        for record in self.requests:
            for sid in (record.feed, record.submit, record.flush,
                        record.render, *record.pending):
                if sid is not None:
                    owner.setdefault(sid, record.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, name, start, end, parent, request in itertools.chain(
                self.spans, extra_spans
            ):
                f.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent,
                    "request": owner.get(sid) if request is None else request,
                }) + "\n")


async def _thread_ident() -> int:
    return threading.get_ident()


# ---------------------------------------------------------------------------
# Self times and the ledger
# ---------------------------------------------------------------------------


def _covered(lo: int, hi: int, intervals) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    parts = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cursor = lo
    for a, b in parts:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, int]:
    """Self time of every span in a same-thread tree, by span id."""
    children: dict[int, list] = {}
    for sid, name, start, end, parent, request in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, ()))
        for sid, name, start, end, parent, request in spans
    }


class Ledger:
    """Per-layer self time summed over blocking paths, against end to end."""

    def __init__(self) -> None:
        self.layers: dict[str, float] = {}
        self.end_to_end = 0.0

    def add(self, layer: str, seconds: float) -> None:
        self.layers[layer] = self.layers.get(layer, 0.0) + seconds

    def share(self, layer: str) -> float:
        if not self.end_to_end:
            return 0.0
        return self.layers.get(layer, 0.0) / self.end_to_end

    @property
    def sum_share(self) -> float:
        if not self.end_to_end:
            return 0.0
        return sum(self.layers.values()) / self.end_to_end


def _duration(span) -> int:
    return span[3] - span[2]


def serving_ledger(tracer: Tracer, roots, events) -> tuple[Ledger, list, dict]:
    """Join client round trips to the engine requests that served them.

    Each root is ``(due_ns, send_ns, done_ns, keys)``; for a batch frame
    the blocking engine request is the one that resolved last.  Root time
    no traced span covers -- sockets, both event loops, reply encoding --
    is booked to ``wire``.  ``events`` is the engine's whole
    ``ServeTrace`` event list.  Returns the ledger, the synthesised
    client, residence and worker spans (for :meth:`Tracer.write`), and
    per-request ingress and residence times.
    """
    # The request pool cycles, so a key recurs: the engine request that
    # served a root is the one with its key submitted during the root.
    by_key: dict[int, list] = {}
    for record in tracer.requests:
        if record.done_ns is not None:
            by_key.setdefault(record.key, []).append(record)
    spans = {span[0]: span for span in tracer.spans}
    ledger = Ledger()
    extra = []
    ingress_ms = []
    residence_ms = []
    for due, sent, done, keys in roots:
        records = [r for k in keys for r in by_key.get(k, ())
                   if due <= r.start_ns <= done]
        if not records:
            continue
        record = max(records, key=lambda r: r.done_ns)
        request = record.key
        root = (next(tracer._ids), "client.request", due, done, None, request)
        late = (next(tracer._ids), "client.late", due, sent, root[0], request)
        residence = (next(tracer._ids), "engine.residence", record.start_ns,
                     record.done_ns, root[0], request)
        inner = [spans[record.submit]]
        if record.flush is not None:
            inner.append(spans[record.flush])
        if record.event_index is not None and record.event_index < len(events):
            # Workers report batch durations, not timestamps: the batch is
            # placed to end when the engine resolved the request.
            busy = int(events[record.event_index].duration_s * 1e9)
            inner.append((next(tracer._ids), "worker.batch",
                          record.done_ns - busy, record.done_ns,
                          residence[0], request))
        direct = [late] + [spans[s] for s in (record.feed, record.render, *record.pending)
                           if s is not None]
        for span in direct + inner:
            ledger.add(LAYERS[span[1]], _duration(span) / 1e9)
        covered = _covered(residence[2], residence[3], [s[2:4] for s in inner])
        ledger.add("serve.engine", (_duration(residence) - covered) / 1e9)
        covered = _covered(due, done, [s[2:4] for s in direct + [residence]])
        ledger.add("wire", (done - due - covered) / 1e9)
        ledger.end_to_end += (done - due) / 1e9
        ingress_ms.append((done - sent - _duration(residence)) / 1e6)
        residence_ms.append(_duration(residence) / 1e6)
        extra += [root, late, residence] + [s for s in inner if s[1] == "worker.batch"]
    return ledger, extra, {"ingress_ms": ingress_ms, "residence_ms": residence_ms}


def recovery_ledger(tracer: Tracer) -> Ledger:
    """Self time per layer under each ``perfbench.round`` span."""
    ledger = Ledger()
    selfs = self_times(tracer.spans)
    parent = {span[0]: span[4] for span in tracer.spans}
    rounds = {span[0] for span in tracer.spans if span[1] == "perfbench.round"}

    def round_of(sid):
        while sid is not None and sid not in rounds:
            sid = parent.get(sid)
        return sid

    for span in tracer.spans:
        sid, name = span[0], span[1]
        if round_of(sid) is None:
            continue
        ledger.add(LAYERS[name], selfs[sid] / 1e9)
        if name == "perfbench.round":
            ledger.end_to_end += _duration(span) / 1e9
    return ledger
