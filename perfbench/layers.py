"""The traced run: per-layer metrics beside the end-to-end figures.

:func:`per_layer` installs the :class:`tracing.Tracer` wrappers, runs the
workload's traced phase, removes them, and reduces the spans, the
engine's ``ServeTrace`` and the recovery statistics to the per-layer
metrics ``BENCHMARK.json`` lists.  A metric a layer does not produce on a
workload reads 0 (see the README's layer table for which are absent
where, and why).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import workloads as w
from tracing import Tracer, recovery_ledger, self_times, serving_ledger

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
LEDGER_LAYERS = {
    "client": "serve.client", "wire": "wire", "protocol": "serve.protocol",
    "gateway": "serve.gateway", "http": "serve.http",
    "engine": "serve.engine", "worker": "serve.worker", "shm": "serve.shm",
    "recovery": "core.recovery", "chunks": "core.chunks",
    "packed": "core.packed", "kernels": "core.kernels", "glue": "perfbench",
}
ENCODER_BASELINE_S = 1.5
# Wall-clock end-to-end figures: too noisy on a shared 2-core host to
# carry a bound, they are reported here, from the untraced half of the
# traced run.
UNBOUNDED = {
    "gateway_batch": {
        "e2e.rate_per_s": "batch_req_per_s", "e2e.p10_ms": "batch_frame_p10_ms",
        "e2e.p50_ms": "batch_frame_p50_ms", "e2e.p99_ms": "batch_frame_p99_ms",
    },
    "single_open": {
        "e2e.rate_per_s": "single_goodput_per_s",
        "e2e.p10_ms": "single_p10_ms.r500",
        "e2e.p50_ms": "single_p50_ms.r500",
        "e2e.p99_ms": "single_p99_ms.r1000",
        "e2e.p50_ms.r1000": "single_p50_ms.r1000",
        "e2e.p50_ms.r2000": "single_p50_ms.r2000",
        "e2e.max_rate": "single_max_rate",
    },
    "http_features": {
        "e2e.rate_per_s": "http_req_per_s", "e2e.p10_ms": "http_p10_ms",
        "e2e.p50_ms": "http_p50_ms", "e2e.p99_ms": "http_p99_ms",
    },
    "recover_live": {
        "e2e.rate_per_s": "recover_stream_qps",
        "e2e.p10_ms": "recover_read_p10_ms",
        "e2e.p50_ms": "recover_read_p50_ms", "e2e.p99_ms": "recover_read_p99_ms",
    },
}


def _p(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def _mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def _worker(events, elapsed_s: float) -> dict:
    """Worker-side figures from the engine's ``ServeBatchEvent`` records."""
    queries = sum(e.queries for e in events)
    busy = sum(e.duration_s for e in events)
    adopted = [e.adoption_lag_s * 1e3 for e in events if e.adopted]
    return {
        "worker.batches": len(events),
        "worker.requests_per_batch": _mean([e.requests for e in events]),
        "worker.queries_per_batch": _mean([e.queries for e in events]),
        "worker.busy_share": busy / elapsed_s if elapsed_s else 0.0,
        "worker.busy_us_per_query": busy * 1e6 / queries if queries else 0.0,
        "worker.batch_ms_p50": _p([e.duration_s * 1e3 for e in events], 50),
        "worker.batch_ms_p95": _p([e.duration_s * 1e3 for e in events], 95),
        "worker.dispatch_wait_ms_p50": _p([e.dispatch_wait_s * 1e3 for e in events], 50),
        "worker.dispatch_wait_ms_p95": _p([e.dispatch_wait_s * 1e3 for e in events], 95),
        "worker.bytes_per_query": (
            sum(e.bytes_scanned for e in events) / queries if queries else 0.0
        ),
        "worker.expired": sum(e.expired for e in events),
        "worker.degraded_batches": sum(1 for e in events if e.degraded),
        "worker.adoptions": len(adopted),
        "worker.adoption_lag_ms_p50": _p(adopted, 50),
    }


def per_layer(name: str, stack, packed, measure, untraced, spans_path):
    """Run the traced phase; returns (metrics, traced outcome)."""
    tracer = Tracer()
    engine = stack.engine
    admission = stack.gateway.admission
    first_event = len(engine.trace)
    admitted0, shed0 = admission.admitted, admission.shed_total
    tracer.install(engine, stack.gateway, recovery=name == "recover_live")
    try:
        start = time.perf_counter()
        outcome = measure(tracer)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    events = engine.trace.events[first_event:]
    admitted = admission.admitted - admitted0

    m = dict.fromkeys(PER_LAYER, 0.0)
    late = outcome.extra.get("late_ms")
    if late is not None and len(late):
        m["client.late_ms_p50"] = _p(late, 50)
        m["client.late_ms_max"] = float(np.max(late))

    durations: dict[str, list] = {}
    for sid, span_name, begin, end, parent, request in tracer.spans:
        durations.setdefault(span_name, []).append((end - begin) / 1e3)   # us
    frames = tracer.counts.get("protocol.frames", 0)
    m["protocol.frames"] = frames
    decode = sum(sum(durations.get(f"protocol.{s}", ())) for s in
                 ("feed", "decode_array", "decode_submit_batch"))
    m["protocol.decode_us_per_frame"] = decode / frames if frames else 0.0
    m["gateway.admitted"] = admitted
    m["gateway.shed"] = admission.shed_total - shed0
    m["gateway.credit_waits"] = outcome.extra.get("credit_waits", 0)
    m["gateway.admit_us_per_call"] = _mean(
        durations.get("gateway.admit", []) + durations.get("gateway.admit_many", [])
    )
    engine_requests = tracer.counts.get("engine.requests", 0)
    m["gateway.requests_per_engine_submit"] = (
        admitted / engine_requests if engine_requests else 0.0
    )
    m["engine.submit_us_per_call"] = _mean(
        durations.get("engine.submit", []) + durations.get("engine.submit_many", [])
        + durations.get("engine.flush", [])
    )
    residence = [(r.done_ns - r.start_ns) / 1e6 for r in tracer.requests
                 if r.done_ns is not None]
    m["engine.residence_ms_p50"] = _p(residence, 50)
    m["engine.residence_ms_p99"] = _p(residence, 99)

    ledger, extra_spans, joined = serving_ledger(
        tracer, outcome.roots, engine.trace.events
    )
    if joined["ingress_ms"]:
        key = "http.ingress_ms_p50" if name == "http_features" else "gateway.ingress_ms_p50"
        m[key] = _p(joined["ingress_ms"], 50)
    if ledger.end_to_end:
        m["engine.share_of_parent"] = sum(joined["residence_ms"]) / 1e3 / ledger.end_to_end
    if name == "http_features":
        m["http.body_bytes"] = outcome.extra["body_bytes"]

    m.update(_worker(events, elapsed))
    publishes = durations.get("shm.publish", [])
    m["shm.publish_calls"] = len(publishes)
    m["shm.publish_us_p50"] = _p(publishes, 50)
    if publishes:
        m["shm.publish_bytes"] = tracer.counts["shm.publish_bytes"] / len(publishes)

    if name == "recover_live":
        selfs = self_times(tracer.spans)
        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span[1], []).append(span[0])

        def self_s(*names):
            return sum(selfs[sid] for n in names for sid in by_name.get(n, ())) / 1e9

        rounds = outcome.extra["rounds"]
        seen = sum(r["stats"].queries_seen for r in rounds)
        m["recovery.blocks"] = len(durations.get("recovery.recover_block", []))
        m["recovery.block_ms_p50"] = _p(durations.get("recovery.recover_block", []), 50) / 1e3
        m["recovery.self_s"] = self_s("recovery.process", "recovery.recover_block")
        m["recovery.trust_rate"] = (
            sum(r["stats"].queries_trusted for r in rounds) / seen if seen else 0.0
        )
        m["recovery.chunks_flagged"] = sum(r["stats"].chunks_repaired for r in rounds)
        m["recovery.bits_substituted"] = sum(r["stats"].bits_substituted for r in rounds)
        m["chunks.calls"] = len(durations.get("chunks.chunk_similarities_batch", []))
        m["chunks.self_s"] = self_s("chunks.chunk_similarities_batch")
        calls = len(durations.get("packed.distances", []))
        m["packed.distances_calls"] = calls
        m["packed.self_us_per_call"] = self_s("packed.distances") * 1e6 / calls if calls else 0.0
        kernel_calls = len(durations.get("kernels.distance_table", []))
        rows = tracer.counts.get("kernels.rows", 0)
        m["kernels.calls"] = kernel_calls
        m["kernels.self_s"] = self_s("kernels.distance_table")
        m["kernels.rows_per_call"] = rows / kernel_calls if kernel_calls else 0.0
        m["kernels.bytes_per_query"] = tracer.counts.get("kernels.bytes", 0) / rows if rows else 0.0
        ledger = recovery_ledger(tracer)

    if name == "http_features":
        # The encoder runs only in the worker: its cost is the worker's
        # busy time per query on feature rows minus the same on packed
        # rows, measured here on the same engine.
        first = len(engine.trace)
        w.packed_closed_loop(stack, packed, ENCODER_BASELINE_S)
        baseline = _worker(engine.trace.events[first:], ENCODER_BASELINE_S)
        m["encoder.us_per_query"] = (
            m["worker.busy_us_per_query"] - baseline["worker.busy_us_per_query"]
        )

    for metric, detail in UNBOUNDED[name].items():
        m[metric] = untraced.metrics[detail][0]
    if name in ("gateway_batch", "http_features"):
        # Share of the closed loop's completion rate lost from the first
        # three windows of the run to the last three.
        rates = np.asarray(untraced.extra["window_rates"])
        m["e2e.rate_decay_share"] = 1.0 - np.median(rates[-3:]) / np.median(rates[:3])
    m["trace.overhead_share"] = outcome.primary_ms / untraced.primary_ms - 1.0
    m["ledger.sum_share"] = ledger.sum_share
    for short, layer in LEDGER_LAYERS.items():
        m[f"ledger.{short}_share"] = ledger.share(layer)
    tracer.write(spans_path, extra_spans)
    return {k: (float(v), PER_LAYER[k]) for k, v in m.items()}, outcome
