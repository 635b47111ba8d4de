"""Bulk serving over ``ServingEngine.submit(ServeRequest)`` for tests."""

import numpy as np

from repro.serve import ServeRequest


def serve_all(engine, rows, *, features=False, timeout=60.0):
    """Serve every row of ``rows`` for the first tenant, in input order.

    Splits ``rows`` into ``max_queries_per_request``-row requests,
    frame-batches the submits, and collects once half the ring is in
    flight so a large input never exhausts it.  Raises TimeoutError if
    any request expires.
    """
    step = engine.max_queries_per_request
    window = max(1, engine.config.ring_slots // 2)
    parts, futures = [], []

    def gather():
        engine.flush()
        for future in futures:
            result = future.result(timeout=timeout)
            if not result.ok:
                raise TimeoutError(
                    f"request {future.request_id} expired before being served"
                )
            parts.append(result.predictions)
        futures.clear()

    for start in range(0, rows.shape[0], step):
        futures.append(engine.submit(
            ServeRequest(rows[start:start + step], features=features),
            flush=False,
        ))
        if len(futures) >= window:
            gather()
    gather()
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
