"""Encoding & training benchmark: packed codebook engine vs the reference.

Measures the two paths this repo's packed encoding engine replaced at the
paper's deployment shape (n = 64 features, D = 10,000, L = 32 levels —
the HAR-sized workload):

* **encode** — ``Encoder.encode_batch`` via the precomputed packed bound
  codebook + the active kernel backend's majority bundle, vs the seed's ``(block, n, D)``
  uint8 bound-tensor sum (kept as ``encode_batch_reference``), plus
  ``encode_packed`` emitting packed words directly (what the serving
  stack actually ingests — no unpack at all);
* **fit** — ``HDCClassifier.fit_encoded``'s blocked GEMM + patch-forward
  perceptron vs the seed's ``np.add.at`` bundling and per-sample Python
  loop, with per-epoch and whole-fit timings (the vectorised fit, epoch
  and streaming legs are timed best-of-``repeats`` after one untimed
  warm-up call each);
* **partial_fit** — streaming single-pass bundling throughput;
* **bundle** — ``KernelBackend.bundle_majority`` at the serving shape
  (n = 32 features, D = 10,000, L = 32; the perfbench tenant) for
  b = 1, 4 and 32 rows per call, on every backend available here, each
  asserted bit-identical to the reference backend before it is timed.

Every timed pair is asserted bit-identical before timing (the same
equivalences are property-tested in ``tests/core``); results are written
as JSON so future PRs have a perf trajectory to regress against.

Usage::

    PYTHONPATH=src python benchmarks/bench_encoding.py           # writes BENCH_encoding.json
    PYTHONPATH=src python benchmarks/bench_encoding.py --smoke   # CI smoke, prints JSON only

``--smoke`` shrinks every workload so the run takes a couple of seconds
and, unless ``--output`` is given explicitly, does not overwrite the
committed ``BENCH_encoding.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.encoder import Encoder, clear_codebook_cache
from repro.core.hypervector import class_bundle_counts
from repro.core.model import (
    HDCClassifier,
    _perceptron_epoch,
    _perceptron_epoch_reference,
)
from repro.core.packed import unpack
from repro.datasets.synthetic import make_classification

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_encoding.json"


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_per_call(fn, repeats: int, budget_s: float = 0.05) -> float:
    """Best-of-``repeats`` seconds per call, each repeat ~``budget_s`` long."""
    start = time.perf_counter()
    fn()
    inner = max(1, int(budget_s / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def bench_bundle(num_features: int, dim: int, levels: int,
                 batches: tuple[int, ...], repeats: int) -> dict:
    """Microseconds per bundle call on every available backend."""
    enc = Encoder(num_features=num_features, dim=dim, levels=levels, seed=0)
    codebook = enc.packed_codebook().words
    rng = np.random.default_rng(1)
    oracle = kernels.get_backend("reference")
    names = [name for name, ok in kernels.available_backends().items() if ok]
    legs = {}
    for batch in batches:
        idx = rng.integers(0, levels, (batch, num_features))
        expected = oracle.bundle_majority(codebook, idx)
        leg = {}
        for name in names:
            backend = kernels.get_backend(name)
            assert (backend.bundle_majority(codebook, idx) == expected).all(), \
                f"{name} bundle diverged from the reference"
            seconds = _time_per_call(
                lambda: backend.bundle_majority(codebook, idx), repeats
            )
            leg[name] = {"us_per_call": seconds * 1e6,
                         "us_per_row": seconds * 1e6 / batch}
        legs[str(batch)] = leg
    return {
        "num_features": num_features,
        "dim": dim,
        "levels": levels,
        "backends": names,
        "batches": legs,
    }


def bench_encode(num_features: int, dim: int, levels: int, batch: int,
                 repeats: int) -> dict:
    clear_codebook_cache()
    enc = Encoder(num_features=num_features, dim=dim, levels=levels, seed=0)
    rng = np.random.default_rng(0)
    features = rng.random((batch, num_features))

    ref = enc.encode_batch_reference(features)
    enc.packed_codebook()  # warm the lazy bound codebook, as serving would
    got = enc.encode_batch(features)
    assert (got == ref).all(), "packed and reference encodings diverged"
    assert (unpack(enc.encode_packed(features)) == ref).all(), \
        "encode_packed diverged from the reference"

    t_ref = _time(lambda: enc.encode_batch_reference(features),
                  max(1, repeats // 2))
    t_packed = _time(lambda: enc.encode_batch(features), repeats)
    t_words = _time(lambda: enc.encode_packed(features), repeats)
    codebook = enc.packed_codebook()
    return {
        "num_features": num_features,
        "dim": dim,
        "levels": levels,
        "batch": batch,
        "block_bytes": enc.block_bytes(),
        "rows_per_block_packed": enc.rows_per_block(packed=True),
        "rows_per_block_reference": enc.rows_per_block(packed=False),
        "bound_codebook_bytes": int(codebook.words.nbytes),
        "reference_rows_per_s": batch / t_ref,
        "packed_rows_per_s": batch / t_packed,
        "packed_words_rows_per_s": batch / t_words,
        "speedup": t_ref / t_packed,
        "speedup_packed_words": t_ref / t_words,
    }


def _fit_reference(encoded: np.ndarray, labels: np.ndarray, num_classes: int,
                   epochs: int, seed: int) -> tuple[np.ndarray, float, float]:
    """The seed's fit_encoded: scatter-add bundling + per-sample loop.

    Returns (accumulators, bundling seconds, per-epoch seconds) so the
    benchmark can report epoch-level and whole-fit speedups separately.
    """
    start = time.perf_counter()
    bipolar = encoded.astype(np.int64) * 2 - 1
    acc = np.zeros((num_classes, encoded.shape[1]), dtype=np.int64)
    np.add.at(acc, labels, bipolar)
    t_bundle = time.perf_counter() - start

    bipolar8 = (encoded.astype(np.int8) << 1) - 1
    rng = np.random.default_rng(seed)
    epoch_times = []
    for _ in range(epochs):
        start = time.perf_counter()
        wrong = _perceptron_epoch_reference(acc, bipolar8, labels, rng)
        epoch_times.append(time.perf_counter() - start)
        if wrong == 0:
            break
    return acc, t_bundle, sum(epoch_times) / len(epoch_times)


def bench_fit(num_features: int, dim: int, levels: int, num_classes: int,
              num_train: int, epochs: int, separation: float,
              repeats: int) -> dict:
    task = make_classification(
        "bench", num_features=num_features, num_classes=num_classes,
        num_train=num_train, num_test=2, separation=separation, seed=0,
    )
    enc = Encoder(num_features=num_features, dim=dim, levels=levels, seed=0)
    encoded = enc.encode_batch(task.train_x)
    labels = np.asarray(task.train_y, dtype=np.int64)

    ref_acc, t_bundle_ref, t_epoch_ref = _fit_reference(
        encoded, labels, num_classes, epochs, seed=0
    )
    t_fit_ref = t_bundle_ref + epochs * t_epoch_ref

    # Each vectorised leg starts from fresh state on every call; one
    # untimed call first, so no leg times a cold allocator or cache.
    def fit():
        clf = HDCClassifier(enc, num_classes=num_classes, epochs=epochs,
                            seed=0)
        clf.fit_encoded(encoded, labels)
        return clf

    assert (fit()._acc == ref_acc).all(), \
        "vectorised fit diverged from the per-sample reference"
    t_fit_vec = _time(fit, repeats)

    # Epoch-only comparison from the same starting accumulators.
    acc0 = class_bundle_counts(encoded, labels, num_classes)
    bipolar8 = (encoded.astype(np.int8) << 1) - 1

    def epoch():
        _perceptron_epoch(acc0.copy(), bipolar8, labels,
                          np.random.default_rng(1))

    epoch()
    t_epoch_vec = _time(epoch, repeats)

    # Streaming single-pass throughput over the same data.
    chunk = max(1, num_train // 8)

    def stream():
        streamer = HDCClassifier(enc, num_classes=num_classes, epochs=0,
                                 seed=0)
        for lo in range(0, num_train, chunk):
            streamer.partial_fit_encoded(encoded[lo:lo + chunk],
                                         labels[lo:lo + chunk])

    stream()
    t_stream = _time(stream, repeats)

    return {
        "num_features": num_features,
        "dim": dim,
        "num_classes": num_classes,
        "num_train": num_train,
        "epochs": epochs,
        "repeats": repeats,
        "reference_epoch_s": t_epoch_ref,
        "vectorised_epoch_s": t_epoch_vec,
        "epoch_speedup": t_epoch_ref / t_epoch_vec,
        "reference_fit_s": t_fit_ref,
        "vectorised_fit_s": t_fit_vec,
        "fit_speedup": t_fit_ref / t_fit_vec,
        "partial_fit_rows_per_s": num_train / t_stream,
    }


def run(smoke: bool) -> dict:
    if smoke:
        encode_kw = dict(num_features=16, dim=520, levels=8, batch=128,
                         repeats=2)
        fit_kw = dict(num_features=16, dim=512, levels=8, num_classes=4,
                      num_train=200, epochs=2, separation=1.2, repeats=2)
        bundle_repeats = 2
    else:
        encode_kw = dict(num_features=64, dim=10_000, levels=32, batch=1_024,
                         repeats=3)
        fit_kw = dict(num_features=64, dim=10_000, levels=32, num_classes=12,
                      num_train=3_000, epochs=3, separation=1.2, repeats=5)
        bundle_repeats = 5
    return {
        "schema": 3,
        "generated_by": "benchmarks/bench_encoding.py"
        + (" --smoke" if smoke else ""),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "hardware_popcount": hasattr(np, "bitwise_count"),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend().name,
        "encode": bench_encode(**encode_kw),
        "fit": bench_fit(**fit_kw),
        "bundle": bench_bundle(num_features=32, dim=10_000, levels=32,
                               batches=(1, 4, 32), repeats=bundle_repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    results = run(args.smoke)
    text = json.dumps(results, indent=2)
    print(text)
    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output is not None:
        output.write_text(text + "\n")
        print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
