"""Pluggable Hamming-kernel backends for the packed serving engine.

Every 1-bit hot path in this repo bottoms out in the same primitive: a
Hamming *distance table* ``(b, k)`` between packed query words ``(b, W)``
and packed model words ``(k, W)`` — XOR then popcount, summed over the
word axis.  This module puts that primitive behind a
:class:`KernelBackend` contract so the computation can move between
substrates without the callers changing:

* :class:`NumpyPackedBackend` — the production CPU path, extracted from
  ``repro.core.packed``: row-blocked XOR + ``np.bitwise_count`` with
  reused scratch buffers.
* :class:`ReferenceBackend` — the unpacked uint8 oracle: broadcast XOR
  on raw bits.  Slow, obviously correct, and the equivalence anchor the
  property tests pin every other backend against.
* :class:`NativeCpuBackend` — a fused XOR+popcount+accumulate C kernel
  compiled on first use (cached per user in a private temp directory)
  and the default wherever a C compiler is present: one pass, no
  table-sized intermediates, GIL released for the duration.

Every backend runs on the CPU.  :func:`roofline_validation` compares a
backend's measured throughput against the analytic
:class:`repro.pim.gpu.GPUModel` roofline.

Backends are *stateless* over immutable inputs, so one instance is
shared process-wide.  The active backend is the one scoped by
:func:`use_kernel_backend` if any, else ``"native"`` when the fused
kernel compiled on this host, else ``"numpy"``.  Every distance computed
through :meth:`PackedModel.distances
<repro.core.packed.PackedModel.distances>` and
:meth:`PackedHypervectors.hamming_to
<repro.core.packed.PackedHypervectors.hamming_to>` dispatches through
the active backend.

Sharding note: the contract is defined on *word arrays*, not models, so
a shard of a model — a class-row slice or a 64-bit word-block slice —
is served by the same ``distance_table`` call on the sliced operands.
Word-block partials are exact partial popcounts (pad words are zero in
both operands and contribute nothing), which is what lets the serving
tier's reduce tree sum them back into full distances bit-identically
(see :mod:`repro.serve.shard`).
"""

from __future__ import annotations

import os
import stat
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "KernelBackend",
    "NumpyPackedBackend",
    "ReferenceBackend",
    "NativeCpuBackend",
    "active_backend",
    "available_backends",
    "get_backend",
    "use_kernel_backend",
    "roofline_validation",
]

# Cache-sized row blocking for the CPU path: a query block is read from
# RAM once and re-XORed against every class while resident in L2.
_ROW_BLOCK = 256
# Cap on the (rows, classes, words) uint64 XOR scratch — 64 Ki words is
# 512 KB, the empirical sweet spot on this class of host: small enough
# that the scratch lives in L2 across the XOR/count/sum passes, large
# enough that ufunc dispatch overhead stays negligible.
_SCRATCH_WORDS = 1 << 16


def _check_operands(queries: np.ndarray, model: np.ndarray) -> None:
    if queries.dtype != np.uint64 or model.dtype != np.uint64:
        raise ValueError(
            f"expected uint64 words, got {queries.dtype} vs {model.dtype}"
        )
    if queries.ndim != 2 or model.ndim != 2:
        raise ValueError(
            f"expected 2-D word arrays, got {queries.ndim}-D vs {model.ndim}-D"
        )
    if queries.shape[1] != model.shape[1]:
        raise ValueError(
            f"word-count mismatch: queries have {queries.shape[1]} words, "
            f"model has {model.shape[1]}"
        )


class KernelBackend:
    """Contract every Hamming-kernel backend implements.

    A backend computes exact integer Hamming distances between packed
    uint64 word arrays.  Implementations must be bit-identical to
    :class:`ReferenceBackend` — the serving tier treats the table as
    ground truth (argmin ties included), and the equivalence oracle in
    ``tests/core/test_kernels.py`` holds every backend to it.
    """

    #: Registry key and the ``kernel_backend`` tag in BENCH artifacts.
    name: str = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current process."""
        return False

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        """Hamming distances ``(b, k)`` of query words vs model words.

        Both operands are ``uint64`` word matrices sharing the word
        count ``W``; the result is ``int64``.  Pad bits (beyond the
        logical dimensionality) must be zero in both operands, which
        makes the table exact for full vectors *and* for word-block
        shards of them.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyPackedBackend(KernelBackend):
    """Row-blocked XOR + ``np.bitwise_count`` on the CPU — the portable
    default wherever the native kernel did not compile."""

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        queries = np.ascontiguousarray(queries)
        model = np.ascontiguousarray(model)
        _check_operands(queries, model)
        b, k = queries.shape[0], model.shape[0]
        words = queries.shape[1]
        out = np.empty((b, k), dtype=np.int64)
        # One broadcast XOR per row block — 3 ufunc dispatches per
        # block rather than 3 per class row, which is what keeps small
        # serving batches cheap.  The block height caps the
        # (rows, k, words) scratch at ``_SCRATCH_WORDS`` uint64.
        rows = max(1, min(b, _ROW_BLOCK, _SCRATCH_WORDS // max(1, k * words)))
        xor_buf = np.empty((rows, k, words), dtype=np.uint64)
        count_buf = np.empty((rows, k, words), dtype=np.uint8)
        # Narrowest exact accumulator (row popcount sums reach 64·W):
        # summing uint8 counts into uint16 is measurably faster than
        # into int64, and the int64 output assignment upcasts losslessly.
        acc = np.uint16 if words * 64 <= np.iinfo(np.uint16).max else np.int64
        for lo in range(0, b, rows):
            block = queries[lo : lo + rows]
            n = block.shape[0]
            np.bitwise_xor(block[:, None, :], model[None, :, :],
                           out=xor_buf[:n])
            np.bitwise_count(xor_buf[:n], out=count_buf[:n])
            out[lo : lo + n] = count_buf[:n].sum(axis=-1, dtype=acc)
        return out


class ReferenceBackend(KernelBackend):
    """Unpacked uint8 oracle: broadcast XOR on raw bits.

    Exact by construction and independent of every popcount trick the
    fast paths use — the anchor all other backends are pinned against.
    """

    name = "reference"

    @classmethod
    def available(cls) -> bool:
        return True

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        queries = np.ascontiguousarray(queries)
        model = np.ascontiguousarray(model)
        _check_operands(queries, model)
        import sys

        xor = np.bitwise_xor(queries[:, None, :], model[None, :, :])
        if sys.byteorder == "big":  # pragma: no cover - BE hosts only
            xor = xor.byteswap()
        as_bytes = xor.view(np.uint8).reshape(*xor.shape[:2], -1)
        bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
        return bits.sum(axis=-1, dtype=np.int64)


# Fused XOR+popcount+accumulate C kernel.  One pass over the operands
# with no distance-table-sized intermediates; ``-march=native`` lets the
# compiler vectorise the popcount (AVX512-VPOPCNTDQ where the host has
# it).  ``restrict`` is what licenses that vectorisation.
_NATIVE_SOURCE = r"""
#include <stdint.h>

void repro_distance_table(const uint64_t *restrict queries,
                          const uint64_t *restrict model,
                          int64_t *restrict out,
                          int64_t b, int64_t k, int64_t w)
{
    for (int64_t i = 0; i < b; i++) {
        const uint64_t *q = queries + i * w;
        for (int64_t c = 0; c < k; c++) {
            const uint64_t *m = model + c * w;
            uint64_t acc = 0;
            for (int64_t j = 0; j < w; j++)
                acc += (uint64_t)__builtin_popcountll(q[j] ^ m[j]);
            out[i * k + c] = (int64_t)acc;
        }
    }
}
"""


def _build_native_kernel():
    """Compile (or reuse) the fused C kernel; returns the ctypes function.

    The shared object is cached under the user's temp directory keyed by
    a hash of the source, so the compile happens once per host, not once
    per process — forked serving workers inherit the parent's loaded
    library.  The cache directory must be a real directory owned by this
    user with no group/world write bit.  Raises on any failure;
    :class:`NativeCpuBackend` turns that into ``available() == False``.
    """
    import ctypes
    import hashlib
    import shutil
    import subprocess
    import tempfile
    from pathlib import Path

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    tag = hashlib.sha256(
        (_NATIVE_SOURCE + compiler).encode()
    ).hexdigest()[:16]
    cache = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
    cache.mkdir(mode=0o700, exist_ok=True)
    # The temp dir is shared: a cache directory another user planted (or
    # one anyone can write to) could hand us their library.  Refuse it.
    info = os.lstat(cache)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise RuntimeError(f"refusing kernel cache {cache}: not a private "
                           "directory owned by this user")
    so_path = cache / f"hamming-{tag}.so"
    if not so_path.exists():
        src = cache / f"hamming-{tag}.c"
        src.write_text(_NATIVE_SOURCE)
        tmp = cache / f"hamming-{tag}.{os.getpid()}.so"
        base = [compiler, "-O3", "-shared", "-fPIC",
                "-o", str(tmp), str(src)]
        try:
            subprocess.run(base[:2] + ["-march=native"] + base[2:],
                           check=True, capture_output=True, timeout=120)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
            subprocess.run(base, check=True, capture_output=True,
                           timeout=120)
        # Atomic publish so concurrently-starting processes never load a
        # half-written library.
        os.replace(tmp, so_path)
    lib = ctypes.CDLL(str(so_path))
    fn = lib.repro_distance_table
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
    fn.restype = None
    return fn


class NativeCpuBackend(KernelBackend):
    """Fused single-pass C kernel, compiled on first use.

    XOR, popcount, and the word-axis accumulation happen in one loop
    nest, so no ``(b, k, W)`` intermediate is ever materialised — on a
    popcount-capable CPU this is several times faster than the blocked
    NumPy path.  ``available()`` is simply "the kernel compiled here";
    hosts without a toolchain fall back to :class:`NumpyPackedBackend`
    through the default resolution.  ctypes releases the GIL for the
    duration of the call.
    """

    name = "native"
    _fn = None
    _build_failed = False

    @classmethod
    def _load(cls):
        if cls._fn is None and not cls._build_failed:
            try:
                cls._fn = _build_native_kernel()
            except Exception:
                cls._build_failed = True
        return cls._fn

    @classmethod
    def available(cls) -> bool:
        return cls._load() is not None

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        fn = self._load()
        if fn is None:
            raise RuntimeError("native kernel failed to build")
        queries = np.ascontiguousarray(queries)
        model = np.ascontiguousarray(model)
        _check_operands(queries, model)
        b, k = queries.shape[0], model.shape[0]
        out = np.empty((b, k), dtype=np.int64)
        if b and k:
            if queries.shape[1]:
                fn(queries.ctypes.data, model.ctypes.data,
                   out.ctypes.data, b, k, queries.shape[1])
            else:
                out[:] = 0
        return out


_BACKEND_CLASSES: dict[str, type[KernelBackend]] = {
    NumpyPackedBackend.name: NumpyPackedBackend,
    ReferenceBackend.name: ReferenceBackend,
    NativeCpuBackend.name: NativeCpuBackend,
}
_INSTANCES: dict[str, KernelBackend] = {}
_ACTIVE: KernelBackend | None = None


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend in this process."""
    return {
        name: cls.available() for name, cls in _BACKEND_CLASSES.items()
    }


def get_backend(name: str) -> KernelBackend:
    """The shared instance of a registered backend (availability-checked)."""
    cls = _BACKEND_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{sorted(_BACKEND_CLASSES)}"
        )
    if not cls.available():
        raise RuntimeError(
            f"kernel backend {name!r} is not available in this process"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def active_backend() -> KernelBackend:
    """The backend every packed distance call dispatches through.

    The one scoped by :func:`use_kernel_backend` if any, else
    ``"native"`` when the fused kernel compiled on this host, else
    ``"numpy"``.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    return get_backend("native" if NativeCpuBackend.available() else "numpy")


@contextmanager
def use_kernel_backend(backend: KernelBackend | str) -> Iterator[KernelBackend]:
    """Activate a backend (a registered name or an instance) for a scope.

    The previous selection is restored on exit.  This is the hook tests
    use to pin a backend or swap in a fake.
    """
    global _ACTIVE
    if isinstance(backend, str):
        backend = get_backend(backend)
    elif not isinstance(backend, KernelBackend):
        raise TypeError(
            f"expected a backend name or instance, got {type(backend)}"
        )
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous


def roofline_validation(
    backend: KernelBackend,
    *,
    dim: int = 10_000,
    num_classes: int = 26,
    batch: int = 2_048,
    repeats: int = 3,
    gpu_model=None,
    seed: int = 0,
) -> dict:
    """Measured backend throughput vs the analytic GPU roofline.

    Runs ``backend.distance_table`` on a synthetic packed workload and
    divides the measured queries/s by the prediction of
    :meth:`repro.pim.gpu.GPUModel.packed_classify_qps` — the cross-link
    between the analytic Figure 2 cost model and a real kernel backend.
    Returns a dict (recorded verbatim in ``BENCH_serve.json``) with the
    measured and predicted rates and their ratio; a ratio near 1 means
    the roofline calibration describes the real substrate.
    """
    if gpu_model is None:
        from repro.pim.gpu import GPUModel

        gpu_model = GPUModel()
    rng = np.random.default_rng(seed)
    words = -(-dim // 64)
    model = rng.integers(0, 1 << 63, (num_classes, words), dtype=np.uint64)
    queries = rng.integers(0, 1 << 63, (batch, words), dtype=np.uint64)
    backend.distance_table(queries[:8], model)  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        backend.distance_table(queries, model)
        best = min(best, time.perf_counter() - start)
    measured_qps = batch / best
    predicted_qps = gpu_model.packed_classify_qps(dim, num_classes)
    return {
        "backend": backend.name,
        "dim": dim,
        "num_classes": num_classes,
        "batch": batch,
        "measured_queries_per_s": measured_qps,
        "roofline_queries_per_s": predicted_qps,
        "measured_over_roofline": measured_qps / predicted_qps,
    }
