"""Pluggable packed-kernel backends for the 1-bit hot paths.

Every 1-bit hot path in this repo bottoms out in one of two word-wide
primitives, both behind the :class:`KernelBackend` contract so the
computation can move between substrates without the callers changing:

* :meth:`~KernelBackend.distance_table` — Hamming distances ``(b, k)``
  between packed query words ``(b, W)`` and packed model words
  ``(k, W)``: XOR then popcount, summed over the word axis.  Serving,
  search and noisy-chunk detection all reduce to it.
* :meth:`~KernelBackend.bundle_majority` — the encoder's bundle step:
  gather one bound codebook row ``codebook[k, idx[i, k]]`` per feature
  and take the bitwise majority of the ``n`` rows (count ``>= n//2 + 1``,
  so ties go to 0).  Every packed encode — training, ``encode_packed``
  and the serving worker's feature payloads — reduces to it.

Three backends implement both:

* :class:`NumpyPackedBackend` — the portable CPU path: row-blocked XOR +
  ``np.bitwise_count`` for distances, and a carry-save adder tree over
  bit planes (:func:`bit_plane_sum` / :func:`bit_plane_ge`) for bundling.
* :class:`ReferenceBackend` — unpacked uint8 oracles: broadcast XOR on
  raw bits, and a plain per-dimension count of the gathered rows' bits.
  Slow, obviously correct, and the equivalence anchor the property tests
  pin every other backend against.
* :class:`NativeCpuBackend` — two C kernels in one shared object,
  compiled on first use (cached per user in a private temp directory)
  and the default wherever a C compiler is present: a fused
  XOR+popcount+accumulate distance loop, and a majority bundler that
  ripple-adds each gathered row into per-bit counter planes held for one
  8-word block at a time.  Neither materialises an intermediate larger
  than its output, and ctypes releases the GIL for each call.

Every backend runs on the CPU.

Backends are *stateless* over immutable inputs, so one instance is
shared process-wide.  The active backend is the one scoped by
:func:`use_kernel_backend` if any, else ``"native"`` when the C kernels
compiled on this host, else ``"numpy"``.  Every distance computed
through :meth:`PackedModel.distances
<repro.core.packed.PackedModel.distances>` and
:meth:`PackedHypervectors.hamming_to
<repro.core.packed.PackedHypervectors.hamming_to>`, and every bundle
computed through :func:`repro.core.encoder.encode_words_from_codebook`,
dispatches through the active backend.

Sharding note: the contract is defined on *word arrays*, not models, so
a shard of a model — a class-row slice or a 64-bit word-block slice —
is served by the same calls on the sliced operands.  Word-block distance
partials are exact partial popcounts (pad words are zero in both
operands and contribute nothing), which is what lets the serving tier's
reduce tree sum them back into full distances bit-identically (see
:mod:`repro.serve.shard`); bundling is per bit position, so a word-block
slice of the codebook bundles to the same word-block slice of the full
result.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterator

import numpy as np

__all__ = [
    "KernelBackend",
    "NumpyPackedBackend",
    "ReferenceBackend",
    "NativeCpuBackend",
    "active_backend",
    "available_backends",
    "bit_plane_ge",
    "bit_plane_sum",
    "get_backend",
    "use_kernel_backend",
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


def _check_bundle_operands(
    codebook_words: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a bundle call; returns ``(codebook_words, idx)``.

    ``idx`` comes back as C-contiguous ``int64``.  Every index must lie in
    ``[0, L)``: NumPy fancy indexing would wrap a negative index to a
    real level, and the native kernel would read outside the codebook.
    """
    codebook_words = np.asarray(codebook_words)
    if codebook_words.dtype != np.uint64 or codebook_words.ndim != 3:
        raise ValueError(
            "expected an (n, L, W) uint64 codebook, got "
            f"{codebook_words.ndim}-D {codebook_words.dtype}"
        )
    n, levels = codebook_words.shape[:2]
    if n < 1:
        raise ValueError("bundling needs at least one feature")
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError(f"expected (b, {n}) level indices, got {idx.shape}")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"level indices must be integers, got {idx.dtype}")
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    # One unsigned pass catches both ends: negatives view as >= 2**63.
    if idx.size and idx.view(np.uint64).max() >= levels:
        raise ValueError(
            f"level indices must lie in [0, {levels}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    return codebook_words, idx


def _add_bit_planes(x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
    """Bitwise ripple-carry addition of two bit-plane numbers.

    ``x`` and ``y`` are little-endian lists of word arrays: bit ``i`` of
    the per-position counter lives in ``x[i]``.  Each addition step is a
    half or full adder expressed as word-wide XOR/AND/OR, so a whole
    batch of counters advances per numpy call.
    """
    out: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for i in range(max(len(x), len(y))):
        bits = [
            p
            for p in (
                x[i] if i < len(x) else None,
                y[i] if i < len(y) else None,
                carry,
            )
            if p is not None
        ]
        if len(bits) == 1:
            plane, carry = bits[0], None
        elif len(bits) == 2:
            a, b = bits
            plane, carry = a ^ b, a & b
        else:
            a, b, c = bits
            t = a ^ b
            plane = t ^ c
            carry = (a & b) | (t & c)
        out.append(plane)
    if carry is not None:
        out.append(carry)
    return out


def bit_plane_sum(operands: list[np.ndarray]) -> list[np.ndarray]:
    """Sum binary word arrays *per bit position* into bit planes.

    ``operands`` is a list of equal-shape uint64 word arrays, each
    encoding one binary value per bit position.  The result is a
    little-endian list of planes: bit ``j`` of word position ``p`` across
    the planes spells the count of operands whose bit ``(p, j)`` is set —
    a carry-save adder tree evaluated with word-wide XOR/AND/OR, i.e. 64
    independent counters advance per machine word.
    """
    if not operands:
        raise ValueError("bit_plane_sum needs at least one operand")
    if len(operands) == 1:
        return [operands[0]]
    mid = len(operands) // 2
    return _add_bit_planes(
        bit_plane_sum(operands[:mid]), bit_plane_sum(operands[mid:])
    )


def bit_plane_ge(planes: list[np.ndarray], threshold: int) -> np.ndarray:
    """Per-bit-position comparison ``count >= threshold`` of bit planes.

    ``planes`` is the little-endian counter representation produced by
    :func:`bit_plane_sum`; the result is a single word array whose bit is
    1 exactly where the counter meets the threshold — the majority rule
    of bundling, computed without ever leaving the packed domain.
    """
    if not planes:
        raise ValueError("bit_plane_ge needs at least one plane")
    ones = np.full_like(planes[0], np.uint64(0xFFFFFFFFFFFFFFFF))
    if threshold <= 0:
        return ones
    nbits = max(len(planes), int(threshold).bit_length())
    gt = np.zeros_like(planes[0])
    eq = ones
    for i in range(nbits - 1, -1, -1):
        want = (threshold >> i) & 1
        plane = planes[i] if i < len(planes) else None
        if plane is None:
            # Counter bit i is implicitly 0; if the threshold wants a 1
            # here, equality is impossible from this prefix on.
            if want:
                eq = np.zeros_like(eq)
            continue
        if want:
            eq = eq & plane
        else:
            gt = gt | (eq & plane)
            eq = eq & ~plane
    return gt | eq


class KernelBackend:
    """Contract every packed-kernel backend implements.

    A backend computes exact integer Hamming distances between packed
    uint64 word arrays, and exact majority bundles of gathered codebook
    rows.  Implementations must be bit-identical to
    :class:`ReferenceBackend` — the serving tier treats the table as
    ground truth (argmin ties included), training and serving must encode
    a sample to the same bits, and the equivalence oracles in
    ``tests/core/test_kernels.py`` hold every backend to both.
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

    def bundle_majority(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Majority bundle ``(b, W)`` of gathered codebook rows.

        ``codebook_words`` is an ``(n, L, W)`` uint64 table (any strides,
        so a word-block slice of a shared codebook needs no copy) and
        ``idx`` the ``(b, n)`` integer row selectors, each in ``[0, L)``.
        Result bit ``(i, j)`` is set where at least ``n//2 + 1`` of the
        rows ``codebook_words[k, idx[i, k]]`` have bit ``j`` set — a
        strict majority, so ties go to 0.  Pad bits that are zero in
        every row stay zero.  Out-of-range or non-integer indices raise
        ``ValueError`` before any work.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyPackedBackend(KernelBackend):
    """Row-blocked XOR + ``np.bitwise_count`` for distances and a
    carry-save bit-plane tree for bundling — the portable default
    wherever the native kernels did not compile."""

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

    def bundle_majority(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        codebook_words, idx = _check_bundle_operands(codebook_words, idx)
        n = codebook_words.shape[0]
        # Gather each feature's bound row, add the n rows per bit position
        # with a carry-save tree into count planes, and compare the planes
        # against the strict-majority threshold.
        operands = [codebook_words[k, idx[:, k]] for k in range(n)]
        return bit_plane_ge(bit_plane_sum(operands), n // 2 + 1)


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

    def bundle_majority(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        from repro.core.packed import PackedHypervectors, pack, unpack

        codebook_words, idx = _check_bundle_operands(codebook_words, idx)
        n, _, words = codebook_words.shape
        out = np.empty((idx.shape[0], words), dtype=np.uint64)
        if not words:
            return out
        # Unpack every gathered row to raw bits and count them; blocked
        # so the (rows, n, 64 W) uint8 tensor stays near 16 MB.
        rows = max(1, (1 << 24) // (n * words * 64))
        for lo in range(0, idx.shape[0], rows):
            block = idx[lo : lo + rows]
            gathered = codebook_words[np.arange(n), block]  # (rows, n, W)
            bits = unpack(PackedHypervectors(
                words=gathered.reshape(-1, words), dim=words * 64
            )).reshape(block.shape[0], n, -1)
            counts = bits.sum(axis=1, dtype=np.int64)
            out[lo : lo + block.shape[0]] = pack(
                (2 * counts > n).astype(np.uint8)
            ).words
        return out


# The two C kernels, compiled into one shared object.
#
# ``repro_distance_table`` is the fused XOR+popcount+accumulate loop: one
# pass over the operands with no table-sized intermediates;
# ``-march=native`` lets the compiler vectorise the popcount
# (AVX512-VPOPCNTDQ where the host has it), and ``restrict`` is what
# licenses that vectorisation.
#
# ``repro_bundle_majority`` bundles one query at a time in blocks of
# BUNDLE_BLOCK words.  Counter plane p of a block holds bit p of the
# per-position count of set bits seen so far; gathered rows are added two
# at a time (a half adder of the pair feeds plane 0, its carry and plane
# 0's carry are mutually exclusive and ripple on as one carry), then a
# most-significant-first gt/eq scan compares the planes with the strict
# majority threshold n/2 + 1.  Codebook row (k, l) starts at word
# k * feature_stride + l * level_stride, so a word-block slice of a
# larger codebook is read in place.  The caller supplies the planes,
# nplanes * BUNDLE_BLOCK words with nplanes = bit_length(n), and has
# checked every index against the level count.  ``_BUNDLE_BLOCK`` must
# equal the C ``BUNDLE_BLOCK``.
_BUNDLE_BLOCK = 8
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

#define BUNDLE_BLOCK 8
typedef uint64_t block_t
    __attribute__((vector_size(8 * BUNDLE_BLOCK), aligned(8), may_alias));

static inline block_t load_block(const uint64_t *row, int64_t m)
{
    if (m == BUNDLE_BLOCK)
        return *(const block_t *)row;
    block_t v = {0};
    for (int64_t j = 0; j < m; j++)
        v[j] = row[j];
    return v;
}

void repro_bundle_majority(const uint64_t *restrict codebook,
                           const int64_t *restrict idx,
                           uint64_t *restrict out,
                           block_t *restrict planes,
                           int64_t b, int64_t n, int64_t w,
                           int64_t feature_stride, int64_t level_stride,
                           int64_t nplanes)
{
    const int64_t threshold = n / 2 + 1;
    for (int64_t i = 0; i < b; i++) {
        const int64_t *sel = idx + i * n;
        uint64_t *dst = out + i * w;
        for (int64_t j0 = 0; j0 < w; j0 += BUNDLE_BLOCK) {
            const int64_t m = w - j0 < BUNDLE_BLOCK ? w - j0 : BUNDLE_BLOCK;
            const uint64_t *base = codebook + j0;
            for (int64_t p = 0; p < nplanes; p++)
                planes[p] = (block_t){0};
            int64_t k = 0;
            for (; k + 1 < n; k += 2) {
                block_t x = load_block(
                    base + k * feature_stride + sel[k] * level_stride, m);
                block_t y = load_block(
                    base + (k + 1) * feature_stride
                    + sel[k + 1] * level_stride, m);
                block_t s = x ^ y, t = planes[0];
                planes[0] = t ^ s;
                block_t carry = (x & y) | (t & s);
                for (int64_t p = 1; p < nplanes; p++) {
                    t = planes[p];
                    planes[p] = t ^ carry;
                    carry &= t;
                }
            }
            if (k < n) {
                block_t carry = load_block(
                    base + k * feature_stride + sel[k] * level_stride, m);
                for (int64_t p = 0; p < nplanes; p++) {
                    block_t t = planes[p];
                    planes[p] = t ^ carry;
                    carry &= t;
                }
            }
            block_t gt = {0}, eq = ~(block_t){0};
            for (int64_t p = nplanes - 1; p >= 0; p--) {
                if ((threshold >> p) & 1) {
                    eq &= planes[p];
                } else {
                    gt |= eq & planes[p];
                    eq &= ~planes[p];
                }
            }
            block_t r = gt | eq;
            if (m == BUNDLE_BLOCK) {
                *(block_t *)(dst + j0) = r;
            } else {
                for (int64_t j = 0; j < m; j++)
                    dst[j0 + j] = r[j];
            }
        }
    }
}
"""


def _build_native_kernels():
    """Compile (or reuse) the C kernels; returns their ctypes functions.

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
    distance = lib.repro_distance_table
    distance.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3
    distance.restype = None
    bundle = lib.repro_bundle_majority
    bundle.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 6
    bundle.restype = None
    return SimpleNamespace(distance_table=distance, bundle_majority=bundle)


class NativeCpuBackend(KernelBackend):
    """The C kernels, compiled on first use.

    Distances: XOR, popcount, and the word-axis accumulation happen in
    one loop nest, so no ``(b, k, W)`` intermediate is ever materialised
    — on a popcount-capable CPU this is several times faster than the
    blocked NumPy path.  Bundling: each query's rows are added into
    counter planes one 8-word block at a time, with none of the NumPy
    path's per-plane ufunc dispatch.  ``available()`` is simply "the
    kernels compiled here"; hosts without a toolchain fall back to
    :class:`NumpyPackedBackend` through the default resolution.  ctypes
    releases the GIL for the duration of each call.
    """

    name = "native"
    _kernels = None
    _build_failed = False

    @classmethod
    def _load(cls):
        if cls._kernels is None and not cls._build_failed:
            try:
                cls._kernels = _build_native_kernels()
            except Exception:
                cls._build_failed = True
        return cls._kernels

    @classmethod
    def available(cls) -> bool:
        return cls._load() is not None

    def distance_table(
        self, queries: np.ndarray, model: np.ndarray
    ) -> np.ndarray:
        lib = self._load()
        if lib is None:
            raise RuntimeError("native kernels failed to build")
        queries = np.ascontiguousarray(queries)
        model = np.ascontiguousarray(model)
        _check_operands(queries, model)
        b, k = queries.shape[0], model.shape[0]
        out = np.empty((b, k), dtype=np.int64)
        if b and k:
            if queries.shape[1]:
                lib.distance_table(queries.ctypes.data, model.ctypes.data,
                                   out.ctypes.data, b, k, queries.shape[1])
            else:
                out[:] = 0
        return out

    def bundle_majority(
        self, codebook_words: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        lib = self._load()
        if lib is None:
            raise RuntimeError("native kernels failed to build")
        codebook_words, idx = _check_bundle_operands(codebook_words, idx)
        n, _, words = codebook_words.shape
        b = idx.shape[0]
        out = np.empty((b, words), dtype=np.uint64)
        if not (b and words):
            return out
        # The kernel walks rows by word strides and reads each row's
        # words contiguously; anything else is copied once.
        strides = codebook_words.strides
        if strides[2] != 8 or strides[0] % 8 or strides[1] % 8:
            codebook_words = np.ascontiguousarray(codebook_words)
            strides = codebook_words.strides
        nplanes = n.bit_length()
        planes = np.empty(nplanes * _BUNDLE_BLOCK, dtype=np.uint64)
        lib.bundle_majority(
            codebook_words.ctypes.data, idx.ctypes.data, out.ctypes.data,
            planes.ctypes.data, b, n, words,
            strides[0] // 8, strides[1] // 8, nplanes,
        )
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
    """The backend every packed distance and bundle call dispatches through.

    The one scoped by :func:`use_kernel_backend` if any, else
    ``"native"`` when the C kernels compiled on this host, else
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

