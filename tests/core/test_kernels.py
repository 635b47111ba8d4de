"""Kernel-backend contract tests.

Every registered backend must produce a distance table bit-identical to
:class:`ReferenceBackend` — the unpacked uint8 oracle — over random
shapes, including operands with zeroed pad bits (the word-shard case),
and majority bundles bit-identical to it and to the encoder's unpacked
reference encoding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.encoder import (
    Encoder,
    encode_words_from_codebook,
    quantize_features,
)
from repro.core.packed import pack

RNG = np.random.default_rng(71)


def random_words(rows: int, words: int) -> np.ndarray:
    if words == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    raw = RNG.integers(0, 2, (rows, words * 64), dtype=np.uint8)
    return pack(raw).words


def padded_words(rows: int, dim: int) -> np.ndarray:
    """Packed words of a dim that is NOT word-aligned: pad bits zero."""
    raw = RNG.integers(0, 2, (rows, dim), dtype=np.uint8)
    return pack(raw).words


CPU_BACKENDS = ["numpy", "native"]
SHAPES = [(1, 1, 1), (4, 26, 157), (33, 7, 3), (256, 2, 16), (3, 64, 32)]


def get_or_skip(name: str) -> kernels.KernelBackend:
    if not kernels._BACKEND_CLASSES[name].available():
        pytest.skip(f"backend {name!r} unavailable in this environment")
    return kernels.get_backend(name)


class TestEquivalence:
    @pytest.mark.parametrize("name", CPU_BACKENDS)
    @pytest.mark.parametrize("b,k,w", SHAPES)
    def test_matches_reference_oracle(self, name, b, k, w):
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        queries, model = random_words(b, w), random_words(k, w)
        got = backend.distance_table(queries, model)
        assert got.dtype == np.int64
        assert got.shape == (b, k)
        assert (got == oracle.distance_table(queries, model)).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    def test_padded_dims_are_exact(self, name):
        """Non-word-aligned dims: pad bits are zero in both operands and
        never perturb the table."""
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        for dim in (1, 63, 65, 1000):
            queries, model = padded_words(9, dim), padded_words(5, dim)
            assert (
                backend.distance_table(queries, model)
                == oracle.distance_table(queries, model)
            ).all()

    @pytest.mark.parametrize("name", CPU_BACKENDS)
    def test_empty_operands(self, name):
        backend = get_or_skip(name)
        assert backend.distance_table(
            random_words(0, 5), random_words(3, 5)
        ).shape == (0, 3)
        zero_w = backend.distance_table(
            np.zeros((2, 0), np.uint64), np.zeros((3, 0), np.uint64)
        )
        assert zero_w.shape == (2, 3) and not zero_w.any()


ALL_BACKENDS = ["reference", "numpy", "native"]


def encoded_case(n: int, dim: int, levels: int, batch: int, seed: int = 0):
    """A bound codebook, level indices, and the reference encoding."""
    enc = Encoder(num_features=n, dim=dim, levels=levels, seed=seed)
    features = np.random.default_rng(seed).random((batch, n))
    idx = quantize_features(features, levels, enc.low, enc.high)
    words = -(-dim // 64)
    if batch:
        expected = pack(enc.encode_batch_reference(features)).words
    else:
        expected = np.empty((0, words), dtype=np.uint64)
    return enc.packed_codebook().words, idx, expected


# (n, dim, levels, batch): one feature; even and odd n; n >= 256, which
# needs 9 counter planes; dims off the word boundary; an empty batch.
BUNDLE_CASES = [
    (1, 100, 2, 3),
    (2, 64, 3, 4),
    (7, 640, 5, 5),
    (32, 10_000, 32, 4),
    (33, 1000, 16, 6),
    (300, 130, 4, 3),
    (256, 65, 8, 2),
    (5, 200, 8, 0),
]


class TestBundleMajority:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("n,dim,levels,batch", BUNDLE_CASES)
    def test_matches_reference_encoding(self, name, n, dim, levels, batch):
        backend = get_or_skip(name)
        codebook, idx, expected = encoded_case(n, dim, levels, batch)
        got = backend.bundle_majority(codebook, idx)
        assert got.dtype == np.uint64
        assert got.shape == expected.shape
        assert (got == expected).all()
        if dim % 64 and batch:
            pad = ~np.uint64(0) << np.uint64(dim % 64)
            assert not (got[:, -1] & pad).any()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_word_shard_slice_read_in_place(self, name):
        """A strided word-block view of the codebook bundles to the same
        word block of the full encoding."""
        backend = get_or_skip(name)
        codebook, idx, expected = encoded_case(9, 1000, 8, 5)
        view = codebook[:, :, 3:11]
        assert not view.flags.c_contiguous
        assert (backend.bundle_majority(view, idx) == expected[:, 3:11]).all()

    @given(
        n=st.sampled_from([1, 2, 3, 8, 31, 64, 257]),
        dim=st.sampled_from([2, 63, 64, 65, 130, 600]),
        levels=st.sampled_from([2, 3, 32]),
        batch=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=40)
    def test_backends_agree(self, n, dim, levels, batch, seed):
        levels = min(levels, dim)
        codebook, idx, expected = encoded_case(n, dim, levels, batch, seed)
        lo = seed % codebook.shape[2]
        for name in ALL_BACKENDS:
            if not kernels._BACKEND_CLASSES[name].available():
                continue
            backend = kernels.get_backend(name)
            assert (backend.bundle_majority(codebook, idx) == expected).all()
            assert (
                backend.bundle_majority(codebook[:, :, lo:], idx)
                == expected[:, lo:]
            ).all()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_encode_words_dispatches_through_active_backend(self, name):
        get_or_skip(name)
        codebook, idx, expected = encoded_case(6, 130, 8, 7)
        with kernels.use_kernel_backend(name):
            assert (encode_words_from_codebook(codebook, idx) == expected).all()
            blocked = encode_words_from_codebook(
                codebook, idx, rows_per_block=2
            )
        assert (blocked == expected).all()


class TestBundleValidation:
    """Bad level indices raise before any backend gathers a row."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "bad",
        [[[-1, 0, 0, 0]], [[0, 0, 4, 0]], [[0.0, 1.0, 2.0, 3.0]],
         [[0, 1, 2]], [0, 1, 2, 3]],
        ids=["negative", "too-large", "float", "short-row", "1-d"],
    )
    def test_bad_indices_rejected(self, name, bad):
        backend = get_or_skip(name)
        codebook, _, _ = encoded_case(4, 100, 4, 1)
        with pytest.raises(ValueError):
            backend.bundle_majority(codebook, np.asarray(bad))
        with kernels.use_kernel_backend(name):
            with pytest.raises(ValueError):
                encode_words_from_codebook(codebook, bad)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_bad_codebook_rejected(self, name):
        backend = get_or_skip(name)
        idx = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="uint64 codebook"):
            backend.bundle_majority(np.zeros((2, 2, 3), np.int64), idx)
        with pytest.raises(ValueError, match="uint64 codebook"):
            backend.bundle_majority(np.zeros((2, 3), np.uint64), idx)


class TestValidation:
    def test_dtype_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="uint64"):
            backend.distance_table(
                np.zeros((2, 3), np.int64), np.zeros((2, 3), np.uint64)
            )

    def test_shape_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="2-D"):
            backend.distance_table(
                np.zeros(3, np.uint64), np.zeros((2, 3), np.uint64)
            )

    def test_word_mismatch_rejected(self):
        backend = kernels.get_backend("numpy")
        with pytest.raises(ValueError, match="word-count"):
            backend.distance_table(
                np.zeros((2, 3), np.uint64), np.zeros((2, 4), np.uint64)
            )


class TestRegistry:
    def test_available_backends_covers_registry(self):
        avail = kernels.available_backends()
        assert set(avail) == {"numpy", "reference", "native"}
        assert avail["numpy"] and avail["reference"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("tpu")

    def test_unavailable_backend_rejected(self, monkeypatch):
        monkeypatch.setattr(kernels.NativeCpuBackend, "_kernels", None)
        monkeypatch.setattr(kernels.NativeCpuBackend, "_build_failed", True)
        with pytest.raises(RuntimeError, match="not available"):
            kernels.get_backend("native")
        assert kernels.active_backend().name == "numpy"

    def test_instances_are_shared(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_use_kernel_backend_by_name_and_instance(self):
        with kernels.use_kernel_backend("reference") as backend:
            assert kernels.active_backend() is backend
            assert backend.name == "reference"
        instance = kernels.NumpyPackedBackend()
        with kernels.use_kernel_backend(instance) as backend:
            assert backend is instance
            assert kernels.active_backend() is instance

    def test_use_kernel_backend_rejects_garbage(self):
        with pytest.raises(TypeError):
            with kernels.use_kernel_backend(42):
                pass

    def test_default_prefers_native_when_available(self):
        expected = (
            "native" if kernels.NativeCpuBackend.available() else "numpy"
        )
        assert kernels.active_backend().name == expected

    def test_use_kernel_backend_restores(self):
        before = kernels.active_backend().name
        with kernels.use_kernel_backend("reference") as backend:
            assert backend.name == "reference"
            assert kernels.active_backend() is backend
        assert kernels.active_backend().name == before

    def test_distances_dispatch_through_active_backend(self):
        """PackedModel.distances honours the backend selection."""
        from repro.core.packed import PackedModel

        words = random_words(4, 6)
        model = PackedModel(words=words, dim=6 * 64, version=1)
        queries = random_words(3, 6)
        with kernels.use_kernel_backend("reference"):
            via_ref = model.distances(queries)
        assert (via_ref == model.distances(queries)).all()


class TestNativeBackend:
    def test_native_skips_cleanly_when_toolchain_missing(self):
        # available() never raises; it reports the compile outcome.
        assert kernels.NativeCpuBackend.available() in (True, False)

    @pytest.mark.parametrize("planted", ["world_writable", "symlink"])
    def test_refuses_planted_cache_dir(self, planted, tmp_path, monkeypatch):
        """A cache directory that is not private to this user is refused,
        even when it already holds a library under the expected name."""
        import hashlib
        import os
        import shutil
        import subprocess
        import tempfile

        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            pytest.skip("no C compiler on PATH")
        cache = tmp_path / f"repro-kernels-{os.getuid()}"
        if planted == "symlink":
            target = tmp_path / "elsewhere"
            target.mkdir(mode=0o700)
            cache.symlink_to(target)
        else:
            cache.mkdir()
            cache.chmod(0o777)
        # A library that answers every distance with 0.
        bogus = tmp_path / "bogus.c"
        bogus.write_text(
            "#include <stdint.h>\n"
            "void repro_distance_table(const uint64_t *q, const uint64_t *m,"
            " int64_t *out, int64_t b, int64_t k, int64_t w)"
            " { for (int64_t i = 0; i < b * k; i++) out[i] = 0; }\n"
        )
        tag = hashlib.sha256(
            (kernels._NATIVE_SOURCE + compiler).encode()
        ).hexdigest()[:16]
        subprocess.run(
            [compiler, "-shared", "-fPIC", "-o",
             str(cache / f"hamming-{tag}.so"), str(bogus)],
            check=True, capture_output=True, timeout=120,
        )
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        monkeypatch.setattr(kernels.NativeCpuBackend, "_kernels", None)
        monkeypatch.setattr(kernels.NativeCpuBackend, "_build_failed", False)
        assert not kernels.NativeCpuBackend.available()
        assert kernels.active_backend().name == "numpy"

