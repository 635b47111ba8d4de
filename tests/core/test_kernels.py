"""Kernel-backend contract tests.

Every registered backend must produce a distance table bit-identical to
:class:`ReferenceBackend` — the unpacked uint8 oracle — over random
shapes, including operands with zeroed pad bits (the word-shard case).
"""

import numpy as np
import pytest

from repro.core import kernels
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
        monkeypatch.setattr(kernels.NativeCpuBackend, "_fn", None)
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
        monkeypatch.setattr(kernels.NativeCpuBackend, "_fn", None)
        monkeypatch.setattr(kernels.NativeCpuBackend, "_build_failed", False)
        assert not kernels.NativeCpuBackend.available()
        assert kernels.active_backend().name == "numpy"


class TestRoofline:
    def test_roofline_validation_record(self):
        record = kernels.roofline_validation(
            kernels.get_backend("numpy"), dim=512, num_classes=6,
            batch=64, repeats=1,
        )
        assert record["backend"] == "numpy"
        assert record["measured_queries_per_s"] > 0
        assert record["roofline_queries_per_s"] > 0
        assert record["measured_over_roofline"] == pytest.approx(
            record["measured_queries_per_s"]
            / record["roofline_queries_per_s"]
        )

