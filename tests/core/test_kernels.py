"""Kernel-backend contract tests.

Every registered backend must produce a distance table bit-identical to
:class:`ReferenceBackend` — the unpacked uint8 oracle — over random
shapes, including operands with zeroed pad bits (the word-shard case).
Accelerator backends (CuPy / torch) skip cleanly when their runtime is
absent and are held to the same oracle when present.
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

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_accelerators_skip_or_match(self, name):
        backend = get_or_skip(name)
        oracle = kernels.get_backend("reference")
        queries, model = random_words(300, 157), random_words(26, 157)
        assert (
            backend.distance_table(queries, model)
            == oracle.distance_table(queries, model)
        ).all()


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
        assert set(avail) == {"numpy", "reference", "native", "cupy",
                              "torch"}
        assert avail["numpy"] and avail["reference"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("tpu")

    def test_unavailable_backend_rejected(self):
        if kernels.CupyBackend.available():  # pragma: no cover - GPU hosts
            pytest.skip("cupy present here")
        with pytest.raises(RuntimeError, match="not available"):
            kernels.get_backend("cupy")

    def test_instances_are_shared(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_set_kernel_backend_by_name_and_instance(self):
        try:
            kernels.set_kernel_backend("reference")
            assert kernels.active_backend().name == "reference"
            instance = kernels.NumpyPackedBackend()
            kernels.set_kernel_backend(instance)
            assert kernels.active_backend() is instance
        finally:
            kernels.set_kernel_backend(None)

    def test_set_kernel_backend_rejects_garbage(self):
        with pytest.raises(TypeError):
            kernels.set_kernel_backend(42)

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ACTIVE", None)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert kernels.active_backend().name == "reference"

    def test_default_prefers_native_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        expected = (
            "native" if kernels.NativeCpuBackend.available() else "numpy"
        )
        assert kernels._default_backend_name() == expected

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

    def test_best_accelerator_excludes_cpu_backends(self):
        best = kernels.best_accelerator_backend()
        if best is not None:  # pragma: no cover - GPU hosts
            assert best.name in ("cupy", "torch")


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

