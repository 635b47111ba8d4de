"""Unified fault-injection API: one protocol, one ground-truth artefact.

The seed repo grew three divergent ways of corrupting a stored HDC
model — ``attack_hdc_model(model, rate, mode, rng)`` returning a copy,
``attack_hdc_informed(model, rate, reference_queries, rng)`` with the
reference queries wedged between rate and rng, and
``TransientFlipProcess.expose(model)`` mutating in place.  None of them
told you *which bits* were flipped, which made ground-truth evaluation
of the recovery loop (did the detector flag the chunks that were
actually hit?) impossible without re-deriving the damage by diffing
models.

This module converges them:

* :class:`FaultInjector` — the protocol every injector implements:
  ``inject(model, rate, rng) -> FaultMask``.  Injection is *pure*: it
  samples addresses and returns a mask; it never touches the model.
* :class:`FaultMask` — the ground-truth record of one injection: the
  flat bit addresses hit, plus views of the damage at element, class
  and chunk granularity.  ``apply`` / ``applied_to`` turn the mask into
  actual damage (in place / on a copy).
* :func:`attack` / :func:`inject` — convenience entry points keyed by
  mode name, mirroring the old call shapes but returning the mask.
  Seeded results match the old entry points (since removed) because the
  injectors draw from the RNG in exactly the old order.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.model import HDCModel
from repro.faults.bitflip import (
    DEFAULT_CLUSTER_BITS,
    flip_hdc_bits,
    hdc_msb_first_bit_order,
    num_bits_to_flip,
    sample_clustered_bits,
    sample_random_bits,
    sample_targeted_bits,
)
from repro.obs.metrics import current as _metrics

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

__all__ = [
    "FaultMask",
    "FaultInjector",
    "RandomBitflipInjector",
    "TargetedBitflipInjector",
    "ClusteredBitflipInjector",
    "InformedBitflipInjector",
    "make_injector",
    "inject",
    "attack",
]


@dataclass(frozen=True, eq=False)
class FaultMask:
    """Ground truth of one fault injection over a stored HDC model.

    Attributes
    ----------
    bit_indices:
        Sorted, distinct flat bit addresses that were (or will be)
        flipped.  Element ``e``'s bit ``p`` (0 = LSB) has flat address
        ``e * bits + p`` — the layout of
        :func:`repro.faults.bitflip.flip_hdc_bits`.
    shape:
        ``(num_classes, dim)`` of the target model.
    bits:
        Element precision of the target model.
    mode / rate:
        Provenance metadata (which injector, at what nominal rate).
    """

    bit_indices: np.ndarray
    shape: tuple[int, int]
    bits: int = 1
    mode: str = "random"
    rate: float = 0.0

    def __post_init__(self) -> None:
        idx = np.asarray(self.bit_indices, dtype=np.int64)
        idx = np.sort(idx)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.total_bits:
                raise IndexError(
                    f"bit index out of range [0, {self.total_bits})"
                )
            if np.any(idx[1:] == idx[:-1]):
                raise ValueError("bit_indices contains duplicates")
        object.__setattr__(self, "bit_indices", idx)

    # -- geometry ------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    @property
    def total_bits(self) -> int:
        return self.shape[0] * self.shape[1] * self.bits

    @property
    def num_faults(self) -> int:
        return int(self.bit_indices.shape[0])

    def _check_model(self, model: HDCModel) -> None:
        if model.class_hv.shape != self.shape or model.bits != self.bits:
            raise ValueError(
                f"mask built for shape {self.shape} x {self.bits}-bit, "
                f"model is {model.class_hv.shape} x {model.bits}-bit"
            )

    # -- damage views --------------------------------------------------

    def element_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(classes, dims)`` arrays addressing every hit element.

        Multi-bit elements hit in several planes appear once per hit
        bit; for 1-bit models elements and bits coincide.
        """
        elements = self.bit_indices // self.bits
        return elements // self.dim, elements % self.dim

    def per_class_counts(self) -> np.ndarray:
        """``(k,)`` — injected flips landing in each class hypervector."""
        classes, _ = self.element_indices()
        return np.bincount(classes, minlength=self.num_classes)

    def chunk_fault_counts(self, num_chunks: int) -> np.ndarray:
        """``(k, m)`` — injected flips per (class, chunk) cell."""
        if num_chunks < 1 or self.dim % num_chunks != 0:
            raise ValueError(
                f"dim {self.dim} is not divisible by num_chunks {num_chunks}"
            )
        chunk_size = self.dim // num_chunks
        classes, dims = self.element_indices()
        cells = classes * num_chunks + dims // chunk_size
        counts = np.bincount(cells, minlength=self.num_classes * num_chunks)
        return counts.reshape(self.num_classes, num_chunks)

    def faulty_chunks(self, num_chunks: int) -> np.ndarray:
        """``(k, m)`` bool — chunks containing at least one injected flip."""
        return self.chunk_fault_counts(num_chunks) > 0

    # -- realisation ---------------------------------------------------

    def apply(self, model: HDCModel) -> HDCModel:
        """Flip the masked bits of ``model`` in place; returns ``model``.

        Goes through the :meth:`~repro.core.model.HDCModel.writable`
        contract (via :func:`~repro.faults.bitflip.flip_hdc_bits`) so the
        packed serving cache is invalidated.
        """
        self._check_model(model)
        flip_hdc_bits(model, self.bit_indices)
        return model

    def applied_to(self, model: HDCModel) -> HDCModel:
        """A corrupted copy of ``model``; the victim is never modified."""
        return self.apply(model.copy())

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "bit_indices": self.bit_indices.tolist(),
            "shape": list(self.shape),
            "bits": self.bits,
            "mode": self.mode,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultMask":
        return cls(
            bit_indices=np.asarray(data["bit_indices"], dtype=np.int64),
            shape=tuple(data["shape"]),
            bits=int(data["bits"]),
            mode=str(data["mode"]),
            rate=float(data["rate"]),
        )


@runtime_checkable
class FaultInjector(Protocol):
    """The one fault-injection call signature.

    ``inject`` samples which bits a rate-``rate`` fault event hits and
    returns the :class:`FaultMask`; it must not modify ``model`` and
    must draw from ``rng`` deterministically (same rng state, same
    mask).
    """

    def inject(
        self, model: HDCModel, rate: float, rng: np.random.Generator
    ) -> FaultMask:  # pragma: no cover - protocol signature
        ...


def _mask(model: HDCModel, bits: np.ndarray, mode: str, rate: float) -> FaultMask:
    mask = FaultMask(
        bit_indices=bits,
        shape=model.class_hv.shape,
        bits=model.bits,
        mode=mode,
        rate=rate,
    )
    m = _metrics()
    m.inc("faults.injections")
    m.inc("faults.bits_injected", mask.num_faults)
    return mask


@dataclass(frozen=True)
class RandomBitflipInjector:
    """Uniform random flips over the whole stored footprint."""

    def inject(
        self, model: HDCModel, rate: float, rng: np.random.Generator
    ) -> FaultMask:
        bits = sample_random_bits(model.total_bits, rate, rng)
        return _mask(model, bits, "random", rate)


@dataclass(frozen=True)
class TargetedBitflipInjector:
    """MSB-first flips (worst case for multi-bit; = random for 1-bit)."""

    def inject(
        self, model: HDCModel, rate: float, rng: np.random.Generator
    ) -> FaultMask:
        bits = sample_targeted_bits(hdc_msb_first_bit_order(model), rate, rng)
        return _mask(model, bits, "targeted", rate)


@dataclass(frozen=True)
class ClusteredBitflipInjector:
    """Row-Hammer-style physically local flips in aligned spans."""

    cluster_bits: int = DEFAULT_CLUSTER_BITS

    def inject(
        self, model: HDCModel, rate: float, rng: np.random.Generator
    ) -> FaultMask:
        bits = sample_clustered_bits(
            model.total_bits, rate, rng, self.cluster_bits
        )
        return _mask(model, bits, "clustered", rate)


@dataclass(frozen=True, eq=False)
class InformedBitflipInjector:
    """Margin-aware white-box flips of the most load-bearing dimensions.

    ``reference_queries`` are unlabeled encoded queries the attacker has
    observed (see :mod:`repro.faults.informed`); 1-bit models only.
    """

    reference_queries: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.uint8)
    )

    def inject(
        self, model: HDCModel, rate: float, rng: np.random.Generator
    ) -> FaultMask:
        from repro.faults.informed import dimension_importance

        if model.bits != 1:
            raise ValueError("informed attack is defined for 1-bit models")
        budget = num_bits_to_flip(model.total_bits, rate)
        if budget == 0:
            return _mask(
                model, np.empty(0, dtype=np.int64), "informed", rate
            )
        importance = dimension_importance(model, self.reference_queries)
        k, dim = model.num_classes, model.dim
        per_class = np.full(k, budget // k, dtype=np.int64)
        per_class[: budget % k] += 1
        picks = []
        for c in range(k):
            take = int(min(per_class[c], dim))
            # Random tiebreak so equal-importance dims don't bias low
            # indices; same draw order as the pre-protocol attack.
            keys = importance[c] + rng.random(dim) * 1e-9
            victims = np.argpartition(-keys, take - 1)[:take]
            picks.append(c * dim + victims)
        return _mask(
            model, np.concatenate(picks).astype(np.int64), "informed", rate
        )


_FACTORIES = {
    "random": RandomBitflipInjector,
    "targeted": TargetedBitflipInjector,
    "clustered": ClusteredBitflipInjector,
    "informed": InformedBitflipInjector,
}


def make_injector(mode: str, **kwargs) -> FaultInjector:
    """Build the named injector (``random`` / ``targeted`` / ``clustered``
    / ``informed``); ``kwargs`` go to its constructor."""
    try:
        factory = _FACTORIES[mode]
    except KeyError:
        raise ValueError(
            f"mode must be one of {tuple(_FACTORIES)}, got {mode!r}"
        ) from None
    return factory(**kwargs)


def _resolve(mode: str | FaultInjector, kwargs: dict) -> FaultInjector:
    if isinstance(mode, str):
        return make_injector(mode, **kwargs)
    if kwargs:
        raise TypeError(
            "injector kwargs are only valid with a mode name, "
            f"not an injector instance: {sorted(kwargs)}"
        )
    return mode


# Per-process counter salting the un-seeded fallback stream.  Campaigns
# that call ``inject``/``attack`` repeatedly without passing an rng used
# to replay ``default_rng(0)`` on every call and silently produce
# identical masks; salting each call with its ordinal keeps the default
# deterministic per process (call i always draws stream ``(0, i)``)
# while making back-to-back masks distinct.  Passing an explicit rng or
# seed bypasses this entirely, so the documented legacy streams stay
# bit-identical.
_UNSEEDED_CALLS = itertools.count()


def inject(
    model: HDCModel,
    rate: float,
    mode: str | FaultInjector = "random",
    rng: np.random.Generator | None = None,
    **kwargs,
) -> FaultMask:
    """Sample a fault mask for ``model`` without touching it.

    When ``rng`` is omitted, each call draws from a distinct
    counter-salted stream (``default_rng((0, call_index))``) — still
    deterministic run-to-run, but never the same mask twice in a row.
    """
    if rng is None:
        rng = np.random.default_rng((0, next(_UNSEEDED_CALLS)))
    return _resolve(mode, kwargs).inject(model, rate, rng)


def attack(
    model: HDCModel,
    rate: float,
    mode: str | FaultInjector = "random",
    rng: np.random.Generator | None = None,
    **kwargs,
) -> tuple[HDCModel, FaultMask]:
    """Corrupted copy of ``model`` plus the ground-truth mask.

    The (model, rate, mode, rng) call shape with the sampling
    primitives' seeded flips, plus *which* bits were hit, which
    downstream observability (:func:`repro.obs.scorecard.fault_scorecard`)
    joins against.
    """
    mask = inject(model, rate, mode, rng, **kwargs)
    return mask.applied_to(model), mask
