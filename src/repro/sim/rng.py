"""Deterministic random-number helpers.

Every stochastic element of the simulation (fail-safe speed dips, sector
error injection, workload file sizes) draws from a :class:`DeterministicRNG`
seeded explicitly, so whole-system runs are bit-reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


class DeterministicRNG:
    """Thin wrapper around :class:`numpy.random.Generator` with sub-streams.

    ``child(label)`` derives an independent, reproducible stream for a
    subsystem so that adding draws in one component never perturbs another.
    """

    def __init__(self, seed: int = 0x5EED):
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)

    def child(self, label: str) -> "DeterministicRNG":
        material = f"{self.seed}:{label}".encode()
        digest = hashlib.sha256(material).digest()
        return DeterministicRNG(int.from_bytes(digest[:8], "little"))

    # Convenience passthroughs -----------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._generator.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._generator.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        return int(self._generator.integers(low, high))

    def choice(self, sequence):
        index = int(self._generator.integers(0, len(sequence)))
        return sequence[index]

    def bytes(self, length: int) -> bytes:
        return self._generator.bytes(length)

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._generator.lognormal(mean, sigma))

    # Batch draws ------------------------------------------------------
    # numpy Generators produce the *same underlying stream* for one
    # size-n array draw as for n sequential scalar draws of the same
    # distribution, so a consumer may switch between scalar and batch
    # (or split one batch into several) without changing the values it
    # sees.  The vectorized load generator leans on this; the
    # scalar↔batch equivalence is pinned by a hypothesis property test.
    def uniform_array(self, n: int) -> np.ndarray:
        return self._generator.uniform(0.0, 1.0, int(n))

    def exponential_array(self, mean: float, n: int) -> np.ndarray:
        return self._generator.exponential(mean, int(n))
