"""GF(2^8) arithmetic for RAID-6 Q parity (Reed-Solomon style).

Standard field with the AES-adjacent polynomial 0x11d and generator 2,
vectorized over numpy byte arrays so Q-parity over 64 KiB chunks is cheap.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x11D

_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _POLY
    for power in range(255, 512):
        _EXP[power] = _EXP[power - 255]


_build_tables()

#: the scalar functions index Python lists, not numpy arrays
_EXP_INT = _EXP.tolist()
_LOG_INT = _LOG.tolist()

#: ``_MUL[a, b]`` is the product ``a * b``; row and column 0 stay zero
_MUL = np.zeros((256, 256), dtype=np.uint8)
_MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


def gf_mul_bytes(data: np.ndarray, coefficient: int) -> np.ndarray:
    """Multiply every byte of ``data`` by ``coefficient`` in GF(256)."""
    return _MUL[coefficient].take(data)


def gf_mul(a: int, b: int) -> int:
    """Scalar GF(256) multiply."""
    if a == 0 or b == 0:
        return 0
    return _EXP_INT[_LOG_INT[a] + _LOG_INT[b]]


def gf_div(a: int, b: int) -> int:
    """Scalar GF(256) divide (b != 0)."""
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return _EXP_INT[(_LOG_INT[a] - _LOG_INT[b]) % 255]


def gf_pow(base: int, exponent: int) -> int:
    """Scalar GF(256) power."""
    if base == 0:
        return 0 if exponent else 1
    return _EXP_INT[(_LOG_INT[base] * exponent) % 255]


def generator_coefficient(index: int) -> int:
    """RAID-6 coefficient for data position ``index``: g^index with g=2."""
    return gf_pow(2, index)
