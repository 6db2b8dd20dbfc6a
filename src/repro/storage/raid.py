"""RAID arrays over block devices with real parity math.

Implements the levels ROS uses (§3.3, §4.7): RAID-0 (striping, used only as
a baseline), RAID-1 (SSD metadata mirror), RAID-5 (the HDD buffer volumes,
and the 11+1 disc-array schema), RAID-6 (the 10+2 schema for rigid
environments).  Parity is computed over actual chunk bytes — XOR for P,
GF(256) Reed-Solomon for Q — so degraded reads and rebuilds genuinely
reconstruct data.

Chunk addressing: the array exposes a linear space of fixed-size data
chunks (:data:`~repro.storage.block.CHUNK_SIZE`); stripe ``s`` lives at
device-chunk index ``s`` on each member, with parity rotated across members
(left-symmetric).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.errors import RaidDegradedError, StorageError
from repro.sim.engine import AllOf, Engine
from repro.storage.block import BlockDevice, CHUNK_SIZE
from repro.storage.gf256 import gf_div, gf_mul_bytes, generator_coefficient


def _as_array(data: bytes) -> np.ndarray:
    if len(data) != CHUNK_SIZE:
        raise StorageError(
            f"RAID chunks must be exactly {CHUNK_SIZE} bytes, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).copy()


def _xor_many(chunks: list[np.ndarray]) -> np.ndarray:
    result = np.zeros(len(chunks[0]), dtype=np.uint8)
    for chunk in chunks:
        result ^= chunk
    return result


# ----------------------------------------------------------------------
# Erasure coding over equal-length shards
#
# The one P/Q codec of the system: RAID stripes, disc-array parity images
# and fleet object shards are all encoded and decoded here.  Shard
# positions: ``0..k-1`` are data, ``k`` is P (XOR), ``k+1`` is Q (GF(256)
# Reed-Solomon).
# ----------------------------------------------------------------------
def _q_shard(data: list[np.ndarray]) -> np.ndarray:
    q = np.zeros(len(data[0]), dtype=np.uint8)
    for position, chunk in enumerate(data):
        q ^= gf_mul_bytes(chunk, generator_coefficient(position))
    return q


def erasure_parity(
    data: list[np.ndarray], parity_count: int = 2
) -> list[np.ndarray]:
    """Parity shards for ``data``: ``[P]`` or ``[P, Q]``.

    All data shards must be equal-length uint8 arrays (any length, not
    just :data:`CHUNK_SIZE`).
    """
    if parity_count not in (1, 2):
        raise StorageError(f"parity_count must be 1 or 2, got {parity_count}")
    if not data:
        raise StorageError("erasure_parity needs at least one data shard")
    length = len(data[0])
    if any(len(chunk) != length for chunk in data):
        raise StorageError("erasure shards must be equal length")
    parity = [_xor_many(data)]
    if parity_count == 2:
        parity.append(_q_shard(data))
    return parity


def _solve_one_with_q(
    k: int, known: dict[int, np.ndarray], q: np.ndarray
) -> np.ndarray:
    """Recover the single missing data shard of ``k`` from Q parity."""
    missing = (set(range(k)) - set(known)).pop()
    partial = q.copy()
    for position, chunk in known.items():
        partial ^= gf_mul_bytes(chunk, generator_coefficient(position))
    return gf_mul_bytes(partial, gf_div(1, generator_coefficient(missing)))


def _solve_two_missing(
    known: dict[int, np.ndarray],
    p: np.ndarray,
    q: np.ndarray,
    a: int,
    b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover two missing data shards from P and Q (standard RAID-6).

    With g_a, g_b the generator coefficients:
        D_a ^ D_b                    = P'   (P minus known data)
        g_a*D_a ^ g_b*D_b            = Q'   (Q minus known data)
    =>  D_a = (Q' ^ g_b*P') / (g_a ^ g_b),  D_b = P' ^ D_a
    """
    p_prime = p.copy()
    q_prime = q.copy()
    for position, chunk in known.items():
        p_prime ^= chunk
        q_prime ^= gf_mul_bytes(chunk, generator_coefficient(position))
    g_a = generator_coefficient(a)
    g_b = generator_coefficient(b)
    numerator = q_prime ^ gf_mul_bytes(p_prime, g_b)
    d_a = gf_mul_bytes(numerator, gf_div(1, g_a ^ g_b))
    d_b = p_prime ^ d_a
    return d_a, d_b


def erasure_decode(
    k: int, shards: dict[int, np.ndarray]
) -> list[np.ndarray]:
    """Recover all ``k`` data shards from any sufficient shard subset.

    ``shards`` maps position -> array, positions ``0..k-1`` data, ``k``
    P, ``k+1`` Q.  Decodes with up to two missing data shards (one needs
    P or Q; two need both).  Raises :class:`RaidDegradedError` when the
    survivors cannot express the data.
    """
    known = {i: shards[i] for i in shards if 0 <= i < k}
    missing = sorted(set(range(k)) - set(known))
    have_p = k in shards
    have_q = k + 1 in shards
    if not missing:
        pass
    elif len(missing) == 1 and have_p:
        known[missing[0]] = _xor_many(list(known.values()) + [shards[k]])
    elif len(missing) == 1 and have_q:
        known[missing[0]] = _solve_one_with_q(k, known, shards[k + 1])
    elif len(missing) == 2 and have_p and have_q:
        a, b = missing
        known[a], known[b] = _solve_two_missing(
            known, shards[k], shards[k + 1], a, b
        )
    else:
        raise RaidDegradedError(
            f"erasure_decode: {len(missing)} data shards missing with "
            f"P={'yes' if have_p else 'no'} Q={'yes' if have_q else 'no'}"
        )
    return [known[i] for i in range(k)]


class RAIDArray:
    """Base class: geometry, health, and stripe I/O through the codec.

    A stripe's members are shards by position: its data devices in
    :meth:`stripe_device_order`, then :meth:`parity_devices` (P, then Q),
    so a level only says how many parity members it has and where they
    rotate.
    """

    parity_count = 0
    level = "raid?"

    def __init__(self, engine: Engine, devices: list[BlockDevice]):
        minimum = max(2, self.parity_count + 1)
        if len(devices) < minimum:
            raise StorageError(
                f"{self.level} needs at least {minimum} devices"
            )
        self.engine = engine
        self.devices = devices
        self.name = self.level

    # -- geometry ------------------------------------------------------
    @property
    def member_count(self) -> int:
        return len(self.devices)

    @property
    def data_per_stripe(self) -> int:
        return self.member_count - self.parity_count

    @property
    def data_capacity(self) -> int:
        per_device = min(device.capacity for device in self.devices)
        return per_device * self.data_per_stripe

    def failed_members(self) -> list[int]:
        return [
            index
            for index, device in enumerate(self.devices)
            if device.failed
        ]

    def check_health(self) -> None:
        failures = len(self.failed_members())
        if failures > self.parity_count:
            raise RaidDegradedError(
                f"{self.name}: {failures} failed members exceed "
                f"{self.parity_count}-failure tolerance"
            )

    # -- throughput estimates (volume layer) ----------------------------
    def aggregate_read_throughput(self) -> float:
        return sum(d.throughput for d in self.devices if not d.failed)

    def aggregate_write_throughput(self) -> float:
        healthy = [d for d in self.devices if not d.failed]
        per_device = min(d.throughput for d in healthy)
        return per_device * self.data_per_stripe

    # -- layout --------------------------------------------------------
    def locate(self, data_chunk_index: int) -> tuple[int, int, int]:
        """data chunk index -> (stripe, device index, position in stripe)."""
        stripe, position = divmod(data_chunk_index, self.data_per_stripe)
        order = self.stripe_device_order(stripe)
        return stripe, order[position], position

    def stripe_device_order(self, stripe: int) -> list[int]:
        """Data device indices of a stripe, in data-position order."""
        parity = self.parity_devices(stripe)
        return [i for i in range(self.member_count) if i not in parity]

    def parity_devices(self, stripe: int) -> list[int]:
        """Devices holding parity for ``stripe``, P first (empty for RAID-0)."""
        return []

    # -- I/O -----------------------------------------------------------
    def write_stripe(self, stripe: int, chunks: list[bytes]) -> Generator:
        """Write one full stripe of data chunks plus computed parity."""
        if len(chunks) != self.data_per_stripe:
            raise StorageError(
                f"stripe needs {self.data_per_stripe} chunks, got {len(chunks)}"
            )
        arrays = [_as_array(chunk) for chunk in chunks]
        processes = []
        for device_index, payload in self._stripe_writes(stripe, arrays):
            device = self.devices[device_index]
            if device.failed:
                continue  # write-around; rebuild will restore it
            processes.append(self.engine.spawn(
                device.write_chunk(stripe, payload.tobytes()),
                name=f"{self.name}-w{device_index}",
            ))
        yield AllOf(processes)
        self.check_health()

    def _stripe_writes(
        self, stripe: int, arrays: list[np.ndarray]
    ) -> list[tuple[int, np.ndarray]]:
        """(device index, chunk) pairs for a full-stripe write."""
        writes = list(zip(self.stripe_device_order(stripe), arrays))
        if self.parity_count:
            writes.extend(zip(
                self.parity_devices(stripe),
                erasure_parity(arrays, self.parity_count),
            ))
        return writes

    def read(self, data_chunk_index: int) -> Generator:
        """Read one data chunk, reconstructing if its device failed."""
        self.check_health()
        stripe, device_index, position = self.locate(data_chunk_index)
        device = self.devices[device_index]
        if not device.failed:
            data = yield from device.read_chunk(stripe)
            return data
        data = yield from self._decode_stripe(stripe)
        return data[position].tobytes()

    def _decode_stripe(self, stripe: int, skip: int = -1) -> Generator:
        """Every data chunk of ``stripe``, decoded from its healthy
        members other than ``skip``."""
        members = self.stripe_device_order(stripe) + self.parity_devices(stripe)
        shards = {}
        for position, index in enumerate(members):
            if index != skip and not self.devices[index].failed:
                data = yield from self.devices[index].read_chunk(stripe)
                shards[position] = _as_array(data)
        return erasure_decode(self.data_per_stripe, shards)

    def rebuild(self, device_index: int) -> Generator:
        """After ``devices[device_index].replace()``, restore its chunks."""
        device = self.devices[device_index]
        if device.failed:
            raise StorageError("replace() the device before rebuilding")
        stripes = set()
        for member in self.devices:
            if member is not device and not member.failed:
                stripes.update(member._chunks.keys())
        for stripe in sorted(stripes):
            payload = yield from self._rebuild_member_chunk(
                stripe, device_index
            )
            yield from device.write_chunk(stripe, payload.tobytes())

    def _rebuild_member_chunk(
        self, stripe: int, device_index: int
    ) -> Generator:
        """Decode the stripe without the member, then re-derive its chunk;
        other failed members count as further erasures."""
        data = yield from self._decode_stripe(stripe, skip=device_index)
        order = self.stripe_device_order(stripe)
        if device_index in order:
            return data[order.index(device_index)]
        parity = erasure_parity(data, self.parity_count)
        return parity[self.parity_devices(stripe).index(device_index)]


class RAID0(RAIDArray):
    """Pure striping; any member failure loses data."""

    parity_count = 0
    level = "raid0"


class RAID1(RAIDArray):
    """Mirroring across all members (the SSD metadata volume)."""

    parity_count = 0  # special-cased: tolerates n-1 failures
    level = "raid1"

    @property
    def data_per_stripe(self) -> int:
        return 1

    def check_health(self) -> None:
        if len(self.failed_members()) >= self.member_count:
            raise RaidDegradedError(f"{self.name}: all mirrors failed")

    def aggregate_write_throughput(self) -> float:
        healthy = [d for d in self.devices if not d.failed]
        return min(d.throughput for d in healthy)

    def _stripe_writes(self, stripe, arrays):
        return [(index, arrays[0]) for index in range(self.member_count)]

    def read(self, data_chunk_index: int) -> Generator:
        self.check_health()
        for device in self.devices:
            if not device.failed:
                data = yield from device.read_chunk(data_chunk_index)
                return data
        raise RaidDegradedError(f"{self.name}: no healthy mirror")

    def _rebuild_member_chunk(self, stripe, device_index) -> Generator:
        for index, member in enumerate(self.devices):
            if index != device_index and not member.failed:
                data = yield from member.read_chunk(stripe)
                return _as_array(data)
        raise RaidDegradedError(f"{self.name}: no healthy mirror")


class RAID5(RAIDArray):
    """Single rotating XOR parity; tolerates one member failure."""

    parity_count = 1
    level = "raid5"

    def parity_devices(self, stripe: int) -> list[int]:
        return [(self.member_count - 1 - stripe) % self.member_count]


class RAID6(RAIDArray):
    """P (XOR) + Q (GF(256) Reed-Solomon); tolerates two failures."""

    parity_count = 2
    level = "raid6"

    def parity_devices(self, stripe: int) -> list[int]:
        return [
            (self.member_count - 1 - stripe) % self.member_count,
            (self.member_count - 2 - stripe) % self.member_count,
        ]
