"""Per-quantum bandwidth accounting for memory channels.

The simulator advances in variable-duration quanta (see
:mod:`repro.sim.engine`).  Within a quantum, every unit that touches a
memory channel charges bytes to a :class:`BandwidthChannel`; the channel
converts the charges into the *service time* the channel would need, and
the quantum's duration is the maximum service time over all shared
resources.  Channels also accumulate lifetime statistics in the categories
the paper reports (Fig 10): useful reads, wasteful reads (inactive blocks
read while searching for active blocks), and writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.memory.spec import MemorySpec


@dataclass
class TrafficTotals:
    """Lifetime byte totals for one channel, by category."""

    useful_read_bytes: int = 0
    wasteful_read_bytes: int = 0
    write_bytes: int = 0

    @property
    def read_bytes(self) -> int:
        return self.useful_read_bytes + self.wasteful_read_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


@dataclass
class _QuantumCharges:
    """Byte charges accumulated during the current quantum."""

    random_read: float = 0.0
    sequential_read: float = 0.0
    random_write: float = 0.0
    sequential_write: float = 0.0

    def reset(self) -> None:
        self.random_read = 0.0
        self.sequential_read = 0.0
        self.random_write = 0.0
        self.sequential_write = 0.0


class BandwidthChannel:
    """Accounting wrapper around one :class:`MemorySpec`.

    The channel distinguishes *random* from *sequential* traffic because
    the two sustain different fractions of peak bandwidth (HBM2 is nearly
    pattern-insensitive; DDR4 collapses under random access).  The caller
    declares the pattern per charge; the paper's design maps vertex traffic
    to random HBM2 accesses and edge traffic to sequential DDR4 streams.
    """

    def __init__(self, spec: MemorySpec) -> None:
        self.spec = spec
        self.totals = TrafficTotals()
        self._quantum = _QuantumCharges()
        self.busy_seconds = 0.0

    def charge_read(
        self, nbytes: int, *, sequential: bool = False, useful: bool = True
    ) -> None:
        """Charge a read of ``nbytes`` (rounded up to whole atoms)."""
        if nbytes < 0:
            raise SimulationError("cannot charge a negative read")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        if useful:
            self.totals.useful_read_bytes += nbytes
        else:
            self.totals.wasteful_read_bytes += nbytes
        if sequential:
            self._quantum.sequential_read += nbytes
        else:
            self._quantum.random_read += nbytes

    def charge_write(self, nbytes: int, *, sequential: bool = False) -> None:
        """Charge a write of ``nbytes`` (rounded up to whole atoms)."""
        if nbytes < 0:
            raise SimulationError("cannot charge a negative write")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        self.totals.write_bytes += nbytes
        if sequential:
            self._quantum.sequential_write += nbytes
        else:
            self._quantum.random_write += nbytes

    def quantum_service_time(self) -> float:
        """Seconds this channel needs to serve the current quantum's bytes.

        Duplex channels (HBM2 vertex memory) overlap the read and write
        streams, so the service time is the slower stream; simplex
        channels serialize them.
        """
        read_time = (
            self._quantum.random_read / self.spec.random_bandwidth
            + self._quantum.sequential_read / self.spec.sequential_bandwidth
        )
        write_time = (
            self._quantum.random_write / self.spec.random_bandwidth
            + self._quantum.sequential_write / self.spec.sequential_bandwidth
        )
        if self.spec.duplex:
            return max(read_time, write_time)
        return read_time + write_time

    def quantum_utilization(self, quantum_seconds: float) -> float:
        """Busy fraction of the *current* quantum (observability hook).

        Must be read before :meth:`end_quantum` resets the charges.
        """
        if quantum_seconds <= 0:
            return 0.0
        return self.quantum_service_time() / quantum_seconds

    def end_quantum(self, quantum_seconds: float) -> None:
        """Close the quantum: record busy time and reset per-quantum state."""
        service = self.quantum_service_time()
        if service > quantum_seconds + 1e-15:
            raise SimulationError(
                f"{self.spec.name}: service time {service:.3e}s exceeds "
                f"quantum {quantum_seconds:.3e}s; the engine must size the "
                "quantum to the slowest resource"
            )
        self.busy_seconds += service
        self._quantum.reset()

    def utilization(self, elapsed_seconds: float) -> float:
        """Fraction of elapsed time this channel was busy."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed_seconds)


class BandwidthChannelArray:
    """A bank of identical channels with flat-array charge accounting.

    Functionally equivalent to ``count`` independent
    :class:`BandwidthChannel` instances of the same spec (one per PE or
    per GPN), but charges arrive as ``(index, nbytes)`` arrays so the
    engine's per-quantum hot path needs no Python-level loop over
    channels.  Atom rounding is applied elementwise -- each array entry
    corresponds to what was one scalar ``charge_*`` call, so totals and
    service times match the scalar channels bit for bit.
    """

    _RR, _SR, _RW, _SW = range(4)

    def __init__(self, spec: MemorySpec, count: int) -> None:
        if count <= 0:
            raise ConfigError(f"{spec.name}: channel count must be positive")
        self.spec = spec
        self.count = count
        self.useful_read_bytes = np.zeros(count, dtype=np.int64)
        self.wasteful_read_bytes = np.zeros(count, dtype=np.int64)
        self.write_bytes = np.zeros(count, dtype=np.int64)
        #: Per-quantum charges: rows are random-read, sequential-read,
        #: random-write, sequential-write.
        self._quantum = np.zeros((4, count), dtype=np.float64)
        self.busy_seconds = np.zeros(count, dtype=np.float64)

    # ------------------------------------------------------------------
    # Bulk charge paths
    # ------------------------------------------------------------------

    def charge_read_many(
        self,
        idx: np.ndarray,
        nbytes: np.ndarray,
        *,
        sequential: bool = False,
        useful: bool = True,
    ) -> None:
        """Charge one read per ``(idx[i], nbytes[i])`` pair.

        Each pair is rounded up to whole atoms independently, exactly as
        ``count`` separate :meth:`BandwidthChannel.charge_read` calls
        would be; zero-byte entries are skipped.
        """
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if (nbytes < 0).any():
            raise SimulationError("cannot charge a negative read")
        mask = nbytes > 0
        if not mask.any():
            return
        idx = np.asarray(idx, dtype=np.int64)[mask]
        nbytes = self.spec.round_up(nbytes[mask])
        totals = self.useful_read_bytes if useful else self.wasteful_read_bytes
        np.add.at(totals, idx, nbytes)
        row = self._SR if sequential else self._RR
        np.add.at(self._quantum[row], idx, nbytes.astype(np.float64))

    def charge_write_many(
        self, idx: np.ndarray, nbytes: np.ndarray, *, sequential: bool = False
    ) -> None:
        """Charge one write per ``(idx[i], nbytes[i])`` pair."""
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if (nbytes < 0).any():
            raise SimulationError("cannot charge a negative write")
        mask = nbytes > 0
        if not mask.any():
            return
        idx = np.asarray(idx, dtype=np.int64)[mask]
        nbytes = self.spec.round_up(nbytes[mask])
        np.add.at(self.write_bytes, idx, nbytes)
        row = self._SW if sequential else self._RW
        np.add.at(self._quantum[row], idx, nbytes.astype(np.float64))

    # ------------------------------------------------------------------
    # Scalar charge paths (cold paths, e.g. the FIFO spilling ablation)
    # ------------------------------------------------------------------

    def charge_read_at(
        self, i: int, nbytes: int, *, sequential: bool = False, useful: bool = True
    ) -> None:
        if nbytes < 0:
            raise SimulationError("cannot charge a negative read")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        if useful:
            self.useful_read_bytes[i] += nbytes
        else:
            self.wasteful_read_bytes[i] += nbytes
        self._quantum[self._SR if sequential else self._RR, i] += nbytes

    def charge_write_at(
        self, i: int, nbytes: int, *, sequential: bool = False
    ) -> None:
        if nbytes < 0:
            raise SimulationError("cannot charge a negative write")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        self.write_bytes[i] += nbytes
        self._quantum[self._SW if sequential else self._RW, i] += nbytes

    # ------------------------------------------------------------------
    # Quantum accounting
    # ------------------------------------------------------------------

    def service_times(self) -> np.ndarray:
        """Per-channel service time for the current quantum's charges."""
        read = (
            self._quantum[self._RR] / self.spec.random_bandwidth
            + self._quantum[self._SR] / self.spec.sequential_bandwidth
        )
        write = (
            self._quantum[self._RW] / self.spec.random_bandwidth
            + self._quantum[self._SW] / self.spec.sequential_bandwidth
        )
        if self.spec.duplex:
            return np.maximum(read, write)
        return read + write

    def max_service_time(self) -> float:
        return float(self.service_times().max())

    def quantum_utilizations(self, quantum_seconds: float) -> np.ndarray:
        """Per-channel busy fraction of the *current* quantum.

        Observability hook; read before :meth:`end_quantum` resets the
        charges.
        """
        if quantum_seconds <= 0:
            return np.zeros(self.count)
        return self.service_times() / quantum_seconds

    def end_quantum(self, quantum_seconds: float) -> None:
        service = self.service_times()
        worst = float(service.max())
        if worst > quantum_seconds + 1e-15:
            raise SimulationError(
                f"{self.spec.name}: service time {worst:.3e}s exceeds "
                f"quantum {quantum_seconds:.3e}s; the engine must size the "
                "quantum to the slowest resource"
            )
        self.busy_seconds += service
        self._quantum[:] = 0.0

    def utilizations(self, elapsed_seconds: float) -> np.ndarray:
        if elapsed_seconds <= 0:
            return np.zeros(self.count)
        return np.minimum(1.0, self.busy_seconds / elapsed_seconds)

    # ------------------------------------------------------------------
    # Lifetime totals
    # ------------------------------------------------------------------

    @property
    def total_useful_read_bytes(self) -> int:
        return int(self.useful_read_bytes.sum())

    @property
    def total_wasteful_read_bytes(self) -> int:
        return int(self.wasteful_read_bytes.sum())

    @property
    def total_write_bytes(self) -> int:
        return int(self.write_bytes.sum())

    @property
    def total_bytes(self) -> int:
        return (
            self.total_useful_read_bytes
            + self.total_wasteful_read_bytes
            + self.total_write_bytes
        )


class BandwidthChannelList(list):
    """``count`` independent :class:`BandwidthChannel` objects in a list.

    The per-channel counterpart of :class:`BandwidthChannelArray`: each
    entry is charged through its own object (``bank[i].charge_read``),
    while the quantum and lifetime read-outs share the array's method
    names, so one engine driver reads either bank.
    """

    def __init__(self, spec: MemorySpec, count: int) -> None:
        super().__init__(BandwidthChannel(spec) for _ in range(count))

    def charge_write_at(
        self, i: int, nbytes: int, *, sequential: bool = False
    ) -> None:
        self[i].charge_write(nbytes, sequential=sequential)

    def max_service_time(self) -> float:
        return max(c.quantum_service_time() for c in self)

    def quantum_utilizations(self, quantum_seconds: float) -> np.ndarray:
        return np.array([c.quantum_utilization(quantum_seconds) for c in self])

    def end_quantum(self, quantum_seconds: float) -> None:
        for channel in self:
            channel.end_quantum(quantum_seconds)

    def utilizations(self, elapsed_seconds: float) -> np.ndarray:
        return np.array([c.utilization(elapsed_seconds) for c in self])

    @property
    def total_useful_read_bytes(self) -> int:
        return sum(c.totals.useful_read_bytes for c in self)

    @property
    def total_wasteful_read_bytes(self) -> int:
        return sum(c.totals.wasteful_read_bytes for c in self)

    @property
    def total_write_bytes(self) -> int:
        return sum(c.totals.write_bytes for c in self)

    @property
    def total_bytes(self) -> int:
        return sum(c.totals.total_bytes for c in self)


class ChannelGroup:
    """A named collection of channels sharing a quantum boundary."""

    def __init__(self, channels: Dict[str, BandwidthChannel] | None = None) -> None:
        self._channels: Dict[str, BandwidthChannel] = dict(channels or {})

    def add(self, name: str, channel: BandwidthChannel) -> BandwidthChannel:
        if name in self._channels:
            raise ConfigError(f"duplicate channel name: {name}")
        self._channels[name] = channel
        return channel

    def __getitem__(self, name: str) -> BandwidthChannel:
        return self._channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def names(self) -> Iterable[str]:
        return self._channels.keys()

    def quantum_service_time(self) -> float:
        """The slowest channel's service time for the current quantum."""
        if not self._channels:
            return 0.0
        return max(c.quantum_service_time() for c in self._channels.values())

    def end_quantum(self, quantum_seconds: float) -> None:
        for channel in self._channels.values():
            channel.end_quantum(quantum_seconds)

    def totals(self) -> Dict[str, TrafficTotals]:
        return {name: c.totals for name, c in self._channels.items()}
