"""A compact DRAM timing model standing in for Ramulator.

The paper injects the simulator's memory accesses into Ramulator to model
memory latency and bandwidth.  This module provides a bank / row-buffer
model with the three classic timing parameters (tRCD, tCAS/CL, tRP) plus a
burst time, and enforces a peak-bandwidth limit, which together capture the
two DRAM effects that matter for this study: row-hit versus row-miss latency
and bandwidth saturation under wide vector accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = ["DRAMConfig", "DRAMModel", "DRAMStats"]


@dataclass(frozen=True)
class DRAMConfig:
    """LPDDR4X-class timing parameters expressed in CPU cycles at 2.8 GHz."""

    num_channels: int = 4
    num_banks: int = 8
    row_size_bytes: int = 2048
    # Latencies in CPU cycles (LPDDR4X-3733: ~15 ns CL, ~18 ns RCD/RP)
    t_cas: int = 42
    t_rcd: int = 50
    t_rp: int = 50
    burst_bytes: int = 64
    t_burst: int = 8
    #: peak bandwidth in bytes per CPU cycle (about 34 GB/s at 2.8 GHz)
    peak_bytes_per_cycle: float = 12.0

    @property
    def row_miss_latency(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cas + self.t_burst

    @property
    def row_hit_latency(self) -> int:
        return self.t_cas + self.t_burst

    @property
    def structure(self) -> tuple[int, int, int, int]:
        """The address-mapping parameters.  Two configs with equal structure
        classify every access stream identically (same row hits, same open-row
        evolution) and differ only in how a hit or miss is priced -- the
        invariant the config-batched replay engine leans on."""
        return (self.num_channels, self.num_banks, self.row_size_bytes, self.burst_bytes)


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bytes_transferred: int = 0
    busy_cycles: float = 0.0

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class DRAMModel:
    """Bank/row-buffer DRAM latency and bandwidth model."""

    def __init__(self, config: DRAMConfig | None = None):
        self.config = config or DRAMConfig()
        self.stats = DRAMStats()
        # open row per (channel, bank)
        self._open_rows: dict[tuple[int, int], int] = {}

    def reset(self) -> None:
        self.stats = DRAMStats()
        self._open_rows.clear()

    def _locate(self, address: int) -> tuple[int, int, int]:
        cfg = self.config
        row_number = address // cfg.row_size_bytes
        channel = (address // cfg.burst_bytes) % cfg.num_channels
        bank = row_number % cfg.num_banks
        return channel, bank, row_number

    def access(self, address: int, is_write: bool = False, size_bytes: int = 64) -> int:
        """Access DRAM and return the latency in CPU cycles.

        ``size_bytes`` accounts for multi-burst transfers of a full cache
        line or larger vector blocks.
        """
        cfg = self.config
        channel, bank, row = self._locate(address)
        key = (channel, bank)
        open_row = self._open_rows.get(key)
        if open_row == row:
            latency = cfg.row_hit_latency
            self.stats.row_hits += 1
        else:
            latency = cfg.row_miss_latency
            self.stats.row_misses += 1
            self._open_rows[key] = row
        bursts = max(1, (size_bytes + cfg.burst_bytes - 1) // cfg.burst_bytes)
        latency += (bursts - 1) * cfg.t_burst

        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self.stats.bytes_transferred += size_bytes
        self.stats.busy_cycles += bursts * cfg.t_burst
        return latency

    def classify_batch(
        self,
        addresses: np.ndarray,
        is_write: Union[bool, np.ndarray] = False,
        size_bytes: int = 64,
    ) -> np.ndarray:
        """Row-hit mask for a batch of accesses, in request order.

        Performs the full state transition of :meth:`access_batch` -- the
        open-row table and every statistic are updated exactly as a
        per-address :meth:`access` sequence would -- but returns the boolean
        row-buffer classification instead of latencies.  ``is_write`` is one
        flag for the batch or a per-access bool array (it only feeds the
        read/write counters).  The classification depends only on the
        structural parameters (channels, banks, row and burst size), never on
        the timing parameters, which is what lets the config-batched replay
        engine share one classification pass across configs that differ only
        in DRAM timing.
        """
        addresses = addresses.astype(np.int64, copy=False).ravel()
        n = int(addresses.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        cfg = self.config
        rows = addresses // cfg.row_size_bytes
        channels = (addresses // cfg.burst_bytes) % cfg.num_channels
        banks = rows % cfg.num_banks
        keys = channels * cfg.num_banks + banks

        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_rows = rows[order]
        previous = np.empty(n, dtype=np.int64)
        previous[1:] = sorted_rows[:-1]
        group_start = np.empty(n, dtype=bool)
        group_start[0] = True
        group_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
        for position in np.flatnonzero(group_start).tolist():
            key = int(sorted_keys[position])
            open_row = self._open_rows.get((key // cfg.num_banks, key % cfg.num_banks))
            previous[position] = -1 if open_row is None else open_row

        sorted_row_hit = previous == sorted_rows

        group_end = np.empty(n, dtype=bool)
        group_end[-1] = True
        group_end[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        for position in np.flatnonzero(group_end).tolist():
            key = int(sorted_keys[position])
            self._open_rows[(key // cfg.num_banks, key % cfg.num_banks)] = int(
                sorted_rows[position]
            )

        hits = int(sorted_row_hit.sum())
        self.stats.row_hits += hits
        self.stats.row_misses += n - hits
        writes = int(np.count_nonzero(np.broadcast_to(is_write, (n,))))
        self.stats.writes += writes
        self.stats.reads += n - writes
        self.stats.bytes_transferred += n * size_bytes
        bursts = max(1, (size_bytes + cfg.burst_bytes - 1) // cfg.burst_bytes)
        self.stats.busy_cycles += n * bursts * cfg.t_burst

        row_hit = np.empty(n, dtype=bool)
        row_hit[order] = sorted_row_hit
        return row_hit

    def access_batch(
        self, addresses: np.ndarray, is_write: bool = False, size_bytes: int = 64
    ) -> np.ndarray:
        """Per-access latencies for a batch of accesses, in request order.

        Bit-for-bit equivalent to calling :meth:`access` once per address in
        sequence -- including the open-row state carried between accesses --
        but with the row-buffer classification done in array form: requests
        are stably grouped by (channel, bank), each compared against its
        predecessor in the same bank (the first against the open-row table),
        and the table updated with each bank's last row (see
        :meth:`classify_batch`, which holds that logic).
        """
        addresses = addresses.astype(np.int64, copy=False).ravel()
        if addresses.size == 0:
            return np.zeros(0, dtype=np.int64)
        row_hit = self.classify_batch(addresses, is_write, size_bytes)
        return self.latencies_from_classification(row_hit, size_bytes)

    def latencies_from_classification(
        self, row_hit: np.ndarray, size_bytes: int = 64
    ) -> np.ndarray:
        """Latencies for an already-classified batch under *this* config's
        timing parameters.  Split out so one :meth:`classify_batch` pass can
        be priced under several timing configurations."""
        cfg = self.config
        bursts = max(1, (size_bytes + cfg.burst_bytes - 1) // cfg.burst_bytes)
        per_access = (bursts - 1) * cfg.t_burst
        return np.where(
            row_hit, cfg.row_hit_latency + per_access, cfg.row_miss_latency + per_access
        ).astype(np.int64)

    def bandwidth_cycles(self, total_bytes: int) -> float:
        """Minimum cycles needed to move ``total_bytes`` at peak bandwidth."""
        return total_bytes / self.config.peak_bytes_per_cycle
