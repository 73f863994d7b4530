"""Batched, numpy-backed implementation of the cache hierarchy.

This is the default engine behind :func:`repro.memory.cache.make_hierarchy`.
Tags, valid/dirty bits, the L1-presence bit and the LRU clock live in
``(num_sets, ways)`` arrays, and :meth:`VectorCacheHierarchy.vector_block_access`
resolves a whole vector op's deduplicated line list in array form:
set-indexing, tag compare, victim selection, the MSHR windowing and the
DRAM row-buffer classification are all vectorized.

The engine is bit-for-bit identical to the scalar reference
(:class:`repro.memory.cache.Cache` et al., selectable with
``REPRO_SCALAR_CACHE=1``); the property suite in ``tests/test_properties.py``
drives random access streams through both and asserts identical latencies
and statistics.  Exactness hinges on two observations:

* the LRU clock only ever *compares* within one set, so per-access tick
  values can be assigned up front from each line's position in the batch,
  and
* sets are independent of each other, so the batch is replayed as rounds --
  round *r* carries every set's *r*-th line -- where each round touches
  pairwise-distinct sets and resolves fully in parallel.  A batch with no
  set conflicts (the common case) is a single round.

:meth:`VectorCache.access_batch` lays the rounds out contiguously (one
stable sort by in-set rank, then one slice per round) and takes the write
flag per line, so one call serves a single vector op and a chunk of a whole
trace's line stream alike (the replay's memory pass feeds it the latter).
Sets whose lines would need many rounds replay sequentially in one tight
Python loop instead; which sets those are is decided from the batch's own
per-set line counts, trading the fixed cost of a round against the
per-line cost of sequential replay.  A stream chunk spreading a few lines
over every set resolves in rounds; a one-set conflict storm replays
sequentially.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from .cache import (
    CacheConfig,
    CacheHierarchy,
    CacheStats,
    aggregate_block_cycles,
    dedup_lines,
)

__all__ = ["VectorCache", "VectorCacheHierarchy"]


class VectorCache:
    """One set-associative, write-back, LRU cache level on numpy state."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        shape = (self._num_sets, config.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._valid = np.zeros(shape, dtype=bool)
        self._dirty = np.zeros(shape, dtype=bool)
        self._present = np.zeros(shape, dtype=bool)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._tick = 0
        #: line-aligned address evicted by the most recent single ``access``
        self.last_eviction: Optional[int] = None
        #: when not None, every batch eviction's line address is appended
        #: here (as int or int64 array) for inclusive back-invalidation
        self._evictions_buffer: Optional[list] = None

    def reset(self) -> None:
        self.stats = CacheStats()
        self._tags.fill(-1)
        self._valid.fill(False)
        self._dirty.fill(False)
        self._present.fill(False)
        self._lru.fill(0)
        self._tick = 0
        self.last_eviction = None
        self._evictions_buffer = None

    # -- single-line API (scalar-core path and tests) ------------------- #

    def _index_tag(self, address: int) -> tuple[int, int]:
        line_addr = address // self.config.line_bytes
        return line_addr % self._num_sets, line_addr // self._num_sets

    def _find_way(self, index: int, tag: int) -> Optional[int]:
        match = self._valid[index] & (self._tags[index] == tag)
        if not match.any():
            return None
        return int(match.argmax())

    def lookup(self, address: int) -> Optional[int]:
        """The way holding ``address``, or None (no stats update)."""
        index, tag = self._index_tag(address)
        return self._find_way(index, tag)

    def probe(self, address: int) -> bool:
        return self.lookup(address) is not None

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one cache line; returns True on hit (see scalar
        :meth:`~repro.memory.cache.Cache.access`)."""
        self._tick += 1
        index, tag = self._index_tag(address)
        return self._access_one(index, tag, self._tick, is_write)

    def _access_one(
        self,
        index: int,
        tag: int,
        tick: int,
        is_write: bool,
        clear_presence: bool = False,
    ) -> bool:
        self.last_eviction = None
        way = self._find_way(index, tag)
        if way is not None:
            if clear_presence:
                self._present[index, way] = False
            self._lru[index, way] = tick
            if is_write:
                self._dirty[index, way] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        invalid = ~self._valid[index]
        if invalid.any():
            way = int(invalid.argmax())
        else:
            way = int(self._lru[index].argmin())
        if self._valid[index, way]:
            self.stats.evictions += 1
            if self._dirty[index, way]:
                self.stats.writebacks += 1
            self.last_eviction = (
                int(self._tags[index, way]) * self._num_sets + index
            ) * self.config.line_bytes
            if self._evictions_buffer is not None:
                self._evictions_buffer.append(self.last_eviction)
        self._tags[index, way] = tag
        self._valid[index, way] = True
        self._dirty[index, way] = is_write
        self._present[index, way] = False
        self._lru[index, way] = tick
        return False

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` (inclusive back-invalidation);
        returns True if a line was resident.  No statistics are updated."""
        index, tag = self._index_tag(address)
        way = self._find_way(index, tag)
        if way is None:
            return False
        self._invalidate_way(index, way)
        return True

    def _invalidate_way(self, index, way) -> None:
        self._valid[index, way] = False
        self._tags[index, way] = -1
        self._dirty[index, way] = False
        self._present[index, way] = False
        self._lru[index, way] = 0

    def invalidate_batch(self, addresses: np.ndarray) -> None:
        """Drop every resident line among ``addresses`` (distinct lines)."""
        addresses = addresses.astype(np.int64, copy=False).ravel()
        # An empty cache (the L1 under engine-only replay) has nothing to drop.
        if addresses.size == 0 or not self._valid.any():
            return
        line_addr = addresses // self.config.line_bytes
        index = line_addr % self._num_sets
        tag = line_addr // self._num_sets
        match = self._valid[index] & (self._tags[index] == tag[:, None])
        resident = match.any(axis=1)
        if not resident.any():
            return
        self._invalidate_way(index[resident], match[resident].argmax(axis=1))

    def mark_present_in_l1(self, address: int, present: bool = True) -> None:
        way = self.lookup(address)
        if way is not None:
            index, _ = self._index_tag(address)
            self._present[index, way] = present

    def present_in_l1(self, address: int) -> bool:
        index, tag = self._index_tag(address)
        way = self._find_way(index, tag)
        return bool(way is not None and self._present[index, way])

    def dirty_line_count(self) -> int:
        return int((self._valid & self._dirty).sum())

    def valid_line_count(self) -> int:
        return int(self._valid.sum())

    # -- batched API ----------------------------------------------------- #

    def access_batch(
        self,
        addresses: np.ndarray,
        is_write: Union[bool, np.ndarray] = False,
        clear_presence: bool = False,
        collect_evictions: bool = False,
    ) -> np.ndarray:
        """Access a batch of lines; returns the per-line hit mask.

        Equivalent to calling :meth:`access` per address in order, repeated
        lines included (with ``clear_presence`` additionally dropping the
        presence bit of every hit, as an engine-side access does).
        ``is_write`` is one flag for the whole batch or a per-line bool
        array, so a stream mixing loads and stores resolves in one call.
        Each access's LRU tick comes from its batch position, so the only
        ordering that matters is between lines mapping to the same set;
        those resolve over successive all-distinct-sets rounds.

        With ``collect_evictions`` the line addresses of every displaced
        valid victim are recorded; drain them with :meth:`take_evictions`
        (the hierarchy uses this for inclusive L1 back-invalidation).
        """
        self._evictions_buffer = [] if collect_evictions else None
        addresses = addresses.astype(np.int64, copy=False).ravel()
        n = int(addresses.size)
        hits = np.zeros(n, dtype=bool)
        if n == 0:
            return hits
        writes = np.broadcast_to(np.asarray(is_write, dtype=bool), (n,))
        tag, index = np.divmod(addresses // self.config.line_bytes, self._num_sets)
        # the LRU tick of the line at batch position p
        first_tick = self._tick + 1
        self._tick += n

        # Rank each line within its set (0 for the set's first line in the
        # batch, 1 for its second, ...).  Round r then touches every set at
        # most once, so all of round r resolves in parallel, and per-set
        # request order -- the only order that matters -- is preserved
        # across rounds.
        order = np.argsort(index, kind="stable")
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(index[order[1:]], index[order[:-1]], out=starts[1:])
        group_first = np.flatnonzero(starts)
        group_id = np.cumsum(starts) - 1
        counts = np.diff(np.append(group_first, n))
        rank = np.arange(n, dtype=np.int64) - group_first[group_id]

        hot = self._hot_sets(counts)
        cold = ~hot[group_id]
        if not cold.all():
            self._replay_sets(
                order[~cold], group_id[~cold], writes, clear_presence, index, tag, first_tick, hits
            )
            order, rank = order[cold], rank[cold]

        # Lay the rounds out contiguously: one stable sort by rank, then
        # round r is one slice.
        by_round = order[np.argsort(rank, kind="stable")]
        round_ends = np.cumsum(np.bincount(rank)).tolist()
        round_index = index[by_round]
        round_tag = tag[by_round]
        round_ticks = by_round + first_tick
        round_writes = writes[by_round]
        round_hits = np.empty(by_round.size, dtype=bool)
        begin = 0
        for end in round_ends:
            if end - begin >= 4:
                round_hits[begin:end] = self._access_distinct_sets(
                    round_index[begin:end],
                    round_tag[begin:end],
                    round_ticks[begin:end],
                    round_writes[begin:end],
                    clear_presence,
                )
            else:
                for position in range(begin, end):
                    round_hits[position] = self._access_one(
                        int(round_index[position]),
                        int(round_tag[position]),
                        int(round_ticks[position]),
                        bool(round_writes[position]),
                        clear_presence,
                    )
            begin = end
        hits[by_round] = round_hits
        return hits

    #: cost of one all-distinct-sets round, in lines replayed sequentially:
    #: a round is a fixed run of numpy calls whatever its size (~25-35 us),
    #: a sequential line a few Python-level compares (~2 us), measured on a
    #: 2-core x86-64 host
    _ROUND_COST_LINES = 16

    @classmethod
    def _hot_sets(cls, counts: np.ndarray) -> np.ndarray:
        """Which of the batch's sets (by per-set line count) replay
        sequentially instead of over rounds.

        Replaying the k busiest sets sequentially leaves as many rounds as
        the next-busiest set has lines; k is chosen to minimise rounds times
        :data:`_ROUND_COST_LINES` plus the sequentially replayed lines.  So a
        batch spreading a few lines over every set (a stream chunk) resolves
        in rounds, and a one-set conflict storm replays sequentially.
        """
        ranked = np.sort(counts)[::-1]
        rounds = np.append(ranked, 0)
        sequential = np.concatenate(([0], np.cumsum(ranked)))
        best = int(np.argmin(rounds * cls._ROUND_COST_LINES + sequential))
        return counts > rounds[best]

    def take_evictions(self) -> np.ndarray:
        """Line addresses evicted by the last ``collect_evictions`` batch
        (drains the buffer).

        **Ordering guarantee: set equality, not per-access order.**  Hot sets
        (those :meth:`_hot_sets` picks for sequential replay) are replayed
        before the all-distinct-sets rounds, so the buffer's order
        can differ from the order a per-access scalar replay would evict in.
        The *multiset* of evicted lines is always identical to the scalar
        reference: eviction decisions are local to a set (victim choice reads
        only that set's ways, and per-set request order is preserved by both
        the hot-set replay and the round schedule), so reordering whole sets
        against each other cannot change which lines each set evicts.  That
        is sufficient for the only consumer, inclusive L1 back-invalidation:
        ``invalidate_batch`` drops the L1 copy of every listed line, and
        between a batch's first eviction and the batch's end no L1 fill can
        interleave (L1 traffic only originates from core accesses, never from
        the engine-side batch), so dropping the lines in any order leaves the
        same L1 state.  ``tests/test_memory.py`` pins both properties against
        the scalar reference."""
        buffer, self._evictions_buffer = self._evictions_buffer, None
        if not buffer:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.atleast_1d(np.asarray(chunk, dtype=np.int64)) for chunk in buffer]
        )

    def _replay_sets(
        self,
        positions: np.ndarray,
        groups: np.ndarray,
        writes: np.ndarray,
        clear_presence: bool,
        index: np.ndarray,
        tag: np.ndarray,
        first_tick: int,
        hits: np.ndarray,
    ) -> None:
        """Replay the hot sets' lines in request order, one tight loop.

        ``positions`` are the hot lines' batch positions grouped by set (in
        request order within each set) and ``groups`` their set groups.  The
        sets' ways are pulled into plain Python lists once, mutated in the
        loop (identical transition rules to :meth:`_access_one`) and written
        back, so a set receiving hundreds of batch lines costs
        O(lines * ways) Python-level operations and no per-line numpy calls.
        """
        new_set = np.empty(positions.size, dtype=bool)
        new_set[0] = True
        np.not_equal(groups[1:], groups[:-1], out=new_set[1:])
        rows = np.cumsum(new_set) - 1
        sets = index[positions[new_set]]
        all_tags = self._tags[sets].tolist()
        all_valid = self._valid[sets].tolist()
        all_dirty = self._dirty[sets].tolist()
        all_present = self._present[sets].tolist()
        all_lru = self._lru[sets].tolist()
        set_list = sets.tolist()
        ways = self.config.ways
        hit_count = miss_count = evictions = writebacks = 0

        for row, line_tag, tick, is_write, position in zip(
            rows.tolist(),
            tag[positions].tolist(),
            (positions + first_tick).tolist(),
            writes[positions].tolist(),
            positions.tolist(),
        ):
            way_tags = all_tags[row]
            way_valid = all_valid[row]
            way_lru = all_lru[row]
            way = None
            for candidate in range(ways):
                if way_valid[candidate] and way_tags[candidate] == line_tag:
                    way = candidate
                    break
            if way is not None:
                hits[position] = True
                hit_count += 1
                if clear_presence:
                    all_present[row][way] = False
                way_lru[way] = tick
                if is_write:
                    all_dirty[row][way] = True
                continue
            miss_count += 1
            if False in way_valid:
                way = way_valid.index(False)
            else:
                way = min(range(ways), key=way_lru.__getitem__)
                evictions += 1
                if all_dirty[row][way]:
                    writebacks += 1
                if self._evictions_buffer is not None:
                    self._evictions_buffer.append(
                        (way_tags[way] * self._num_sets + set_list[row])
                        * self.config.line_bytes
                    )
            way_tags[way] = line_tag
            way_valid[way] = True
            all_dirty[row][way] = is_write
            all_present[row][way] = False
            way_lru[way] = tick

        self._tags[sets] = all_tags
        self._valid[sets] = all_valid
        self._dirty[sets] = all_dirty
        self._present[sets] = all_present
        self._lru[sets] = all_lru
        self.stats.hits += hit_count
        self.stats.misses += miss_count
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks

    def _access_distinct_sets(
        self,
        index: np.ndarray,
        tag: np.ndarray,
        ticks: np.ndarray,
        writes: np.ndarray,
        clear_presence: bool,
    ) -> np.ndarray:
        """Resolve a round of lines mapping to pairwise-distinct sets;
        returns the round's hit mask."""
        set_valid = self._valid[index]  # (m, ways) gathers
        match = set_valid & (self._tags[index] == tag[:, None])
        is_hit = match.any(axis=1)
        # Scatters go through flat (set * ways + way) slots of the
        # contiguous state arrays, cheaper than (set, way) index pairs.
        ways = self.config.ways

        if is_hit.any():
            hit_slots = index[is_hit] * ways + match[is_hit].argmax(axis=1)
            if clear_presence:
                self._present.reshape(-1)[hit_slots] = False
            self._lru.reshape(-1)[hit_slots] = ticks[is_hit]
            self._dirty.reshape(-1)[hit_slots] |= writes[is_hit]

        missed = ~is_hit
        miss_sets = index[missed]
        if miss_sets.size:
            invalid = ~set_valid[missed]
            # an invalid way is always the victim when the set has one, so
            # the victim was valid exactly when the set was full
            full = ~invalid.any(axis=1)
            victim = np.where(full, self._lru[miss_sets].argmin(axis=1), invalid.argmax(axis=1))
            slots = miss_sets * ways + victim
            if full.any():
                evicted = slots[full]
                self.stats.evictions += int(evicted.size)
                self.stats.writebacks += int(self._dirty.reshape(-1)[evicted].sum())
                if self._evictions_buffer is not None:
                    self._evictions_buffer.append(
                        (self._tags.reshape(-1)[evicted] * self._num_sets + miss_sets[full])
                        * self.config.line_bytes
                    )
            self._tags.reshape(-1)[slots] = tag[missed]
            self._valid.reshape(-1)[slots] = True
            self._dirty.reshape(-1)[slots] = writes[missed]
            self._present.reshape(-1)[slots] = False
            self._lru.reshape(-1)[slots] = ticks[missed]

        self.stats.hits += int(is_hit.sum())
        self.stats.misses += int(missed.sum())
        return is_hit


class VectorCacheHierarchy(CacheHierarchy):
    """The cache hierarchy on :class:`VectorCache` levels with a batched
    vector access path; single-line traffic reuses the shared base-class
    logic, so only the block access differs from the reference."""

    cache_class = VectorCache

    def vector_block_access(
        self, line_addresses: Union[np.ndarray, Iterable[int]], is_write: bool = False
    ) -> int:
        lines = dedup_lines(line_addresses)
        if lines.size == 0:
            return 0
        inclusive = self.config.l2.inclusive
        l2_hits = self.l2.access_batch(
            lines, is_write, clear_presence=True, collect_evictions=inclusive
        )
        if inclusive:
            evicted = self.l2.take_evictions()
            if evicted.size:
                # Inclusive back-invalidation: L1 copies of displaced L2
                # lines are dropped, mirroring the per-line reference path.
                self.l1d.invalidate_batch(evicted)
        hit_count = int(l2_hits.sum())
        miss_lines = lines[~l2_hits]
        miss_latencies: list[int] = []
        if miss_lines.size:
            llc_hits = self.llc.access_batch(miss_lines, is_write)
            latencies = np.full(
                miss_lines.size,
                self.config.l2.hit_latency + self.config.llc.hit_latency,
                dtype=np.int64,
            )
            dram_lines = miss_lines[~llc_hits]
            if dram_lines.size:
                latencies[~llc_hits] += self.dram.access_batch(
                    dram_lines, is_write, self.line_bytes
                )
            miss_latencies = latencies.tolist()
        return aggregate_block_cycles(
            hit_count,
            miss_latencies,
            self.config.l2.mshr_entries,
            self.config.l2.hit_latency,
            self.dram.bandwidth_cycles(len(miss_latencies) * self.line_bytes),
            self.VECTOR_LINES_PER_CYCLE,
        )
