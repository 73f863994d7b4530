"""Unit tests for the memory substrates: flat memory, DRAM, caches.

The cache tests run against both implementations -- the scalar reference
and the batched numpy engine -- via the ``cache_class`` / ``hierarchy_class``
fixtures, so every behavioural assertion doubles as a parity check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import DataType
from repro.memory import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    DRAMConfig,
    DRAMModel,
    FlatMemory,
    HierarchyConfig,
    VectorCache,
    VectorCacheHierarchy,
    make_hierarchy,
)


@pytest.fixture(params=[Cache, VectorCache], ids=["scalar", "vector"])
def cache_class(request):
    return request.param


@pytest.fixture(params=[CacheHierarchy, VectorCacheHierarchy], ids=["scalar", "vector"])
def hierarchy_class(request):
    return request.param


class TestFlatMemory:
    def test_allocate_and_roundtrip(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 16)
        alloc.write(np.arange(16, dtype=np.int32))
        np.testing.assert_array_equal(alloc.read(), np.arange(16, dtype=np.int32))

    def test_allocate_array_initialises(self):
        mem = FlatMemory()
        alloc = mem.allocate_array([1.5, 2.5], DataType.FLOAT32)
        np.testing.assert_allclose(alloc.read(), [1.5, 2.5])

    def test_alignment(self):
        mem = FlatMemory()
        mem.allocate(DataType.INT8, 3)
        second = mem.allocate(DataType.INT32, 4, align=64)
        assert second.address % 64 == 0

    def test_element_address(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 8)
        assert alloc.element_address(2) == alloc.address + 8
        with pytest.raises(IndexError):
            alloc.element_address(8)

    def test_gather_scatter(self):
        mem = FlatMemory()
        alloc = mem.allocate_array(np.arange(10, dtype=np.int32), DataType.INT32)
        addresses = np.array([alloc.element_address(i) for i in (3, 1, 7)])
        np.testing.assert_array_equal(
            mem.read_elements(addresses, DataType.INT32), [3, 1, 7]
        )
        mem.write_elements(addresses, np.array([30, 10, 70]), DataType.INT32)
        np.testing.assert_array_equal(alloc.read()[[3, 1, 7]], [30, 10, 70])

    def test_out_of_bounds_rejected(self):
        mem = FlatMemory(size_bytes=1024)
        with pytest.raises(IndexError):
            mem.view(mem.base_address + 2048, DataType.INT8, 1)

    def test_exhaustion(self):
        mem = FlatMemory(size_bytes=1024)
        with pytest.raises(MemoryError):
            mem.allocate(DataType.INT32, 10_000)

    def test_pointer_table(self):
        mem = FlatMemory()
        table = mem.allocate_array(
            np.array([0x2000, 0x3000], dtype=np.uint64), DataType.UINT64
        )
        pointers = mem.read_pointer_table(table.address, 2)
        np.testing.assert_array_equal(pointers, [0x2000, 0x3000])

    def test_write_wrong_count_rejected(self):
        mem = FlatMemory()
        alloc = mem.allocate(DataType.INT32, 4)
        with pytest.raises(ValueError):
            alloc.write([1, 2, 3])


class TestDRAM:
    def test_row_hit_cheaper_than_miss(self):
        dram = DRAMModel()
        miss = dram.access(0)
        # Same channel and bank, same row: 256 bytes away on a 4-channel map.
        hit = dram.access(256)
        assert hit < miss
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_different_rows_miss(self):
        dram = DRAMModel()
        dram.access(0)
        latency = dram.access(dram.config.row_size_bytes * dram.config.num_banks)
        assert latency == dram.config.row_miss_latency

    def test_large_transfer_adds_bursts(self):
        dram = DRAMModel()
        small = dram.access(0, size_bytes=64)
        dram.reset()
        large = dram.access(0, size_bytes=256)
        assert large > small

    def test_bandwidth_cycles(self):
        dram = DRAMModel(DRAMConfig(peak_bytes_per_cycle=16.0))
        assert dram.bandwidth_cycles(160) == pytest.approx(10.0)

    def test_stats_accumulate(self):
        dram = DRAMModel()
        dram.access(0, is_write=True)
        dram.access(64)
        assert dram.stats.writes == 1 and dram.stats.reads == 1
        assert dram.stats.bytes_transferred == 128
        assert 0.0 <= dram.stats.row_hit_rate() <= 1.0


def make_cache(cache_class, size=4096, ways=4, line=64):
    return cache_class(CacheConfig(name="test", size_bytes=size, ways=ways, line_bytes=line))


class TestCache:
    def test_miss_then_hit(self, cache_class):
        cache = make_cache(cache_class)
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_hits(self, cache_class):
        cache = make_cache(cache_class)
        cache.access(0x100)
        assert cache.access(0x13C) is True  # same 64-byte line

    def test_lru_eviction(self, cache_class):
        cache = make_cache(cache_class, size=4 * 64, ways=4)  # one set
        for i in range(4):
            cache.access(i * 64)
        cache.access(0)  # touch line 0 so it is MRU
        cache.access(4 * 64)  # evict the LRU line (line 1)
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_writeback_counted(self, cache_class):
        cache = make_cache(cache_class, size=4 * 64, ways=4)
        for i in range(4):
            cache.access(i * 64, is_write=True)
        cache.access(4 * 64)
        assert cache.stats.writebacks >= 1

    def test_dirty_line_count(self, cache_class):
        cache = make_cache(cache_class)
        cache.access(0, is_write=True)
        cache.access(64, is_write=False)
        assert cache.dirty_line_count() == 1
        assert cache.valid_line_count() == 2

    def test_presence_bit(self, cache_class):
        cache = make_cache(cache_class)
        cache.access(0x200)
        cache.mark_present_in_l1(0x200, True)
        assert cache.present_in_l1(0x200)
        cache.mark_present_in_l1(0x200, False)
        assert not cache.present_in_l1(0x200)

    def test_num_sets_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=32, ways=4).num_sets

    def test_reset_clears_lru_state(self, cache_class):
        """Regression: lru values surviving reset() while the tick restarts
        at 0 made freshly-installed lines evict before never-touched ways."""
        cache = make_cache(cache_class, size=4 * 64, ways=4)  # one set
        for i in range(64):
            cache.access(i * 64)  # drive the tick (and lru values) up
        cache.reset()
        cache.access(0)  # fresh line, lru=1
        cache.access(64)  # must fill an invalid way, not evict line 0
        assert cache.probe(0)
        assert cache.probe(64)
        assert cache.stats.evictions == 0
        assert cache.valid_line_count() == 2

    def test_invalid_ways_preferred_over_lru(self, cache_class):
        """Victim selection fills invalid ways before evicting any valid
        line, whatever lru values the invalid ways carry."""
        cache = make_cache(cache_class, size=4 * 64, ways=4)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # three valid ways, one invalid
        cache.access(192)
        assert cache.stats.evictions == 0
        cache.access(256)  # set full now: this one evicts LRU (line 0)
        assert cache.stats.evictions == 1
        assert not cache.probe(0)

    def test_last_eviction_reports_line_address(self, cache_class):
        cache = make_cache(cache_class, size=4 * 64, ways=4)
        for i in range(4):
            cache.access(i * 64)
            assert cache.last_eviction is None
        cache.access(4 * 64)
        assert cache.last_eviction == 0  # line 0 was LRU
        cache.access(4 * 64)
        assert cache.last_eviction is None  # hit


class TestCacheHierarchy:
    def test_compute_ways_shrink_l2(self, hierarchy_class):
        hierarchy = hierarchy_class(l2_compute_ways=4)
        assert hierarchy.l2.config.size_bytes == 256 * 1024
        assert hierarchy.l2.config.ways == 4

    def test_core_access_fills_levels(self, hierarchy_class):
        hierarchy = hierarchy_class()
        first = hierarchy.core_access(0x4000)
        second = hierarchy.core_access(0x4000)
        assert first.hit_level == "DRAM"
        assert second.hit_level == "L1-D"
        assert second.latency < first.latency

    def test_l2_access_coherence_eviction(self, hierarchy_class):
        hierarchy = hierarchy_class()
        hierarchy.core_access(0x8000)  # line now in L1 and marked present
        assert hierarchy.l2.present_in_l1(0x8000)
        hierarchy.l2_access(0x8000, from_core=False)
        assert not hierarchy.l2.present_in_l1(0x8000)

    def test_l1_eviction_clears_presence_bit(self, hierarchy_class):
        """Regression: when the L1 displaces a line, the L2's inclusive
        presence bit must drop with it, or engine-side accesses keep paying
        a phantom coherence penalty."""
        hierarchy = hierarchy_class()
        l1 = hierarchy.config.l1d
        target = 0x8000
        hierarchy.core_access(target)
        assert hierarchy.l2.present_in_l1(target)
        # Conflict the same L1 set until the target is evicted from L1.
        way_span = l1.num_sets * l1.line_bytes
        for i in range(1, l1.ways + 1):
            hierarchy.core_access(target + i * way_span)
        assert not hierarchy.l1d.probe(target)
        assert not hierarchy.l2.present_in_l1(target)
        # An engine access therefore pays no coherence penalty.
        result = hierarchy.l2_access(target, from_core=False)
        if result.hit_level == "L2":
            assert result.latency == hierarchy.config.l2.hit_latency

    def test_l2_eviction_back_invalidates_l1(self, hierarchy_class):
        """Regression: displacing a line from the inclusive L2 must also
        drop its L1 copy (and with it the presence bookkeeping), or the L1
        keeps serving a line the L2 no longer tracks."""
        hierarchy = hierarchy_class()
        l2 = hierarchy.l2.config
        target = 0x8000
        hierarchy.core_access(target)  # in L1 and L2, presence set
        # Stream enough conflicting lines through the engine to evict the
        # target's L2 set entirely.
        way_span = l2.num_sets * l2.line_bytes
        conflicts = [target + i * way_span for i in range(1, l2.ways + 1)]
        hierarchy.vector_block_access(conflicts)
        assert not hierarchy.l2.probe(target)
        assert not hierarchy.l1d.probe(target)
        # A fresh engine access reinstalls it without any phantom penalty.
        result = hierarchy.l2_access(target, from_core=False)
        assert result.hit_level != "L2"

    def test_vector_block_access_warm_faster(self, hierarchy_class):
        hierarchy = hierarchy_class()
        lines = [0x10000 + i * 64 for i in range(128)]
        cold = hierarchy.vector_block_access(lines)
        warm = hierarchy.vector_block_access(lines)
        assert warm < cold

    def test_vector_block_access_empty(self, hierarchy_class):
        assert hierarchy_class().vector_block_access([]) == 0
        assert hierarchy_class().vector_block_access(np.zeros(0, dtype=np.int64)) == 0

    def test_vector_block_access_returns_int(self, hierarchy_class):
        """Regression: the scalar path used to return a float (the DRAM
        bandwidth floor) despite the ``-> int`` annotation."""
        hierarchy = hierarchy_class()
        lines = [0x100000 + i * 64 for i in range(512)]
        cycles = hierarchy.vector_block_access(lines)
        assert isinstance(cycles, int)
        warm = hierarchy.vector_block_access(lines)
        assert isinstance(warm, int)

    def test_vector_block_access_ndarray_and_list_agree(self, hierarchy_class):
        addresses = [0x40000 + i * 64 for i in range(200)]
        from_list = hierarchy_class().vector_block_access(addresses)
        from_array = hierarchy_class().vector_block_access(np.asarray(addresses))
        assert from_list == from_array

    def test_vector_block_hit_and_miss_rounding_unified(self, hierarchy_class):
        """Regression: miss windows used ``len(window) // 2`` where hits
        used ``(hits - 1) // 2``; both now stream ``n - 1`` follow-on lines
        at VECTOR_LINES_PER_CYCLE, rounded up."""
        hierarchy = hierarchy_class()
        lpc = hierarchy.VECTOR_LINES_PER_CYCLE
        lines = [0x10000 + i * 64 for i in range(3)]
        hierarchy.vector_block_access(lines)  # install in L2
        warm = hierarchy.vector_block_access(lines)  # 3 hits
        assert warm == hierarchy.config.l2.hit_latency + -(-(3 - 1) // lpc)

    def test_vector_block_respects_dram_bandwidth(self, hierarchy_class):
        hierarchy = hierarchy_class()
        lines = [0x100000 + i * 64 for i in range(512)]
        cycles = hierarchy.vector_block_access(lines)
        floor = hierarchy.dram.bandwidth_cycles(512 * 64)
        assert cycles >= floor

    def test_reset_stats_keeps_contents(self, hierarchy_class):
        hierarchy = hierarchy_class()
        hierarchy.l2_access(0x9000)
        hierarchy.reset_stats()
        assert hierarchy.l2.stats.accesses == 0
        result = hierarchy.l2_access(0x9000)
        assert result.hit_level == "L2"

    def test_flush_dirty_cycles(self, hierarchy_class):
        hierarchy = hierarchy_class()
        hierarchy.l2_access(0xA000, is_write=True)
        assert hierarchy.flush_dirty_cycles() > 0


class TestDRAMBatch:
    def test_batch_matches_sequential(self):
        serial, batched = DRAMModel(), DRAMModel()
        rng = np.random.default_rng(3)
        addresses = (rng.integers(0, 1 << 20, size=300) // 64) * 64
        expected = [serial.access(int(a)) for a in addresses]
        actual = batched.access_batch(addresses)
        assert actual.tolist() == expected
        assert vars(batched.stats) == vars(serial.stats)
        assert batched._open_rows == serial._open_rows

    def test_batch_carries_open_rows_across_calls(self):
        serial, batched = DRAMModel(), DRAMModel()
        first = np.arange(0, 64 * 64, 64, dtype=np.int64)
        second = first + 256  # same rows: previous batch left them open
        for chunk in (first, second):
            expected = [serial.access(int(a)) for a in chunk]
            assert batched.access_batch(chunk).tolist() == expected
        assert batched.stats.row_hits == serial.stats.row_hits > 0

    def test_batch_write_and_size_accounting(self):
        serial, batched = DRAMModel(), DRAMModel()
        addresses = np.arange(0, 32 * 256, 256, dtype=np.int64)
        expected = [serial.access(int(a), is_write=True, size_bytes=128) for a in addresses]
        assert batched.access_batch(addresses, is_write=True, size_bytes=128).tolist() == expected
        assert vars(batched.stats) == vars(serial.stats)

    def test_empty_batch(self):
        dram = DRAMModel()
        assert dram.access_batch(np.zeros(0, dtype=np.int64)).size == 0
        assert dram.stats.reads == 0


#: one batch of the access stream: burst-unit addresses (a tight universe so
#: channels, banks and rows all collide), one transfer size, read or write
_dram_chunk = st.tuples(
    st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=24),
    st.sampled_from([16, 64, 128, 256]),
    st.booleans(),
)


class TestDRAMBatchSeams:
    """Satellite: the batched DRAM path agrees with a scalar ``access``
    replay *across* batch boundaries -- open rows carried from one batch to
    the next, mixed transfer sizes, reads interleaved with writes."""

    @settings(deadline=None, max_examples=50)
    @given(chunks=st.lists(_dram_chunk, min_size=1, max_size=6))
    def test_consecutive_batches_match_scalar_replay(self, chunks):
        batched, serial = DRAMModel(), DRAMModel()
        for units, size_bytes, is_write in chunks:
            addresses = np.asarray(units, dtype=np.int64) * 64
            expected = [
                serial.access(int(a), is_write=is_write, size_bytes=size_bytes)
                for a in addresses
            ]
            actual = batched.access_batch(addresses, is_write=is_write, size_bytes=size_bytes)
            assert actual.tolist() == expected
        assert vars(batched.stats) == vars(serial.stats)
        assert batched._open_rows == serial._open_rows

    def test_classification_is_timing_independent(self):
        """Structure-equal configs classify a stream identically, so one
        ``classify_batch`` pass can be re-priced under many timing variants
        -- the seam the config-batched replay engine leans on."""
        base = DRAMConfig()
        slow = DRAMConfig(t_cas=60, t_rcd=70, t_rp=70, t_burst=12)
        assert slow.structure == base.structure

        classifier = DRAMModel(base)
        direct = DRAMModel(slow)
        pricer = DRAMModel(slow)  # stateless pricing helper
        rng = np.random.default_rng(11)
        for _ in range(3):
            chunk = ((rng.integers(0, 1 << 16, size=40) // 64) * 64).astype(np.int64)
            row_hit = classifier.classify_batch(chunk)
            repriced = pricer.latencies_from_classification(row_hit, 64)
            assert repriced.tolist() == direct.access_batch(chunk).tolist()
        assert classifier.stats.row_hits == direct.stats.row_hits
        assert classifier._open_rows == direct._open_rows


class TestEvictionParity:
    """Satellite: ``take_evictions`` may reorder against a per-access replay
    (hot sets replay first) but always yields the scalar reference's eviction
    *multiset*, and inclusive back-invalidation lands on the same L1 state."""

    @staticmethod
    def _conflict_addresses(num_sets, line_bytes):
        # Twelve lines on set 0 interleaved with three conflicting lines on
        # each of sets 1..8; the engine replays these hot sets set by set,
        # not in request order.
        hot = [(k * num_sets) * line_bytes for k in range(12)]
        spread = [
            (k * num_sets + s) * line_bytes for s in range(1, 9) for k in range(3)
        ]
        interleaved = []
        for i in range(max(len(hot), len(spread))):
            if i < len(spread):
                interleaved.append(spread[i])
            if i < len(hot):
                interleaved.append(hot[i])
        return interleaved

    def test_eviction_multiset_matches_scalar_reference(self):
        cfg = CacheConfig(name="T", size_bytes=8 * 1024, ways=2)
        addrs = self._conflict_addresses(cfg.num_sets, cfg.line_bytes)
        vec, ref = VectorCache(cfg), Cache(cfg)

        hits = vec.access_batch(np.array(addrs, dtype=np.int64), collect_evictions=True)
        evictions = vec.take_evictions()

        ref_hits, ref_evictions = [], []
        for a in addrs:
            ref_hits.append(ref.access(a))
            if ref.last_eviction is not None:
                ref_evictions.append(ref.last_eviction)

        assert len(ref_evictions) >= 10  # the stream really causes evictions
        assert hits.tolist() == ref_hits
        assert sorted(evictions.tolist()) == sorted(ref_evictions)
        assert vec.valid_line_count() == ref.valid_line_count()
        assert all(vec.probe(a) == ref.probe(a) for a in addrs)

    def test_back_invalidation_leaves_identical_l1_state(self):
        scalar = CacheHierarchy()
        vector = VectorCacheHierarchy()
        num_sets = scalar.l2.config.num_sets
        line = scalar.line_bytes

        # Fill set 0's storage ways through the core so the lines sit in L1
        # *and* L2; the engine batch then evicts them from L2, which must
        # back-invalidate the L1 copies in both implementations.
        warm = [(k * num_sets) * line for k in range(scalar.l2.config.ways)]
        batch = np.array(
            [(k * num_sets) * line for k in range(4, 16)]
            + [(k * num_sets + s) * line for k in range(3) for s in range(1, 5)],
            dtype=np.int64,
        )
        for hierarchy in (scalar, vector):
            for address in warm:
                hierarchy.core_access(address)
        assert all(scalar.l1d.probe(a) for a in warm)

        assert vector.vector_block_access(batch) == scalar.vector_block_access(batch)
        assert not any(scalar.l1d.probe(a) for a in warm)  # victims invalidated
        for a in warm:
            assert vector.l1d.probe(a) == scalar.l1d.probe(a)
            assert vector.l2.probe(a) == scalar.l2.probe(a)
        assert vector.l1d.valid_line_count() == scalar.l1d.valid_line_count()
        assert vars(vector.l2.stats) == vars(scalar.l2.stats)
        assert vars(vector.llc.stats) == vars(scalar.llc.stats)
        assert vars(vector.dram.stats) == vars(scalar.dram.stats)


class TestEngineSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_CACHE", raising=False)
        assert isinstance(make_hierarchy(), VectorCacheHierarchy)

    def test_env_switch_selects_scalar_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_CACHE", "1")
        hierarchy = make_hierarchy()
        assert type(hierarchy) is CacheHierarchy

    def test_explicit_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_CACHE", "1")
        assert isinstance(make_hierarchy(scalar=False), VectorCacheHierarchy)
