"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.intrinsics import MVEMachine
from repro.isa import DataType, VectorShape, resolve_strides
from repro.isa.registers import ControlRegisters
from repro.memory import FlatMemory

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

dims_strategy = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4)


class TestShapeProperties:
    @given(dims_strategy)
    def test_flatten_unflatten_roundtrip(self, lengths):
        shape = VectorShape(tuple(lengths))
        for lane in range(shape.total_elements):
            assert shape.flatten_index(shape.unflatten_lane(lane)) == lane

    @given(dims_strategy)
    def test_flatten_is_bijective(self, lengths):
        shape = VectorShape(tuple(lengths))
        lanes = {
            shape.flatten_index(shape.unflatten_lane(i)) for i in range(shape.total_elements)
        }
        assert len(lanes) == shape.total_elements

    @given(dims_strategy)
    def test_total_elements_is_product(self, lengths):
        assert VectorShape(tuple(lengths)).total_elements == int(np.prod(lengths))


class TestStrideProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=16), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=512), min_size=4, max_size=4),
    )
    def test_resolved_strides_non_negative(self, modes, lengths, registers):
        strides = resolve_strides(modes, lengths, registers)
        assert len(strides) == len(modes)
        assert all(s >= 0 for s in strides)

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=2, max_size=4))
    def test_sequential_mode_equals_cumulative_product(self, lengths):
        modes = [1] + [2] * (len(lengths) - 1)
        strides = resolve_strides(modes, lengths, [0] * len(lengths))
        expected = 1
        for dim in range(1, len(lengths)):
            expected *= lengths[dim - 1]
            assert strides[dim] == expected


class TestMaskProperties:
    @given(st.integers(min_value=1, max_value=1024), st.sets(st.integers(0, 255), max_size=16))
    def test_active_mask_length_matches_dimension(self, length, masked_off):
        cr = ControlRegisters()
        cr.set_dim_count(2)
        cr.set_dim_length(1, length)
        for element in masked_off:
            cr.set_mask(element, False)
        mask = cr.active_mask()
        assert len(mask) == length


def _machine_with(values, dtype):
    memory = FlatMemory()
    machine = MVEMachine(memory)
    allocation = memory.allocate_array(np.asarray(values, dtype=dtype.numpy_dtype), dtype)
    machine.vsetdimc(1)
    machine.vsetdiml(0, len(values))
    vector = machine.vsld(dtype, allocation.address, (1,))
    return machine, vector, allocation


int32_arrays = st.lists(
    st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=1, max_size=64
)


class TestFunctionalProperties:
    @given(int32_arrays)
    def test_load_store_roundtrip(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        out = machine.memory.allocate(DataType.INT32, len(values))
        machine.vsst(vector, out.address, (1,))
        np.testing.assert_array_equal(out.read(), np.asarray(values, dtype=np.int32))

    @given(int32_arrays)
    def test_add_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        doubled = machine.vadd(vector, vector)
        expected = (np.asarray(values, dtype=np.int64) * 2).astype(np.int32)
        np.testing.assert_array_equal(doubled.values, expected)

    @given(int32_arrays)
    def test_xor_with_self_is_zero(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        np.testing.assert_array_equal(
            machine.vxor(vector, vector).values, np.zeros(len(values), dtype=np.int32)
        )

    @given(int32_arrays)
    def test_min_le_max(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        reversed_vec = machine.vsetdup(DataType.INT32, 0)
        low = machine.vmin(vector, reversed_vec)
        high = machine.vmax(vector, reversed_vec)
        assert np.all(low.values <= high.values)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32),
        st.integers(min_value=1, max_value=7),
    )
    def test_rotate_preserves_popcount(self, values, amount):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        rotated = machine.vrot_imm(vector, amount)
        original_bits = [bin(int(v) & 0xFF).count("1") for v in vector.values]
        rotated_bits = [bin(int(v) & 0xFF).count("1") for v in rotated.values]
        assert original_bits == rotated_bits

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_strided_2d_load_matches_numpy_slicing(self, rows, cols, tile_cols):
        tile_cols = min(tile_cols, cols)
        matrix = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
        memory = FlatMemory()
        machine = MVEMachine(memory)
        allocation = memory.allocate_array(matrix.reshape(-1), DataType.INT32)
        machine.vsetdimc(2)
        machine.vsetdiml(0, tile_cols)
        machine.vsetdiml(1, rows)
        machine.vsetldstr(1, cols)
        value = machine.vsld(DataType.INT32, allocation.address, (1, 3))
        np.testing.assert_array_equal(value.values, matrix[:, :tile_cols].reshape(-1))

    @given(int32_arrays)
    def test_sub_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        arr = np.asarray(values, dtype=np.int32)
        shifted = machine.vshr_imm(vector, 1)
        np.testing.assert_array_equal(
            machine.vsub(vector, shifted).values, arr - (arr >> 1)
        )

    @given(st.lists(st.integers(min_value=-(2**15), max_value=2**15 - 1), min_size=1, max_size=64))
    def test_mul_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        expected = np.asarray(values, dtype=np.int32) * np.asarray(values, dtype=np.int32)
        np.testing.assert_array_equal(machine.vmul(vector, vector).values, expected)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=64,
        )
    )
    def test_float_add_matches_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.FLOAT32)
        arr = np.asarray(values, dtype=np.float32)
        np.testing.assert_array_equal(machine.vadd(vector, vector).values, arr + arr)

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_and_or_match_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        arr = np.asarray(values, dtype=np.uint8)
        mask = machine.vsetdup(DataType.UINT8, 0x0F)
        np.testing.assert_array_equal(machine.vand(vector, mask).values, arr & 0x0F)
        np.testing.assert_array_equal(machine.vor(vector, mask).values, arr | 0x0F)

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32),
        st.integers(min_value=0, max_value=7),
    )
    def test_shift_left_matches_numpy(self, values, amount):
        machine, vector, _ = _machine_with(values, DataType.UINT8)
        expected = (np.asarray(values, dtype=np.uint16) << amount).astype(np.uint8)
        np.testing.assert_array_equal(machine.vshl_imm(vector, amount).values, expected)

    @given(int32_arrays)
    def test_vcpy_is_identity(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        np.testing.assert_array_equal(
            machine.vcpy(vector).values, np.asarray(values, dtype=np.int32)
        )

    @given(st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=64))
    def test_vcvt_matches_numpy_astype(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        converted = machine.vcvt(vector, DataType.FLOAT32)
        np.testing.assert_array_equal(
            converted.values, np.asarray(values, dtype=np.int32).astype(np.float32)
        )

    @given(int32_arrays)
    def test_comparisons_match_numpy(self, values):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        zero = machine.vsetdup(DataType.INT32, 0)
        arr = np.asarray(values, dtype=np.int32)
        np.testing.assert_array_equal(machine.vgt(vector, zero).values != 0, arr > 0)
        np.testing.assert_array_equal(machine.vlte(vector, zero).values != 0, arr <= 0)


class TestMemoryProperties:
    @given(
        st.lists(st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=1, max_size=32),
        st.integers(min_value=2, max_value=5),
    )
    def test_strided_store_matches_numpy_slicing(self, values, stride):
        machine, vector, _ = _machine_with(values, DataType.INT32)
        out = machine.memory.allocate(DataType.INT32, len(values) * stride)
        machine.vsetststr(0, stride)
        machine.vsst(vector, out.address, (3,))
        np.testing.assert_array_equal(
            out.read()[:: stride][: len(values)], np.asarray(values, dtype=np.int32)
        )

    @given(st.permutations(list(range(16))))
    def test_random_load_matches_fancy_indexing(self, order):
        memory = FlatMemory()
        machine = MVEMachine(memory)
        data = np.arange(100, 100 + len(order), dtype=np.int32)
        allocation = memory.allocate_array(data, DataType.INT32)
        pointers = np.asarray(
            [allocation.address + index * 4 for index in order], dtype=np.uint64
        )
        table = memory.allocate_array(pointers, DataType.UINT64)
        machine.vsetdimc(1)
        machine.vsetdiml(0, len(order))
        gathered = machine.vrld(DataType.INT32, table.address, (1,))
        np.testing.assert_array_equal(gathered.values, data[np.asarray(order)])

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_2d_load_store_roundtrip(self, rows, cols):
        matrix = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
        memory = FlatMemory()
        machine = MVEMachine(memory)
        source = memory.allocate_array(matrix.reshape(-1), DataType.INT32)
        dest = memory.allocate(DataType.INT32, rows * cols)
        machine.vsetdimc(2)
        machine.vsetdiml(0, cols)
        machine.vsetdiml(1, rows)
        value = machine.vsld(DataType.INT32, source.address, (1, 2))
        machine.vsst(value, dest.address, (1, 2))
        np.testing.assert_array_equal(dest.read().reshape(rows, cols), matrix)

    @given(
        st.lists(st.integers(min_value=-(2**30), max_value=2**30 - 1), min_size=4, max_size=32),
        st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    )
    def test_masked_store_leaves_masked_rows_untouched(self, values, masked_off):
        rows = 4
        cols = len(values) // rows
        if cols == 0:
            return
        values = values[: rows * cols]
        memory = FlatMemory()
        machine = MVEMachine(memory)
        source = memory.allocate_array(np.asarray(values, np.int32), DataType.INT32)
        sentinel = np.full(rows * cols, -1, dtype=np.int32)
        dest = memory.allocate_array(sentinel, DataType.INT32)
        machine.vsetdimc(2)
        machine.vsetdiml(0, cols)
        machine.vsetdiml(1, rows)
        value = machine.vsld(DataType.INT32, source.address, (1, 2))
        for row in masked_off:
            machine.vunsetmask(row)
        machine.vsst(value, dest.address, (1, 2))
        machine.vresetmask()
        written = dest.read().reshape(rows, cols)
        expected = np.asarray(values, np.int32).reshape(rows, cols)
        for row in range(rows):
            if row in masked_off:
                np.testing.assert_array_equal(written[row], np.full(cols, -1, np.int32))
            else:
                np.testing.assert_array_equal(written[row], expected[row])

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=64))
    def test_tree_reduce_preserves_sum(self, values):
        from repro.workloads.base import tree_reduce

        memory = FlatMemory()
        machine = MVEMachine(memory)
        allocation = memory.allocate_array(np.asarray(values, np.int32), DataType.INT32)
        scratch = memory.allocate(DataType.INT32, 8192)
        machine.vsetdimc(1)
        machine.vsetdiml(0, len(values))
        vector = machine.vsld(DataType.INT32, allocation.address, (1,))
        reduced, remaining = tree_reduce(
            machine, vector, len(values), scratch.address, stop_at=2
        )
        assert int(reduced.values[:remaining].sum()) == int(np.sum(values))


class TestCacheEngineParity:
    """The batched numpy cache engine is bit-for-bit identical to the scalar
    reference: random access streams (single core/engine accesses plus
    vector block accesses with conflict-heavy strided patterns) must produce
    identical latencies, hit levels and statistics at every step."""

    @staticmethod
    def _small_hierarchy(cls):
        from repro.memory import CacheConfig, HierarchyConfig

        config = HierarchyConfig(
            l1d=CacheConfig("L1-D", 2048, 2, hit_latency=4),
            l2=CacheConfig("L2", 8192, 8, hit_latency=12, mshr_entries=5),
            llc=CacheConfig("LLC", 16384, 4, hit_latency=31),
        )
        return cls(config, l2_compute_ways=4)

    @staticmethod
    def _observable(hierarchy):
        levels = [
            (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.writebacks)
            for c in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
        ]
        dram = hierarchy.dram.stats
        return levels + [
            (dram.reads, dram.writes, dram.row_hits, dram.row_misses,
             dram.bytes_transferred, dram.busy_cycles),
            (hierarchy.l2.dirty_line_count(), hierarchy.l2.valid_line_count(),
             hierarchy.llc.dirty_line_count(), hierarchy.flush_dirty_cycles()),
        ]

    op_strategy = st.one_of(
        st.tuples(
            st.sampled_from(["core", "l2_core", "l2_engine"]),
            st.integers(min_value=0, max_value=(1 << 15) - 1),
            st.booleans(),
        ),
        st.tuples(
            st.just("block"),
            st.lists(st.integers(min_value=0, max_value=511), min_size=0, max_size=40),
            st.booleans(),
        ),
        st.tuples(
            st.just("strided"),
            st.tuples(
                st.integers(min_value=0, max_value=255),  # base line
                st.sampled_from([1, 2, 8, 16, 64, 128]),  # line stride
                st.integers(min_value=1, max_value=48),  # count
            ),
            st.booleans(),
        ),
    )

    @given(st.lists(op_strategy, min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_random_streams_identical(self, ops):
        from repro.memory import CacheHierarchy, VectorCacheHierarchy

        scalar = self._small_hierarchy(CacheHierarchy)
        vector = self._small_hierarchy(VectorCacheHierarchy)
        for kind, arg, is_write in ops:
            if kind == "core":
                a, b = scalar.core_access(arg, is_write), vector.core_access(arg, is_write)
            elif kind in ("l2_core", "l2_engine"):
                from_core = kind == "l2_core"
                a = scalar.l2_access(arg, is_write, from_core=from_core)
                b = vector.l2_access(arg, is_write, from_core=from_core)
            else:
                if kind == "block":
                    addresses = [line * 64 for line in arg]
                else:
                    base, stride, count = arg
                    addresses = [(base + i * stride) * 64 for i in range(count)]
                a = scalar.vector_block_access(addresses, is_write)
                b = vector.vector_block_access(np.asarray(addresses, dtype=np.int64), is_write)
                assert a == b
                assert isinstance(a, int) and isinstance(b, int)
                continue
            assert (a.latency, a.hit_level) == (b.latency, b.hit_level)
        assert self._observable(scalar) == self._observable(vector)

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=200),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_dram_batch_matches_sequential(self, addresses, is_write):
        from repro.memory import DRAMModel

        serial, batched = DRAMModel(), DRAMModel()
        aligned = [(a // 64) * 64 for a in addresses]
        expected = [serial.access(a, is_write) for a in aligned]
        actual = batched.access_batch(np.asarray(aligned, dtype=np.int64), is_write)
        assert actual.tolist() == expected
        assert vars(batched.stats) == vars(serial.stats)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=1023), st.booleans()),
                min_size=1,
                max_size=150,
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([32, 256]),
    )
    @settings(max_examples=60)
    def test_per_line_write_masks_match_scalar(self, batches, num_sets):
        """``access_batch`` and ``classify_batch`` with a per-line write mask
        (the stream pass's mixed load/store chunks) against per-line scalar
        accesses: hits, dirty lines, write-backs and DRAM read/write counts.
        Lines recur within and across batches, so write hits occur too;
        over 32 sets they replay mostly as hot sets, over 256 sets mostly as
        rounds."""
        from repro.memory import Cache, CacheConfig, DRAMModel, VectorCache

        config = CacheConfig("T", num_sets * 4 * 64, 4)
        scalar, vector = Cache(config), VectorCache(config)
        serial_dram, batched_dram = DRAMModel(), DRAMModel()
        for batch in batches:
            addresses = np.array([line * 64 for line, _ in batch], dtype=np.int64)
            writes = np.array([is_write for _, is_write in batch], dtype=bool)
            expected = [scalar.access(int(a), bool(w)) for a, w in zip(addresses, writes)]
            assert vector.access_batch(addresses, writes).tolist() == expected
            latencies = [serial_dram.access(int(a), bool(w)) for a, w in zip(addresses, writes)]
            row_hit = batched_dram.classify_batch(addresses, writes)
            assert batched_dram.latencies_from_classification(row_hit).tolist() == latencies
        assert vars(vector.stats) == vars(scalar.stats)
        assert vector.dirty_line_count() == scalar.dirty_line_count()
        assert vars(batched_dram.stats) == vars(serial_dram.stats)


#: DRAM timing variants sharing one address-mapping structure, so one stream
#: pass classifies for all of them
_DRAM_TIMINGS = (
    {},
    {"t_cas": 60, "t_rcd": 70, "t_rp": 70},
    {"t_burst": 12, "peak_bytes_per_cycle": 6.0},
)


def _footprint_instruction(kind, start, stride, count, lines, is_store):
    """A vector load/store whose cache-line footprint the strategy chose."""
    from repro.isa import MemoryInstruction, Opcode

    if kind == "empty":
        opcode = Opcode.STRIDED_STORE if is_store else Opcode.STRIDED_LOAD
        return MemoryInstruction(opcode=opcode, is_store=is_store)
    if kind == "random":
        opcode = Opcode.RANDOM_STORE if is_store else Opcode.RANDOM_LOAD
        bases = tuple(line * 64 + 4 * (line % 16) for line in lines)
        return MemoryInstruction(
            opcode=opcode,
            is_store=is_store,
            is_random=True,
            random_bases=bases,
            shape_lengths=(len(bases),),
        )
    # strided: one INT32 element per line, ``stride`` lines apart
    opcode = Opcode.STRIDED_STORE if is_store else Opcode.STRIDED_LOAD
    return MemoryInstruction(
        opcode=opcode,
        is_store=is_store,
        base_address=start * 64,
        resolved_strides=(stride * 16,),
        shape_lengths=(count,),
    )


class TestStreamMemoryPassParity:
    """The replay's chunked stream memory pass
    (:func:`repro.core.replay._run_memory_pass`) against a per-instruction
    ``vector_block_access`` loop and the scalar ``CacheHierarchy``: the same
    per-instruction cycles (per DRAM timing variant), L2/LLC/DRAM counts,
    DRAM bytes and L2 hit rate, warm-up run included."""

    #: small caches so short streams evict: 16 L2 storage sets, 64 LLC sets
    _SMALL_L2_SETS = 16

    @staticmethod
    def _hierarchy_config(dram):
        from repro.memory import CacheConfig, HierarchyConfig

        return HierarchyConfig(
            l1d=CacheConfig("L1-D", 2048, 2, hit_latency=4),
            l2=CacheConfig("L2", 8192, 8, hit_latency=12, mshr_entries=5),
            llc=CacheConfig("LLC", 16384, 4, hit_latency=31),
            dram=dram,
        )

    @staticmethod
    def _per_instruction(hierarchy, instructions, warm_cache):
        """Drive ``hierarchy`` one instruction at a time, the way
        ``MVESimulator`` does, and read the stat deltas around each call."""
        from repro.core.address_gen import cache_line_addresses

        footprints = [cache_line_addresses(i, hierarchy.line_bytes) for i in instructions]
        if warm_cache:
            for instruction, lines in zip(instructions, footprints):
                hierarchy.vector_block_access(lines, instruction.is_store)
            hierarchy.reset_stats()
        rows = []
        for instruction, lines in zip(instructions, footprints):
            l2, llc = hierarchy.l2.stats.hits, hierarchy.llc.stats.hits
            dram = hierarchy.dram.stats.reads + hierarchy.dram.stats.writes
            cycles = hierarchy.vector_block_access(lines, instruction.is_store)
            rows.append(
                (
                    cycles,
                    hierarchy.l2.stats.hits - l2,
                    hierarchy.llc.stats.hits - llc,
                    hierarchy.dram.stats.reads + hierarchy.dram.stats.writes - dram,
                )
            )
        return rows, hierarchy.dram.stats.bytes_transferred, hierarchy.l2.stats.hit_rate()

    def _assert_stream_parity(self, instructions, timings, warm_cache, config_for, scalar=True):
        from repro.core.energy import EnergyCoefficients
        from repro.core.replay import _StaticTrace, _run_memory_pass
        from repro.memory import CacheHierarchy, DRAMConfig, VectorCacheHierarchy

        variants = [DRAMConfig(**timing) for timing in timings]
        static = _StaticTrace(instructions, EnergyCoefficients())
        stream = _run_memory_pass(static, config_for(variants[0]), 4, variants, warm_cache)
        engines = (VectorCacheHierarchy, CacheHierarchy) if scalar else (VectorCacheHierarchy,)
        for variant in variants:
            for engine in engines:
                hierarchy = engine(config_for(variant), l2_compute_ways=4)
                rows, dram_bytes, hit_rate = self._per_instruction(
                    hierarchy, instructions, warm_cache
                )
                got = list(
                    zip(
                        stream.cycles[variant],
                        stream.l2_hits,
                        stream.llc_hits,
                        stream.dram_accesses,
                    )
                )
                assert got == rows, engine.__name__
                assert stream.dram_bytes == dram_bytes
                assert stream.l2_hit_rate == hit_rate

    instruction_strategy = st.one_of(
        st.tuples(
            st.just("random"),
            st.just(0),
            st.just(0),
            st.just(0),
            st.lists(st.integers(min_value=0, max_value=1023), min_size=0, max_size=40),
            st.booleans(),
        ),
        st.tuples(
            st.just("strided"),
            st.integers(min_value=0, max_value=1023),  # first line
            st.sampled_from([1, 2, 3, 8, 64]),  # line stride
            st.integers(min_value=1, max_value=200),  # lines
            st.just(()),
            st.booleans(),
        ),
        # one-set conflict storm: every line on the same L2 set, more lines
        # than the set has ways many times over
        st.tuples(
            st.just("strided"),
            st.integers(min_value=0, max_value=1023),
            st.just(_SMALL_L2_SETS),
            st.integers(min_value=20, max_value=120),
            st.just(()),
            st.booleans(),
        ),
        st.tuples(st.just("empty"), st.just(0), st.just(0), st.just(0), st.just(()), st.booleans()),
    )

    @given(
        instructions=st.lists(instruction_strategy, min_size=1, max_size=25),
        timings=st.lists(
            st.sampled_from(_DRAM_TIMINGS), min_size=1, max_size=3, unique_by=repr
        ),
        warm_cache=st.booleans(),
        chunk_lines=st.sampled_from([1, 24, 64, 8192]),
    )
    @settings(max_examples=60)
    def test_stream_pass_matches_per_instruction_replay(
        self, instructions, timings, warm_cache, chunk_lines
    ):
        from unittest import mock

        from repro.core import replay

        trace = [_footprint_instruction(*spec) for spec in instructions]
        # Small chunks make instructions straddle and exceed chunk bounds.
        with mock.patch.object(replay, "STREAM_CHUNK_LINES", chunk_lines):
            self._assert_stream_parity(trace, timings, warm_cache, self._hierarchy_config)

    def test_instruction_larger_than_a_chunk_on_table_iv_caches(self):
        """At the real chunk size and the default (Table IV) hierarchy: a
        single instruction spanning more than a chunk, stores among loads,
        a one-set storm on the 1024-set L2 and an empty footprint."""
        import dataclasses

        from repro.core.replay import STREAM_CHUNK_LINES
        from repro.memory import HierarchyConfig

        big = STREAM_CHUNK_LINES + 1000
        trace = [
            _footprint_instruction("strided", 0, 1, 300, (), False),
            _footprint_instruction("strided", 4096, 1, big, (), True),
            _footprint_instruction("strided", 7, 1024, 150, (), False),
            _footprint_instruction("empty", 0, 0, 0, (), True),
            _footprint_instruction("strided", 100, 3, 3000, (), False),
        ]

        def table_iv(dram):
            return dataclasses.replace(HierarchyConfig(), dram=dram)

        self._assert_stream_parity(trace, _DRAM_TIMINGS[:2], True, table_iv)


# --------------------------------------------------------------------- #
#  Cache-line footprints by row decomposition
# --------------------------------------------------------------------- #

#: derandomized: the footprint and compute-pass cases below are exact
#: differential checks, so every run draws the same examples
DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


def _expanded_footprint(instruction, line_bytes):
    """The oracle: expand every active element address, then sort and
    deduplicate the lines."""
    from repro.core.address_gen import element_addresses

    return np.unique(element_addresses(instruction) // line_bytes) * line_bytes


#: element strides: zero, negative, sub-line and longer than a line
_FOOTPRINT_STRIDES = [0, 1, 2, 3, -1, -5, 16, 40, -70, 129]
#: one element width of each size: 1, 2, 4 and 8 bytes
_FOOTPRINT_DTYPES = ["INT8", "FLOAT16", "INT32", "UINT64"]


@st.composite
def _repeated_access_patterns(draw):
    """Memory instructions repeating one access pattern at shifted bases.

    Shifts by multiples of 128 keep every residue (memo hits on a new
    line); other shifts land unaligned.  Random rows may repeat and are
    unsorted; masks are empty, all-set, partial or all-clear.
    """
    from repro.isa import DimMask, MemoryInstruction, Opcode

    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    strides = tuple(
        draw(
            st.lists(
                st.sampled_from(_FOOTPRINT_STRIDES), min_size=len(lengths), max_size=len(lengths)
            )
        )
    )
    dtype = DataType[draw(st.sampled_from(_FOOTPRINT_DTYPES))]
    rows = lengths[-1]
    mask_kind = draw(st.sampled_from(["empty", "all-set", "partial", "all-clear"]))
    if mask_kind == "empty":
        mask = DimMask.EMPTY
    elif mask_kind == "partial":
        mask = DimMask.from_lanes(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    else:
        mask = DimMask.from_lanes([mask_kind == "all-set"] * rows)
    is_random = draw(st.booleans())
    row_bases = draw(
        st.lists(
            st.one_of(st.integers(0, 4096), st.sampled_from([100, 1000])),
            min_size=rows,
            max_size=rows,
        )
    )
    base = draw(st.integers(0, 8192))
    shifts = draw(
        st.lists(
            st.one_of(st.integers(-300, 300), st.sampled_from([0, 128, 384, -512])),
            min_size=1,
            max_size=5,
        )
    )
    instructions = []
    for shift in shifts:
        if is_random:
            instructions.append(
                MemoryInstruction(
                    Opcode.RANDOM_LOAD,
                    dtype=dtype,
                    is_random=True,
                    random_bases=tuple(b + shift for b in row_bases),
                    resolved_strides=strides,
                    shape_lengths=lengths,
                    mask=mask,
                )
            )
        else:
            instructions.append(
                MemoryInstruction(
                    Opcode.STRIDED_STORE,
                    dtype=dtype,
                    is_store=True,
                    base_address=base + shift,
                    resolved_strides=strides,
                    shape_lengths=lengths,
                    mask=mask,
                )
            )
    if draw(st.booleans()):
        position = draw(st.integers(0, len(instructions)))
        instructions.insert(position, MemoryInstruction(Opcode.STRIDED_LOAD))
    return instructions


class TestFootprintDecomposition:
    """``cache_line_addresses`` (row decomposition) and ``trace_footprints``
    (its per-pattern memo) against expanding every element address."""

    @DIFFERENTIAL
    @given(st.lists(_repeated_access_patterns(), min_size=1, max_size=3))
    def test_footprints_match_element_expansion(self, patterns):
        from repro.core.address_gen import cache_line_addresses, trace_footprints

        # patterns interleaved so one memo serves several of them
        instructions = [i for group in zip(*patterns) for i in group]
        instructions += [i for group in patterns for i in group]
        for line_bytes in (32, 64, 128):
            memoized = trace_footprints(instructions, line_bytes)
            assert len(memoized) == len(instructions)
            for instruction, footprint in zip(instructions, memoized):
                expected = _expanded_footprint(instruction, line_bytes)
                for got in (cache_line_addresses(instruction, line_bytes), footprint):
                    assert got.dtype == np.int64
                    assert np.all(got[1:] > got[:-1]), "not sorted and unique"
                    np.testing.assert_array_equal(got, expected)


# --------------------------------------------------------------------- #
#  Compute pass: memoized placement against the per-entry loop
# --------------------------------------------------------------------- #


def _per_entry_compute_pass(static, scheme, config, coefficients):
    """The compute pass as a plain per-entry loop: placement, TMU and SRAM
    latencies evaluated for every engine entry, energy summed in trace
    order."""
    from repro.core.controller import MVEControllerModel
    from repro.core.replay import _OP_CONFIG, _OP_ENGINE, _ComputePass
    from repro.sram.tmu import TransposeMemoryUnit

    controller = MVEControllerModel(config.engine, scheme)
    tmu = TransposeMemoryUnit(config.tmu)
    multiplier = config.sram_cycle_multiplier
    float_factor = config.float_latency_factor
    dispatch = config.controller_dispatch_cycles
    energy_factor = scheme.energy_per_cycle_factor

    result = _ComputePass(len(static.engine_entries), len(static.memory_instructions))
    compute_nj = 0.0
    for op, payload in static.ops:
        if op != _OP_ENGINE:
            if op == _OP_CONFIG:
                compute_nj += 1 * coefficients.controller_instruction_pj / 1000.0
            continue
        compute_nj += 1 * coefficients.controller_instruction_pj / 1000.0
        instruction, memory_index = static.engine_entries[payload]
        element_bits = instruction.dtype.bits
        placement = controller.placement(instruction, element_bits)
        result.lane_utilization[payload] = placement.lane_utilization
        result.cb_utilization[payload] = placement.cb_utilization
        if memory_index >= 0:
            active_elements = instruction.active_elements()
            active_cbs = max(1, placement.active_control_blocks)
            elements_per_cb = (active_elements + active_cbs - 1) // active_cbs
            if instruction.is_store:
                cycles = tmu.drain_cycles(elements_per_cb, element_bits)
            else:
                cycles = tmu.fill_cycles(elements_per_cb, element_bits)
            result.tmu_cycles[memory_index] = cycles
            result.sram_row_cycles[memory_index] = (
                controller.memory_row_cycles(instruction) * multiplier
            )
        else:
            sram_cycles = controller.compute_sram_cycles(
                instruction, element_bits, float_factor, placement
            )
            result.compute_durations[payload] = sram_cycles * multiplier + dispatch
            compute_nj += (
                sram_cycles
                * placement.active_lanes
                * coefficients.sram_cycle_per_lane_pj
                * energy_factor
                / 1000.0
            )
    result.compute_nj = compute_nj
    return result


#: a small pool so shapes repeat across entries; () is an unshaped access
_COMPUTE_SHAPES = [(), (16,), (8, 4), (4, 4, 2), (300, 3), (2048,), (64, 64)]
_COMPUTE_DTYPES = ["INT8", "UINT16", "FLOAT16", "INT32", "FLOAT32", "INT64"]
_COMPUTE_OPCODES = ["ADD", "MUL", "DIV", "MAC", "XOR", "GT", "SHIFT_IMM", "SET_DUP"]


@st.composite
def _engine_entries(draw):
    """One trace entry: a load, store, spill, move, arithmetic, config
    instruction or scalar block, with a drawn shape, mask and dtype."""
    from repro.isa import (
        ArithmeticInstruction,
        ConfigInstruction,
        DimMask,
        MemoryInstruction,
        MoveInstruction,
        Opcode,
        ScalarBlock,
    )

    kind = draw(
        st.sampled_from(["load", "store", "random", "spill", "move", "arith", "config", "scalar"])
    )
    if kind == "scalar":
        return ScalarBlock(count=draw(st.integers(1, 9)), loads=1)
    if kind == "config":
        return ConfigInstruction(Opcode.SET_DIM_COUNT, operand_a=2)
    dtype = DataType[draw(st.sampled_from(_COMPUTE_DTYPES))]
    if kind == "move":
        opcode = draw(st.sampled_from([Opcode.COPY, Opcode.CONVERT]))
        return MoveInstruction(opcode, dtype=dtype, src_dtype=DataType.INT32)
    shape = draw(st.sampled_from(_COMPUTE_SHAPES))
    mask = DimMask.EMPTY
    if shape and draw(st.booleans()):
        rows = shape[-1]
        lanes = draw(
            st.sampled_from([[True] * rows, [False] * rows, [i % 3 == 0 for i in range(rows)]])
        )
        mask = DimMask.from_lanes(lanes)
    if kind == "arith":
        opcode = Opcode[draw(st.sampled_from(_COMPUTE_OPCODES))]
        return ArithmeticInstruction(opcode, dtype=dtype, shape_lengths=shape, mask=mask)
    is_store = kind == "store" or (kind == "spill" and draw(st.booleans()))
    if kind == "random":
        opcode = Opcode.RANDOM_STORE if is_store else Opcode.RANDOM_LOAD
    else:
        opcode = Opcode.STRIDED_STORE if is_store else Opcode.STRIDED_LOAD
    return MemoryInstruction(
        opcode,
        dtype=dtype,
        is_store=is_store,
        is_random=kind == "random",
        shape_lengths=shape,
        mask=mask,
        is_spill=kind == "spill",
    )


class TestComputePassMemo:
    """``_run_compute_pass`` (one evaluation per distinct instruction
    pattern) against the per-entry loop, field by field and exactly."""

    @DIFFERENTIAL
    @given(
        st.lists(_engine_entries(), min_size=1, max_size=40),
        st.sampled_from([1.0, 1.5, 3.0]),
        st.sampled_from([1.0, 2.0]),
        st.sampled_from([0, 4, 7]),
    )
    def test_memoized_pass_matches_per_entry_loop(
        self, entries, float_factor, multiplier, dispatch
    ):
        import dataclasses

        from repro.core import default_config
        from repro.core.energy import EnergyCoefficients
        from repro.core.replay import _run_compute_pass, _StaticTrace
        from repro.sram import get_scheme
        from repro.sram.schemes import SCHEME_NAMES

        # every entry twice: the second copy hits the memo
        trace = entries + entries
        coefficients = EnergyCoefficients()
        static = _StaticTrace(trace, coefficients)
        config = dataclasses.replace(
            default_config(),
            float_latency_factor=float_factor,
            sram_cycle_multiplier=multiplier,
            controller_dispatch_cycles=dispatch,
        )
        fields = (
            "compute_durations",
            "lane_utilization",
            "cb_utilization",
            "tmu_cycles",
            "sram_row_cycles",
            "compute_nj",
        )
        for name in SCHEME_NAMES:
            scheme = get_scheme(name)
            got = _run_compute_pass(static, scheme, config, coefficients)
            want = _per_entry_compute_pass(static, scheme, config, coefficients)
            for field in fields:
                assert getattr(got, field) == getattr(want, field), (name, field)
