from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, strategies as st

from hookscope import (
    BASE_FUNCTIONS,
    RewriteConfig,
    SsnSearchParams,
    SyscallInfo,
    SyscallList,
    assign_stub_slots,
    build_syscall_list,
    deserialize_list,
    hash_name,
    serialize_list,
)
from hookscope.errors import (
    MalformedBlob,
    MissingBaseFunction,
    OutOfRange,
    SsnOutOfRange,
    TableFull,
)
from hookscope.fixtures import GarbageHook, NtdllSpec, build_synthetic_ntdll
from hookscope.table import LIST_ENTRY_SIZE, STUB_ENTRY_SIZE, debug_dump

from conftest import EXPECTED_TABLE, STUB_BASE, positioned_functions

PARAMS = SsnSearchParams()

BASE_SSNS = {
    "ZwOpenProcess": 38,
    "ZwProtectVirtualMemory": 80,
    "ZwReadVirtualMemory": 63,
    "ZwWriteVirtualMemory": 58,
    "ZwAllocateVirtualMemory": 24,
    "ZwDelayExecution": 52,
}


def minimal_base_image(**kwargs):
    named = {ssn: name for name, ssn in BASE_SSNS.items()}
    return build_synthetic_ntdll(
        NtdllSpec(functions=positioned_functions(96, named), **kwargs)
    )


class TestBuild:
    def test_reference_scenario_pairs(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        rows = debug_dump(table, scenario_ntdll)
        assert [(r["name"], r["ssn"]) for r in rows] == EXPECTED_TABLE
        assert rows[2]["name"] == "ZwCreateUserProcess"
        assert table.entries[2].ssn == 201

    def test_reference_entry_addresses(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        entry = table.entries[2]
        assert entry.address == 0x00007FFEB258E8E0
        assert entry.syscall_ret == 0x00007FFEB258E8F2

    def test_clean_image_yields_only_base_six(self):
        table = build_syscall_list(minimal_base_image(), PARAMS)
        assert table.count == 6
        names = [r["name"] for r in debug_dump(table, minimal_base_image())]
        assert names == sorted(BASE_SSNS)

    def test_base_indices_recorded_in_declared_order(self):
        image = minimal_base_image()
        table = build_syscall_list(image, PARAMS)
        rows = debug_dump(table, image)
        for slot, name in zip(table.base_indices, BASE_FUNCTIONS):
            assert rows[slot]["name"] == name
            assert table.entries[slot].name_hash == hash_name(name)

    def test_extra_names_included(self):
        image = minimal_base_image()
        table = build_syscall_list(image, PARAMS, extra_names=["ZwFiller0002"])
        assert table.count == 7

    def test_missing_extra_name(self):
        with pytest.raises(MissingBaseFunction):
            build_syscall_list(minimal_base_image(), PARAMS, extra_names=["ZwNope"])

    def test_missing_base_function(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(8)))
        with pytest.raises(MissingBaseFunction):
            build_syscall_list(image, PARAMS)

    def test_base_resolves_via_nt_spelling(self):
        named = {ssn: "Nt" + name[2:] for name, ssn in BASE_SSNS.items()}
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(96, named)))
        table = build_syscall_list(image, PARAMS)
        assert table.count == 6
        # entries keyed by the only spelling present
        assert {r["name"] for r in debug_dump(table, image)} == {
            "Nt" + n[2:] for n in BASE_SSNS
        }

    def test_hooked_base_function_yields_single_entry(self):
        named = {ssn: name for name, ssn in BASE_SSNS.items()}
        image = build_synthetic_ntdll(
            NtdllSpec(
                functions=positioned_functions(96, named),
                hooks={"ZwOpenProcess": GarbageHook()},
            )
        )
        table = build_syscall_list(image, PARAMS)
        assert table.count == 6
        idx = table.base_indices[0]
        assert table.entries[idx].ssn == 38  # derived from neighbors despite the hook

    def test_alias_collapse_single_entry(self):
        named = {ssn: name for name, ssn in BASE_SSNS.items()}
        image = build_synthetic_ntdll(
            NtdllSpec(functions=positioned_functions(96, named), alias_both_prefixes=True)
        )
        table = build_syscall_list(image, PARAMS)
        assert table.count == 6

    def test_hooked_functions_swell_table(self):
        named = {ssn: name for name, ssn in BASE_SSNS.items()}
        image = build_synthetic_ntdll(
            NtdllSpec(
                functions=positioned_functions(96, named),
                hooks={"ZwFiller0002": GarbageHook(), "ZwFiller0007": GarbageHook()},
            )
        )
        table = build_syscall_list(image, PARAMS)
        assert table.count == 8

    def test_table_full(self):
        named = {ssn: name for name, ssn in BASE_SSNS.items()}
        functions = positioned_functions(600, named)
        hooks = {
            name: GarbageHook()
            for name, _ in functions
            if name.startswith("ZwFiller") and int(name[-4:]) < 540
        }
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        with pytest.raises(TableFull):
            build_syscall_list(image, PARAMS)

    def test_deterministic_blob(self, scenario_ntdll):
        a = serialize_list(build_syscall_list(scenario_ntdll, PARAMS))
        b = serialize_list(build_syscall_list(scenario_ntdll, PARAMS))
        assert a == b

    def test_no_clean_neighbor_propagates(self):
        from hookscope.errors import NoCleanNeighbor

        named = {ssn: name for name, ssn in BASE_SSNS.items()}
        hooks = {
            name: GarbageHook()
            for name in ("ZwFiller0036", "ZwFiller0037", "ZwOpenProcess",
                         "ZwFiller0039", "ZwFiller0040")
        }
        image = build_synthetic_ntdll(
            NtdllSpec(functions=positioned_functions(96, named), hooks=hooks)
        )
        with pytest.raises(NoCleanNeighbor):
            build_syscall_list(image, SsnSearchParams(max_neighbours=2))

    def test_negative_derived_ssn_is_typed_error(self):
        # a hooked stub followed by a clean stub whose immediate is 0
        functions = (("ZwAccessCheck", 1), ("ZwAddAtom", 0)) + tuple(
            (name, 2 + i) for i, name in enumerate(BASE_FUNCTIONS)
        )
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"ZwAccessCheck": GarbageHook()})
        )
        with pytest.raises(SsnOutOfRange):
            build_syscall_list(image, PARAMS)


class TestStubSlots:
    def _table(self, count):
        entries = tuple(
            SyscallInfo(ssn=i, address=0x1000 + i, syscall_ret=0x2000 + i, stub_slot=0, name_hash=i)
            for i in range(count)
        )
        return SyscallList(entries=entries, base_indices=(0,) * 6)

    def test_slot_zero_is_base(self):
        table = assign_stub_slots(self._table(1), RewriteConfig(stub_base=0x7FF700000000))
        assert table.entries[0].stub_slot == 0x7FF700000000

    def test_slot_two(self):
        table = assign_stub_slots(self._table(3), RewriteConfig(stub_base=STUB_BASE))
        assert table.entries[2].stub_slot == STUB_BASE + 0x28
        assert table.entries[2].stub_slot == 0x00007FF7BE5D7C44

    def test_slot_eleven(self):
        table = assign_stub_slots(self._table(12), RewriteConfig(stub_base=STUB_BASE))
        assert table.entries[11].stub_slot == STUB_BASE + 0xDC

    def test_slot_past_64_bits_is_typed_error(self):
        config = RewriteConfig(stub_base=2**64 - 0x28)
        assert config.stub_slot(1) == 2**64 - 0x14
        with pytest.raises(OutOfRange):
            config.stub_slot(2)
        with pytest.raises(OutOfRange):
            assign_stub_slots(self._table(3), config)

    def test_config_sizes_pinned(self):
        assert LIST_ENTRY_SIZE == 0x28
        assert STUB_ENTRY_SIZE == 0x14
        config = RewriteConfig(stub_base=STUB_BASE)
        for i in (0, 1, 2, 11, 511):
            assert config.stub_slot(i) == STUB_BASE + i * 0x14
        with pytest.raises(TypeError):
            RewriteConfig(stub_base=0, list_entry_size=0x28)
        with pytest.raises(TypeError):
            RewriteConfig(stub_base=0, stub_entry_size=0x14)
        with pytest.raises(TypeError):
            RewriteConfig(stub_base=0, table_va=0)


entry_strategy = st.builds(
    SyscallInfo,
    ssn=st.integers(min_value=0, max_value=0xFFFF),
    address=st.integers(min_value=0, max_value=(1 << 64) - 1),
    syscall_ret=st.integers(min_value=0, max_value=(1 << 64) - 1),
    stub_slot=st.integers(min_value=0, max_value=(1 << 64) - 1),
    name_hash=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
table_strategy = st.builds(
    SyscallList,
    entries=st.lists(entry_strategy, max_size=24).map(tuple),
    base_indices=st.lists(
        st.integers(min_value=0, max_value=511), min_size=6, max_size=6
    ).map(tuple),
)


class TestSerialization:
    def test_empty_list_is_56_bytes(self):
        table = SyscallList(entries=(), base_indices=(0,) * 6)
        assert len(serialize_list(table)) == 56

    def test_twelve_entries_is_536_bytes(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        assert table.count == 12
        assert len(serialize_list(table)) == 536

    @given(table_strategy)
    def test_roundtrip(self, table):
        assert deserialize_list(serialize_list(table)) == table

    def test_record_stride_and_field_offsets(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        blob = serialize_list(table)
        for i, entry in enumerate(table.entries):
            record = 8 + i * LIST_ENTRY_SIZE
            assert struct.unpack_from("<Q", blob, record)[0] == entry.ssn
            assert struct.unpack_from("<Q", blob, record + 0x10)[0] == entry.syscall_ret

    def test_syscall_ret_points_at_opcode_pair(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        for entry in table.entries:
            off = entry.syscall_ret - scenario_ntdll.image_base
            assert scenario_ntdll.data[off : off + 2] == b"\x0f\x05"
            assert entry.address < entry.syscall_ret
            assert entry.syscall_ret - entry.address <= PARAMS.syscall_scan_limit

    @pytest.mark.parametrize("size", [0, 8, 55, 57, 100, 8 + 40 + 48 + 1])
    def test_malformed_lengths(self, size):
        with pytest.raises(MalformedBlob):
            deserialize_list(b"\x00" * size)

    def test_impossible_count(self):
        blob = struct.pack("<Q", 10_000) + b"\x00" * 48
        with pytest.raises(MalformedBlob):
            deserialize_list(blob)

    @pytest.mark.parametrize("field", ["ssn", "address", "syscall_ret", "stub_slot", "name_hash"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_field_outside_64_bits_is_typed_error(self, field, value):
        entry = SyscallInfo(ssn=1, address=2, syscall_ret=3, stub_slot=4, name_hash=5)
        entries = (dataclasses.replace(entry, **{field: value}),)
        with pytest.raises(OutOfRange):
            serialize_list(SyscallList(entries=entries, base_indices=(0,) * 6))

    def test_base_index_outside_64_bits_is_typed_error(self):
        with pytest.raises(OutOfRange):
            serialize_list(SyscallList(entries=(), base_indices=(0, 0, 0, 0, 0, -1)))

    def test_capacity_rejected_in_constructor(self):
        entries = tuple(
            SyscallInfo(ssn=i, address=i, syscall_ret=i + 1, stub_slot=0, name_hash=i)
            for i in range(513)
        )
        with pytest.raises(TableFull):
            SyscallList(entries=entries, base_indices=(0,) * 6)


class TestDebugDump:
    def test_columns(self, scenario_ntdll):
        table = build_syscall_list(scenario_ntdll, PARAMS)
        rows = debug_dump(table, scenario_ntdll)
        assert set(rows[0]) == {"index", "name", "ssn", "address", "hash"}
        assert rows[2]["address"] == "0x00007ffeb258e8e0"
        assert rows[2]["hash"] == f"0x{hash_name('ZwCreateUserProcess'):016x}"
