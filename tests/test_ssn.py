from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hookscope import (
    SsnSearchParams,
    derive_ssn_by_sort,
    derive_ssn_neighbors,
    find_syscall_instruction,
    hash_name,
    read_clean_ssn,
    resolve_ssns,
)
from hookscope.errors import NoCleanNeighbor, NoZwExports, SsnOutOfRange
from hookscope.fixtures import (
    GarbageHook,
    JmpRel32Hook,
    NtdllSpec,
    build_synthetic_ntdll,
)

from conftest import EXPECTED_TABLE, NTDLL_BASE, positioned_functions

PARAMS = SsnSearchParams()


class TestReadCleanSsn:
    @pytest.mark.parametrize(
        "prologue,expected",
        [
            (bytes.fromhex("4c8bd1b806000000"), 6),  # NtReadFile
            (bytes.fromhex("4c8bd1b808000000"), 8),  # NtWriteFile
            (bytes.fromhex("4c8bd1b8ba000000"), 0xBA),  # NtCreateProcess
            (bytes.fromhex("4c8bd1b8c9000000"), 0xC9),  # NtCreateUserProcess, 201
        ],
    )
    def test_known_stub_encodings(self, prologue, expected):
        assert read_clean_ssn(prologue) == expected

    def test_jump_prologue_absent(self):
        assert read_clean_ssn(bytes.fromhex("e9f81b1600cccccc")) is None

    def test_short_buffer_absent(self):
        assert read_clean_ssn(b"\x4c\x8b\xd1") is None

    def test_nonzero_high_word_absent(self):
        assert read_clean_ssn(bytes.fromhex("4c8bd1b806000100")) is None

    @given(st.integers(min_value=0, max_value=0xFFFF), st.binary(min_size=8, max_size=8))
    def test_tail_bytes_ignored(self, ssn, tail):
        import struct

        prologue = b"\x4c\x8b\xd1\xb8" + struct.pack("<I", ssn)
        assert read_clean_ssn(prologue + tail) == ssn
        assert read_clean_ssn(prologue) == ssn


class TestNeighborDerivation:
    def test_hooked_between_clean_neighbors(self):
        # hooked stub flanked by intact stubs numbered 7 and 9
        spec = NtdllSpec(
            functions=(
                ("ZwDeviceIoControlFile", 7),
                ("NtWriteFile", 8),
                ("ZwRemoveIoCompletion", 9),
            ),
            hooks={"NtWriteFile": JmpRel32Hook(0x8000)},
        )
        image = build_synthetic_ntdll(spec)
        entry = image.image_base + 0x1000 + 1 * 32
        assert derive_ssn_neighbors(image, entry, PARAMS) == 8

    def test_clean_stub_read_directly(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtReadFile", 6),)))
        assert derive_ssn_neighbors(image, image.image_base + 0x1000, PARAMS) == 6

    def test_all_neighbors_hooked(self):
        # hooked block wider than twice max_neighbours around the probe
        count = 16
        functions = positioned_functions(count)
        hooks = {name: GarbageHook() for name, _ in functions}
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        params = SsnSearchParams(max_neighbours=4)
        with pytest.raises(NoCleanNeighbor):
            derive_ssn_neighbors(image, image.image_base + 0x1000 + 8 * 32, params)

    def test_adjustment_crosses_byte_boundary(self):
        # neighbor number 0x100 one stride below: the whole 16-bit number is
        # decremented, not just its low byte
        functions = (("NtEdge", 0xFF), ("ZwAbove", 0x100))
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"NtEdge": GarbageHook()})
        )
        assert derive_ssn_neighbors(image, image.image_base + 0x1000, PARAMS) == 0xFF

    @pytest.mark.parametrize(
        "functions, hooked",
        [
            # clean 0 one stride below derives 0 - 1
            ((("NtHooked", 1), ("ZwBelow", 0)), 0),
            # clean 0xFFFF one stride above derives 0xFFFF + 1
            ((("ZwAbove", 0xFFFF), ("NtHooked", 1)), 1),
        ],
    )
    def test_derived_number_outside_16_bits_is_typed_error(self, functions, hooked):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"NtHooked": GarbageHook()})
        )
        with pytest.raises(SsnOutOfRange):
            derive_ssn_neighbors(image, image.image_base + 0x1000 + hooked * 32, PARAMS)

    def test_downward_neighbor_preferred_at_equal_distance(self):
        # both direct neighbors clean: the one at the higher address is
        # checked first, and either yields the same answer
        functions = positioned_functions(5)
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"ZwFiller0002": GarbageHook()})
        )
        assert derive_ssn_neighbors(image, image.image_base + 0x1000 + 2 * 32, PARAMS) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_hook_subsets_match_ground_truth(self, data):
        count = 64
        functions = positioned_functions(count)
        hook_flags = data.draw(
            st.lists(st.booleans(), min_size=count, max_size=count).filter(
                lambda flags: not all(flags)
            )
        )
        hooks = {
            name: GarbageHook() for (name, _), flag in zip(functions, hook_flags) if flag
        }
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks), seed=11)
        for i, (name, ssn) in enumerate(functions):
            derived = derive_ssn_neighbors(
                image, image.image_base + 0x1000 + i * 32, PARAMS
            )
            assert derived == ssn


class TestFindSyscallInstruction:
    def test_anchor_create_user_process(self, scenario_ntdll):
        found = find_syscall_instruction(scenario_ntdll, 0x00007FFEB258E8E0, PARAMS)
        assert found == 0x00007FFEB258E8F2

    def test_anchor_write_file(self):
        # stub numbered 8 placed at the documented address in a dedicated image
        spec = NtdllSpec(functions=positioned_functions(10), base_rva=0x9CFD0)
        image = build_synthetic_ntdll(spec, image_base=NTDLL_BASE)
        found = find_syscall_instruction(image, 0x00007FFEB258D0D0, PARAMS)
        assert found == 0x00007FFEB258D0E2

    def test_absent_in_zero_window(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(2)))
        # scan inside the zero padding past the export data
        start = image.image_base + image.extent - 0x200
        assert find_syscall_instruction(image, start, PARAMS) is None

    def test_scan_limit_respected(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(2)))
        params = SsnSearchParams(syscall_scan_limit=0x12)
        # window ends one byte before the opcode pair
        assert find_syscall_instruction(image, image.image_base + 0x1000, params) is None

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=0x10))
    def test_earlier_pair_lowers_result(self, insert_at):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(1)))
        baseline = find_syscall_instruction(image, image.image_base + 0x1000, PARAMS)
        buf = bytearray(image.data)
        if insert_at + 2 <= 0x12:
            buf[0x1000 + insert_at : 0x1000 + insert_at + 2] = b"\x0f\x05"
        import dataclasses

        patched = dataclasses.replace(image, data=bytes(buf))
        moved = find_syscall_instruction(patched, patched.image_base + 0x1000, PARAMS)
        assert moved is not None and baseline is not None
        assert moved <= baseline


class TestSortDerivation:
    def test_positions_follow_addresses(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(12)))
        mapping = derive_ssn_by_sort(image)
        for name, ssn in positioned_functions(12):
            assert mapping[name] == ssn

    def test_single_export(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("ZwOnly", 0),)))
        assert derive_ssn_by_sort(image) == {"ZwOnly": 0}

    def test_reference_pairs_reproduced(self, scenario_ntdll):
        mapping = derive_ssn_by_sort(scenario_ntdll)
        for name, ssn in EXPECTED_TABLE:
            assert mapping[name] == ssn

    def test_no_zw_exports(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtOnly", 0),)))
        with pytest.raises(NoZwExports):
            derive_ssn_by_sort(image)

    def test_agrees_with_clean_reads(self, clean_478_ntdll):
        mapping = derive_ssn_by_sort(clean_478_ntdll)
        assert len(mapping) == 478
        for i, name in enumerate(sorted(mapping)):
            rva = 0x1000 + i * 32
            assert read_clean_ssn(clean_478_ntdll.data[rva : rva + 8]) == mapping[name]


class TestHashName:
    def test_single_byte(self):
        assert hash_name("A") == 0x41

    def test_pinned_value(self):
        # frozen from an independent run of the rotate-add recurrence
        assert hash_name("NtReadFile") == 0x84F424810008B095

    def test_case_sensitive(self):
        assert hash_name("ntreadfile") != hash_name("NtReadFile")

    def test_distinct_over_fixture_names(self):
        names = [name for name, _ in positioned_functions(478)]
        hashes = {hash_name(n) for n in names}
        assert len(hashes) == len(names)

    def test_stable_across_calls(self):
        assert hash_name("ZwOpenProcess") == hash_name("ZwOpenProcess")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hash_name("")

    def test_hashes_raw_latin1_bytes(self):
        # Export names are decoded as latin-1, so the hash must re-encode them
        # as latin-1 to run over the bytes in the image.
        assert hash_name(b"Zw\xe9Open".decode("latin-1")) == 0x84901C009E0E90A9
        with pytest.raises(ValueError):
            hash_name("Zw\u0100Open")


def test_thousand_random_subsets_all_derive(clean_478_ntdll):
    """Randomized neighbor-derivation sweep over one prebuilt clean image,
    hooking by direct byte stamping for speed."""
    import dataclasses

    rng = random.Random(0xC0FFEE)
    base = clean_478_ntdll.image_base
    clean = clean_478_ntdll.data
    failures = 0
    for _ in range(200):
        p = rng.uniform(0.05, 0.85)
        hooked = [i for i in range(478) if rng.random() < p]
        if len(hooked) == 478:
            hooked.pop()
        buf = bytearray(clean)
        for i in hooked:
            off = 0x1000 + i * 32
            buf[off : off + 8] = b"\x68\x11\x22\x33\x44\xc3\x90\x90"
        image = dataclasses.replace(clean_478_ntdll, data=bytes(buf))
        for i in hooked:
            got = derive_ssn_neighbors(image, base + 0x1000 + i * 32, PARAMS)
            if got != i:
                failures += 1
    assert failures == 0


@st.composite
def positional_ntdlls(draw):
    """A ntdll whose stub i has number i, with random jump and garbage hooks
    (at least one stub clean), Nt/Zw names and aliases, and forwarders; with
    its spec."""
    count = draw(st.integers(1, 40))
    prefixes = draw(st.lists(st.sampled_from(["Nt", "Zw"]), min_size=count, max_size=count))
    names = [f"{prefix}Stub{i:02d}" for i, prefix in enumerate(prefixes)]
    kinds = draw(
        st.lists(st.sampled_from([None, "jmp", "garbage"]), min_size=count, max_size=count)
        .filter(lambda kinds: None in kinds)
    )
    hook_of = {"jmp": JmpRel32Hook(0x150000), "garbage": GarbageHook()}
    fwd_prefixes = draw(st.lists(st.sampled_from(["Nt", "Zw"]), max_size=3))
    spec = NtdllSpec(
        functions=tuple((name, i) for i, name in enumerate(names)),
        hooks={name: hook_of[kind] for name, kind in zip(names, kinds) if kind},
        alias_both_prefixes=draw(st.booleans()),
        forwarders=tuple(
            (f"{prefix}Fwd{j}", f"other.{prefix}Fwd{j}") for j, prefix in enumerate(fwd_prefixes)
        ),
    )
    seed = draw(st.integers(0, 9))
    return build_synthetic_ntdll(spec, image_base=NTDLL_BASE, seed=seed), spec


class TestRouteOracle:
    """`resolve_ssns` on every route against the fixture's ground truth."""

    @given(fixture=positional_ntdlls())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_routes_match_ground_truth(self, fixture):
        image, spec = fixture

        def shown(name: str) -> str:  # the Zw-preferred spelling of a stub
            return "Zw" + name[2:] if spec.alias_both_prefixes else name

        truth = {shown(name): ssn for name, ssn in spec.functions}
        hooked = sorted(shown(name) for name in spec.hooks)
        clean = {name: ssn for name, ssn in truth.items() if name not in hooked}
        zw = [name for name in truth if name.startswith("Zw")]

        assert resolve_ssns(image, "halos", PARAMS) == (truth, hooked)
        assert resolve_ssns(image, "prologue", PARAMS) == (clean, [])
        if not zw:
            with pytest.raises(NoZwExports):
                resolve_ssns(image, "sort", PARAMS)
            return
        # Sort numbers the Zw stubs by address; with every stub Zw-named that
        # is the true number, name for name.
        by_sort, derived = resolve_ssns(image, "sort", PARAMS)
        assert (by_sort, derived) == ({name: rank for rank, name in enumerate(zw)}, [])
        if len(zw) == len(truth):
            assert by_sort == truth
