from __future__ import annotations

import dataclasses
import logging
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hookscope import (
    DataDirectory,
    Layout,
    enumerate_exports,
    enumerate_imports,
    parse_image,
    rva_to_offset,
)
from hookscope.errors import (
    BadMagic,
    CorruptDirectory,
    HookscopeError,
    Not64Bit,
    OutOfRange,
    Truncated,
    UnmappedRva,
)
from hookscope.fixtures import ModuleSpec, NtdllSpec, build_synthetic_module, build_synthetic_ntdll
import hookscope.image
from hookscope.image import (
    ExportEntry,
    IatSlot,
    NativeExportIndex,
    _read_cstrings,
    offset_to_rva,
    read_at_rva,
)

from conftest import build_header_only_pe, positioned_functions


class TestParseImage:
    def test_file_layout_directory_map(self):
        # executable whose bound-address directory sits at 0x267E8, size 0x900
        data = build_header_only_pe(
            directories={12: (0x267E8, 0x900)},
            sections=[(".rdata", 0x26000, 0x2000, 0x400, 0x2000)],
            total_size=0x2400,
        )
        image = parse_image(data, Layout.FILE)
        assert image.directories[DataDirectory.IAT] == (0x267E8, 0x900)
        assert image.image_base == 0x140000000

    def test_loaded_layout_directory_map(self):
        data = build_header_only_pe(
            directories={12: (0x1E48B8, 0x1688)},
            sections=[(".rdata", 0x1E4000, 0x2000, 0x1E4000, 0x2000)],
            total_size=0x1E6000,
        )
        image = parse_image(data, Layout.LOADED, image_base=0x00007FFEAFBD0000)
        assert image.directories[DataDirectory.IAT] == (0x1E48B8, 0x1688)
        assert image.image_base == 0x00007FFEAFBD0000

    @pytest.mark.parametrize(
        "base, fits",
        [(0, True), ((1 << 64) - 0x400, True), (-1, False), ((1 << 64) - 0x3FF, False)],
    )
    def test_loaded_image_lies_inside_64_bits(self, base, fits):
        data = build_header_only_pe()
        assert len(data) == 0x400
        if fits:
            assert parse_image(data, Layout.LOADED, base).image_base == base
        else:
            with pytest.raises(OutOfRange):
                parse_image(data, Layout.LOADED, base)
        # the file layout reads its base from the header and ignores the argument
        assert parse_image(data, Layout.FILE, base).image_base == 0x140000000

    def test_63_byte_buffer_truncated(self):
        with pytest.raises(Truncated):
            parse_image(b"MZ" + b"\x00" * 61, Layout.FILE)

    def test_missing_mz(self):
        with pytest.raises(BadMagic):
            parse_image(b"ZZ" + b"\x00" * 100, Layout.FILE)

    def test_missing_pe_signature(self):
        data = bytearray(build_header_only_pe())
        data[0x40:0x44] = b"XX\x00\x00"
        with pytest.raises(BadMagic):
            parse_image(bytes(data), Layout.FILE)

    def test_32bit_machine_rejected(self):
        with pytest.raises(Not64Bit):
            parse_image(build_header_only_pe(machine=0x14C), Layout.FILE)

    def test_pe32_magic_rejected(self):
        with pytest.raises(Not64Bit):
            parse_image(build_header_only_pe(magic=0x10B), Layout.FILE)

    def test_unmappable_directory_dropped_with_warning(self):
        data = build_header_only_pe(directories={0: (0x900000, 0x100)})
        image = parse_image(data, Layout.FILE)
        assert DataDirectory.EXPORT_TABLE not in image.directories
        assert any("unmappable" in w for w in image.warnings)


class TestRvaMapping:
    def test_loaded_identity(self):
        data = build_header_only_pe(total_size=0x30000)
        image = parse_image(data, Layout.LOADED, image_base=0x7FF700000000)
        assert rva_to_offset(image, 0x267E8) == 0x267E8

    def test_file_section_arithmetic(self):
        # section at rva 0x1000 backed by raw bytes at 0x400: rva 0x1010 -> 0x410
        data = build_header_only_pe(
            sections=[(".text", 0x1000, 0x200, 0x400, 0x200)], total_size=0x600
        )
        image = parse_image(data, Layout.FILE)
        assert rva_to_offset(image, 0x1010) == 0x410

    def test_file_offset_matches_hex_dump(self):
        data = bytearray(
            build_header_only_pe(
                sections=[(".text", 0x1000, 0x200, 0x400, 0x200)], total_size=0x600
            )
        )
        data[0x410] = 0xAB
        image = parse_image(bytes(data), Layout.FILE)
        off = rva_to_offset(image, 0x1010)
        assert image.data[off] == 0xAB

    def test_rva_beyond_sections(self):
        data = build_header_only_pe(
            sections=[(".text", 0x1000, 0x200, 0x400, 0x200)], total_size=0x600
        )
        image = parse_image(data, Layout.FILE)
        with pytest.raises(UnmappedRva):
            rva_to_offset(image, 0x5000)

    @given(st.integers(min_value=0, max_value=0x1FF))
    def test_roundtrip_within_section(self, delta):
        data = build_header_only_pe(
            sections=[(".text", 0x1000, 0x200, 0x400, 0x200)], total_size=0x600
        )
        image = parse_image(data, Layout.FILE)
        rva = 0x1000 + delta
        assert offset_to_rva(image, rva_to_offset(image, rva)) == rva

    @given(st.integers(min_value=0, max_value=0x3FFF))
    def test_roundtrip_loaded(self, rva):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(8)))
        rva = rva % image.extent
        assert offset_to_rva(image, rva_to_offset(image, rva)) == rva


class TestEnumerateExports:
    def test_478_native_exports(self, clean_478_ntdll):
        entries = enumerate_exports(clean_478_ntdll)
        named = [e for e in entries if e.name]
        assert len(named) == 478
        assert all(e.name.startswith("Zw") for e in named)

    def test_zero_size_directory_empty(self):
        data = build_header_only_pe()
        image = parse_image(data, Layout.FILE)
        assert enumerate_exports(image) == []

    def test_forwarder_flagged_inside_directory_bounds(self):
        spec = NtdllSpec(
            functions=positioned_functions(3),
            forwarders=(("ZwForwarded", "other.ZwElsewhere"),),
        )
        image = build_synthetic_ntdll(spec)
        entries = enumerate_exports(image)
        fwd = [e for e in entries if e.name == "ZwForwarded"]
        assert len(fwd) == 1
        assert fwd[0].forwarded_to == "other.ZwElsewhere"
        dir_rva, dir_size = image.directories[DataDirectory.EXPORT_TABLE]
        assert dir_rva <= fwd[0].rva < dir_rva + dir_size
        regular = [e for e in entries if e.name == "ZwFiller0000"][0]
        assert regular.forwarded_to is None

    def test_name_table_order_preserved(self):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=(("ZwZeta", 0), ("ZwAlpha", 1), ("NtMid", 2)))
        )
        names = [e.name for e in enumerate_exports(image) if e.name]
        assert names == sorted(names)

    @staticmethod
    def _with_name_rvas(image, rvas):
        """A copy of `image` whose first name-table entries point at `rvas`."""
        dir_rva, _ = image.directories[DataDirectory.EXPORT_TABLE]
        aon = struct.unpack_from("<I", image.data, dir_rva + 32)[0]
        data = bytearray(image.data)
        for j, rva in enumerate(rvas):
            struct.pack_into("<I", data, aon + 4 * j, rva)
        return data

    def test_unreadable_names_log_one_summary(self, caplog):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(6)))
        data = self._with_name_rvas(image, [0xFFFFFF00 + j for j in range(3)])
        broken = parse_image(bytes(data), Layout.LOADED, image.image_base)
        with caplog.at_level(logging.WARNING, logger="hookscope.image"):
            entries = enumerate_exports(broken)
        assert len([e for e in entries if e.name]) == 3
        [record] = caplog.records
        assert record.args[:3] == (3, "have an unreadable name rva", 0)
        assert "3 export names" in record.getMessage()

    def test_one_summary_per_skip_kind(self, caplog):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(6)))
        data = self._with_name_rvas(image, [0xFFFFFF00])
        dir_rva, _ = image.directories[DataDirectory.EXPORT_TABLE]
        aoo = struct.unpack_from("<I", data, dir_rva + 36)[0]
        for j in (2, 4):
            struct.pack_into("<H", data, aoo + 2 * j, 0xFFFF)
        broken = parse_image(bytes(data), Layout.LOADED, image.image_base)
        with caplog.at_level(logging.WARNING, logger="hookscope.image"):
            enumerate_exports(broken)
        assert [r.args[:3] for r in caplog.records] == [
            (1, "have an unreadable name rva", 0),
            (2, "have an ordinal index out of range", 2),
        ]

    def test_far_apart_names_build_no_per_byte_list(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(2)))
        far = len(image.data) + 0x100000
        data = self._with_name_rvas(image, [far])
        data += bytes(far - len(data)) + b"ZwFar\x00" + bytes(0x100)
        spaced = parse_image(bytes(data), Layout.LOADED, image.image_base)
        tracemalloc.start()
        try:
            entries = enumerate_exports(spaced)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(e.name for e in entries if e.name) == ["ZwFar", "ZwFiller0001"]
        assert peak < len(data) // 16


def reference_read_cstring(image, rva):
    """The NUL-terminated name at one RVA, or None when the RVA is unmapped
    or no NUL ends it within 512 bytes."""
    try:
        off = rva_to_offset(image, rva)
    except UnmappedRva:
        return None
    nul = image.data.find(b"\x00", off, min(image.extent, off + 512))
    if nul < 0:
        return None
    return image.data[off:nul].decode("latin-1")


def reference_enumerate_exports(image):
    """The export walk as a plain loop (a set of named slots, a forwarder
    helper, an unconditional ordinal-only pass); `enumerate_exports` must
    return the same entries and log the same records."""
    log = logging.getLogger("hookscope.image")
    dir_rva, dir_size = image.directories[DataDirectory.EXPORT_TABLE]
    ordinal_base, num_funcs, num_names, aof, aon, aoo = struct.unpack(
        "<6I", read_at_rva(image, dir_rva + 16, 24)
    )
    functions = struct.unpack(f"<{num_funcs}I", read_at_rva(image, aof, 4 * num_funcs))
    name_rvas = struct.unpack(f"<{num_names}I", read_at_rva(image, aon, 4 * num_names))
    ordinals = struct.unpack(f"<{num_names}H", read_at_rva(image, aoo, 2 * num_names))
    dir_end = dir_rva + dir_size

    def _forward(rva):
        if dir_rva <= rva < dir_end:
            return reference_read_cstring(image, rva)
        return None

    entries = []
    named_slots = set()
    skipped = {}
    for j, (name, ord_idx) in enumerate(zip(_read_cstrings(image, name_rvas), ordinals)):
        if name is None:
            reason = "have an unreadable name rva"
        elif ord_idx >= num_funcs:
            reason = "have an ordinal index out of range"
        elif functions[ord_idx] == 0:
            reason = "map to an empty function slot"
        else:
            rva = functions[ord_idx]
            named_slots.add(ord_idx)
            entries.append(ExportEntry(name, ordinal_base + ord_idx, rva, _forward(rva)))
            continue
        if reason in skipped:
            skipped[reason][0] += 1
        else:
            skipped[reason] = [1, j, name_rvas[j]]
    for reason, (count, j, name_rva) in skipped.items():
        log.warning(
            "%d export names %s; skipped (first: name %d at rva %#x)", count, reason, j, name_rva
        )

    for i, rva in enumerate(functions):
        if rva == 0 or i in named_slots:
            continue
        entries.append(ExportEntry(None, ordinal_base + i, rva, _forward(rva)))
    return entries


def reference_owner(entries, native=True):
    """Each named, non-forwarded export's first address, in name-table order:
    the Nt/Zw names, or with `native=False` every other name."""
    owner = {}
    for e in entries:
        if isinstance(e.name, str) and (e.name[:2] in ("Nt", "Zw")) == native:
            if e.forwarded_to is None:
                owner.setdefault(e.name, e.rva)
    return owner


def reference_canonical(named):
    """Per address, the least Zw name, else the least name; in first-seen order."""
    names_by_rva: dict[int, list[str]] = {}
    for name, rva in named:
        names_by_rva.setdefault(rva, []).append(name)
    canonical = {}
    for rva, names in names_by_rva.items():
        zw = sorted(n for n in names if n.startswith("Zw"))
        canonical[rva] = zw[0] if zw else sorted(names)[0]
    return canonical


# Random export directories live in one section at RVA 0x1000-0x3000: the
# directory header at 0x1000 with forwarder strings up to its end at 0x1400,
# then the function, name and ordinal arrays, the names, and code RVAs.
_EXPORT_DIR = (0x1000, 0x400)
_FORWARDERS = {0x1100 + 0x20 * k: f"other.Fwd{k}" for k in range(4)}
_NAME_TEXTS = ["ZwOpen", "NtOpen", "ZwClose", "NtClose", "NtQuery", "RtlInit", "Zw", ""]
_NAMES = {0x1800 + 0x20 * k: name for k, name in enumerate(_NAME_TEXTS)}
_FUNCS, _NAME_RVAS, _ORDINALS = 0x1400, 0x1500, 0x1600


@st.composite
def export_directories(draw):
    num_funcs = draw(st.integers(0, 10))
    num_names = draw(st.integers(0, 10))
    # Few code RVAs, so that several slots (and Nt/Zw spellings) share one.
    function_rva = (
        st.sampled_from([0, *_FORWARDERS, 0x1000, 0x13FF, 0x1400])
        | st.sampled_from([0x2000, 0x2020])
        | st.integers(0x2000, 0x2FFF)
    )
    name_rva = (
        st.sampled_from(list(_NAMES))
        | st.sampled_from(list(_NAMES)[:4])
        | st.sampled_from([0x1801, 0xFFFFFF00])
        | st.integers(0, 0x3100)
    )
    functions = draw(st.lists(function_rva, min_size=num_funcs, max_size=num_funcs))
    name_rvas = draw(st.lists(name_rva, min_size=num_names, max_size=num_names))
    # Low ordinals often, so that several names share a slot.
    ordinal = st.integers(0, 1) | st.integers(0, num_funcs + 1) | st.just(0xFFFF)
    ordinals = draw(st.lists(ordinal, min_size=num_names, max_size=num_names))
    layout = draw(st.sampled_from([Layout.LOADED, Layout.FILE]))

    virtual = bytearray(
        build_header_only_pe(
            directories={0: _EXPORT_DIR},
            sections=[(".edata", 0x1000, 0x2000, 0x400, 0x2000)],
            total_size=0x3000,
        )
    )
    struct.pack_into(
        "<6I", virtual, 0x1000 + 16, draw(st.integers(0, 3)), num_funcs, num_names,
        _FUNCS, _NAME_RVAS, _ORDINALS,
    )
    struct.pack_into(f"<{num_funcs}I", virtual, _FUNCS, *functions)
    struct.pack_into(f"<{num_names}I", virtual, _NAME_RVAS, *name_rvas)
    struct.pack_into(f"<{num_names}H", virtual, _ORDINALS, *ordinals)
    for rva, text in {**_FORWARDERS, **_NAMES}.items():
        virtual[rva : rva + len(text) + 1] = text.encode() + b"\x00"
    # The file layout holds the section at raw offset 0x400, not at its RVA.
    data = virtual if layout is Layout.LOADED else virtual[:0x400] + virtual[0x1000:]
    return parse_image(bytes(data), layout, 0x7FFE00000000)


_NAME_LENGTHS = (0, 1, 7, 511, 512, 513)


def _string_image(layout, fill, plants):
    """An image filled with `fill`, with NUL-terminated names planted at
    buffer offsets; `plants` are (offset, name length) pairs."""
    if layout is Layout.LOADED:
        data = bytearray(build_header_only_pe(total_size=0x2000))
    else:
        data = bytearray(
            build_header_only_pe(
                sections=[
                    (".text", 0x1000, 0x900, 0x400, 0x600),  # uninitialized tail
                    (".rdata", 0x2000, 0x800, 0xA00, 0x800),
                    (".data", 0x4000, 0, 0x1200, 0x600),  # raw size only
                ],
                total_size=0x1800,
            )
        )
    data[0x400:] = bytes([fill]) * (len(data) - 0x400)
    for offset, length in plants:
        name = b"N" * length + b"\x00"
        data[offset : offset + len(name)] = name
    # Plants may run past the end; keep the buffer's size and a tail with no NUL.
    del data[0x2000 if layout is Layout.LOADED else 0x1800 :]
    data[-3:] = b"xyz"
    return parse_image(bytes(data), layout, 0x7FFE00000000)


class TestExportWalkMatchesReference:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=150)
    @given(image=export_directories())
    def test_entries_logs_and_index(self, caplog, image):
        def walk(enumerate_):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hookscope.image"):
                entries = enumerate_(image)
            return entries, [(r.name, r.levelno, r.msg, r.args) for r in caplog.records]

        expected, expected_records = walk(reference_enumerate_exports)
        assert walk(enumerate_exports) == (expected, expected_records)

        owner = reference_owner(expected)
        index, records = walk(NativeExportIndex)
        assert list(index.owner.items()) == list(owner.items())
        assert list(index.other.items()) == list(reference_owner(expected, native=False).items())
        # The index walks once more, then logs the addresses no name owns.
        owned = set(owner.values())
        lost = [
            e for e in expected if e.name in owner and e.forwarded_to is None and e.rva not in owned
        ]
        assert records[: len(expected_records)] == expected_records
        shadow_args = [args for *_, args in records[len(expected_records) :]]
        assert shadow_args == ([(len({e.rva for e in lost}), lost[0].name)] if lost else [])
        assert all(index.resolve(name) == rva for name, rva in owner.items())
        assert list(index.canonical_by_rva.items()) == list(
            reference_canonical(owner.items()).items()
        )

    def test_directories_cover_every_case(self):
        """The strategy reaches each skip kind, forwarders and ordinal-only slots."""
        seen = set()

        @settings(max_examples=100, database=None, derandomize=True)
        @given(image=export_directories())
        def collect(image):
            with mock.patch.object(hookscope.image.log, "warning") as warn:
                entries = enumerate_exports(image)
            seen.update(call.args[2] for call in warn.call_args_list)
            seen.update("forwarder" for e in entries if e.forwarded_to is not None)
            seen.update("ordinal-only" for e in entries if e.name is None)

        collect()
        assert seen == {
            "have an unreadable name rva",
            "have an ordinal index out of range",
            "map to an empty function slot",
            "forwarder",
            "ordinal-only",
        }


class TestRecords:
    """`ExportEntry` and `IatSlot` are small immutable value records."""

    @pytest.mark.parametrize(
        "record, fields",
        [
            (
                ExportEntry("ZwOpen", 3, 0x1020, "other.Open"),
                ("name", "ordinal", "rva", "forwarded_to"),
            ),
            (
                IatSlot("NtClose", 0x2008, 0x7FFE00001040),
                ("imported_name", "iat_rva", "bound_value"),
            ),
        ],
    )
    def test_value_record_contract(self, record, fields):
        kind = type(record)
        values = tuple(getattr(record, field) for field in fields)
        assert kind._fields == fields
        assert tuple(record) == values
        assert kind(*values) == record and kind(**dict(zip(fields, values))) == record
        assert kind(*values[:-1], 0) != record
        assert hash(record) == hash(values) == hash(kind(*values))
        assert len({record, kind(*values)}) == 1
        with pytest.raises(AttributeError):
            setattr(record, fields[0], "changed")
        assert not hasattr(record, "__dict__")
        assert record._replace(**{fields[-1]: 0})[-1] == 0
        assert kind.__doc__.startswith("One ")

    def test_export_entry_forwarder_defaults_to_none(self):
        assert ExportEntry("ZwOpen", 3, 0x1020).forwarded_to is None


class TestReadCstrings:
    """The batched name reader answers exactly as the per-RVA reference."""

    @given(
        layout=st.sampled_from([Layout.LOADED, Layout.FILE]),
        fill=st.sampled_from([0x00, 0x41]),
        plants=st.lists(
            st.tuples(st.integers(0x400, 0x1FF0), st.sampled_from(_NAME_LENGTHS)), max_size=5
        ),
        data=st.data(),
    )
    def test_matches_per_rva_reference(self, layout, fill, plants, data):
        image = _string_image(layout, fill, plants)
        interesting = [0, image.extent - 1, image.extent, 0xFFFFFFFF]
        interesting += [0x1000, 0x1600, 0x18FF, 0x2000, 0x27FF, 0x3000, 0x4000, 0x45FF, 0x4600]
        for offset, length in plants:
            for at in (offset, offset + length // 2, offset + length):
                try:
                    interesting.append(offset_to_rva(image, at))
                except UnmappedRva:
                    interesting.append(at)
        rvas = data.draw(
            st.lists(st.integers(0, 0x5000) | st.sampled_from(interesting), max_size=40)
        )
        assert _read_cstrings(image, rvas) == [reference_read_cstring(image, rva) for rva in rvas]

    @pytest.mark.parametrize("layout", [Layout.LOADED, Layout.FILE])
    def test_name_length_bound(self, layout):
        plants = [(0x500, 511), (0x800, 512), (0xB00, 513)]
        image = _string_image(layout, 0x41, plants)
        rvas = [offset_to_rva(image, offset) for offset, _ in plants]
        assert _read_cstrings(image, rvas) == ["N" * 511, None, None]


class TestNativeExportIndex:
    @staticmethod
    def _ntdll():
        return build_synthetic_ntdll(
            NtdllSpec(
                functions=positioned_functions(4, {1: "NtOpenFile"}),
                forwarders=(("ZwForwarded", "other.ZwElsewhere"),),
                alias_both_prefixes=True,
            )
        )

    def test_built_once_per_image(self, monkeypatch):
        image = self._ntdll()
        walks = []
        real = hookscope.image.enumerate_exports
        monkeypatch.setattr(
            hookscope.image, "enumerate_exports", lambda img: walks.append(img) or real(img)
        )
        index = image.native_exports
        assert image.native_exports is index
        assert walks == [image]

    def test_owner_keeps_name_table_order_and_aliases(self):
        image = self._ntdll()
        index = image.native_exports
        assert list(index.owner.items()) == list(reference_owner(enumerate_exports(image)).items())
        assert len(index.owner) == 8  # four stubs, each under both spellings
        rva = index.resolve("NtOpenFile")
        assert rva == index.resolve("ZwOpenFile") == index.owner["NtOpenFile"]
        assert index.canonical_by_rva[rva] == "ZwOpenFile"
        assert "ZwForwarded" not in index.owner
        assert index.resolve("ZwAbsent") is None

    def test_replaced_image_gets_a_fresh_index(self):
        image = self._ntdll()
        before = image.native_exports
        assert image.data.count(b"ZwFiller0002\x00") == 1
        data = image.data.replace(b"ZwFiller0002\x00", b"ZwRenamed002\x00")
        renamed = dataclasses.replace(image, data=data)
        assert renamed.native_exports is not before
        assert "ZwRenamed002" in renamed.native_exports.owner
        assert "ZwFiller0002" not in renamed.native_exports.owner
        assert image.native_exports is before
        assert "ZwFiller0002" in before.owner

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["Nt", "Zw"]),
                st.sampled_from(["Close", "Open", "OpenFile", "OpenProcess", "Query"]),
                st.integers(0x1000, 0x1004),
            ),
            max_size=24,
        )
    )
    def test_canonical_matches_sorted_rule(self, aliases):
        entries = [ExportEntry(p + stem, i, rva) for i, (p, stem, rva) in enumerate(aliases)]
        with mock.patch.object(hookscope.image, "enumerate_exports", lambda image: entries):
            index = NativeExportIndex(self._ntdll())
        expected = reference_canonical(reference_owner(entries).items())
        assert list(index.canonical_by_rva.items()) == list(expected.items())


class TestEnumerateImports:
    def _module(self, imports, tamper=None):
        resolver = {pair: 0x7FFE10000000 + 0x20 * i for i, pair in enumerate(imports)}
        return (
            build_synthetic_module(
                ModuleSpec(name="m", imports=tuple(imports), tamper=tamper or {}), resolver
            ),
            resolver,
        )

    def test_bound_value_matches_resolver(self):
        imports = [("ntdll.dll", "NtCreateUserProcess")]
        resolver = {("ntdll.dll", "NtCreateUserProcess"): 0x00007FFEB258E8E0}
        image = build_synthetic_module(
            ModuleSpec(name="kernelbase", imports=tuple(imports)), resolver
        )
        [module] = enumerate_imports(image)
        assert module.dll_name == "ntdll.dll"
        [slot] = module.slots
        assert slot.imported_name == "NtCreateUserProcess"
        assert slot.bound_value == 0x00007FFEB258E8E0

    def test_no_imports_empty(self):
        image = build_synthetic_module(ModuleSpec(name="m", imports=()), {})
        assert enumerate_imports(image) == []

    def test_three_slots_in_declaration_order(self):
        imports = [("ntdll.dll", "NtC"), ("ntdll.dll", "NtA"), ("ntdll.dll", "NtB")]
        image, resolver = self._module(imports)
        [module] = enumerate_imports(image)
        assert [s.imported_name for s in module.slots] == ["NtC", "NtA", "NtB"]
        assert [s.bound_value for s in module.slots] == [resolver[p] for p in imports]

    def test_slots_inside_iat_directory(self):
        imports = [("ntdll.dll", "NtA"), ("other.dll", "SomeFn")]
        image, _ = self._module(imports)
        iat_rva, iat_size = image.directories[DataDirectory.IAT]
        for module in enumerate_imports(image):
            for slot in module.slots:
                assert iat_rva <= slot.iat_rva < iat_rva + iat_size

    def test_ordinal_import_kept_as_int(self):
        imports = [("ntdll.dll", 7)]
        image, resolver = self._module(imports)
        [module] = enumerate_imports(image)
        assert module.slots[0].imported_name == 7

    @pytest.mark.parametrize(
        "bound, message",
        [
            ("_MAX_IMPORT_DESCRIPTORS", "import descriptor table does not terminate"),
            ("_MAX_IMPORT_SLOTS", "import thunks for 'ntdll.dll' do not terminate"),
        ],
    )
    def test_walk_bounds_are_exact(self, monkeypatch, bound, message):
        # Two descriptors of two slots each: a bound of two leaves no room
        # for the terminating entry, a bound of three just fits it.
        imports = [("ntdll.dll", "NtA"), ("ntdll.dll", "NtB"), ("a.dll", "F"), ("a.dll", "G")]
        image, _ = self._module(imports)
        monkeypatch.setattr(hookscope.image, bound, 3)
        assert len(enumerate_imports(image)) == 2
        monkeypatch.setattr(hookscope.image, bound, 2)
        with pytest.raises(CorruptDirectory, match=message):
            enumerate_imports(image)


class TestParseTotality:
    @given(st.binary(max_size=200))
    def test_arbitrary_small_buffers(self, data):
        try:
            parse_image(data, Layout.FILE)
        except HookscopeError:
            pass

    @given(st.integers(min_value=0, max_value=0x3FF), st.integers(min_value=0, max_value=255))
    def test_single_byte_header_corruption(self, offset, value):
        data = bytearray(
            build_header_only_pe(sections=[(".text", 0x1000, 0x200, 0x400, 0x200)], total_size=0x600)
        )
        data[offset] = value
        try:
            image = parse_image(bytes(data), Layout.FILE)
            enumerate_exports(image)
            enumerate_imports(image)
        except HookscopeError:
            pass
