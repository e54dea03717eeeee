"""64-bit PE image model: headers, sections, RVA mapping, export/import views.

Parses both on-disk files and loaded-image dumps into an immutable PeImage.
All reads are bounds-checked; any malformed input yields a typed error from
errors.py, never an unbounded read or an uncaught exception.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (
    BadMagic,
    BadSectionTable,
    CorruptDirectory,
    Not64Bit,
    OutOfRange,
    Truncated,
    UnmappedRva,
    WrongLayout,
)

log = logging.getLogger(__name__)

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
PE32PLUS_MAGIC = 0x20B

# Machine ids accepted as 64-bit.
MACHINE_AMD64 = 0x8664
MACHINE_ARM64 = 0xAA64
_MACHINES_64 = frozenset({MACHINE_AMD64, MACHINE_ARM64})

_ORDINAL_FLAG64 = 1 << 63
_MAX_NAME_LEN = 512
_MAX_EXPORT_COUNT = 0x10000
_MAX_IMPORT_DESCRIPTORS = 4096
_MAX_IMPORT_SLOTS = 0x10000


class Layout(Enum):
    """Whether section data sits at raw file offsets or at virtual addresses."""

    FILE = "file"
    LOADED = "loaded"


class DataDirectory(IntEnum):
    EXPORT_TABLE = 0
    IMPORT_TABLE = 1
    RESOURCE_TABLE = 2
    EXCEPTION_TABLE = 3
    CERTIFICATE_TABLE = 4
    BASE_RELOCATION_TABLE = 5
    DEBUG = 6
    ARCHITECTURE = 7
    GLOBAL_PTR = 8
    TLS_TABLE = 9
    LOAD_CONFIG_TABLE = 10
    BOUND_IMPORT = 11
    IAT = 12
    DELAY_IMPORT_DESCRIPTOR = 13
    CLR_RUNTIME_HEADER = 14
    RESERVED = 15


@dataclass(frozen=True)
class SectionView:
    name: str
    virtual_rva: int
    virtual_size: int
    raw_offset: int
    raw_size: int


class ExportEntry(NamedTuple):
    """One export-directory entry; name is None for ordinal-only exports."""

    name: Optional[str]
    ordinal: int
    rva: int
    forwarded_to: Optional[str] = None


class IatSlot(NamedTuple):
    """One import slot: the name (or ordinal) it resolves plus the bound value."""

    imported_name: Union[str, int]
    iat_rva: int
    bound_value: int


@dataclass(frozen=True)
class ImportModule:
    dll_name: str
    slots: tuple[IatSlot, ...]


@dataclass(frozen=True)
class PeImage:
    """Parsed 64-bit PE image. Immutable after parse; safe to share."""

    data: bytes
    layout: Layout
    image_base: int
    sections: tuple[SectionView, ...]
    directories: Mapping[DataDirectory, tuple[int, int]]
    machine: int
    headers_size: int
    warnings: tuple[str, ...] = ()

    @property
    def extent(self) -> int:
        return len(self.data)

    @functools.cached_property
    def native_exports(self) -> NativeExportIndex:
        """The Nt/Zw export index, built on first use and kept with this image.

        `dataclasses.replace` returns a new image, which builds its own.
        """
        return NativeExportIndex(self)


def _u16(data: bytes, off: int) -> int:
    if off < 0 or off + 2 > len(data):
        raise Truncated(f"u16 read at {off:#x} past end ({len(data):#x})")
    return struct.unpack_from("<H", data, off)[0]


def _u32(data: bytes, off: int) -> int:
    if off < 0 or off + 4 > len(data):
        raise Truncated(f"u32 read at {off:#x} past end ({len(data):#x})")
    return struct.unpack_from("<I", data, off)[0]


def _u64(data: bytes, off: int) -> int:
    if off < 0 or off + 8 > len(data):
        raise Truncated(f"u64 read at {off:#x} past end ({len(data):#x})")
    return struct.unpack_from("<Q", data, off)[0]


def _hex(value: int) -> str:
    """An address as reports and traces spell it: 0x and 16 lowercase hex digits."""
    return f"0x{value:016x}"


def parse_image(data: bytes, layout: Layout, image_base: int = 0) -> PeImage:
    """Parse a 64-bit PE byte buffer into a PeImage.

    For Layout.FILE the image base is read from the optional header and the
    argument is ignored; for Layout.LOADED the caller states the base address
    the dump was captured at.
    """
    warnings: list[str] = []
    if len(data) < 64:
        raise Truncated(f"buffer of {len(data)} bytes is shorter than a DOS header")
    if data[:2] != DOS_MAGIC:
        raise BadMagic("missing MZ signature")

    e_lfanew = _u32(data, 0x3C)
    if e_lfanew + 4 > len(data) or data[e_lfanew : e_lfanew + 4] != PE_SIGNATURE:
        if e_lfanew + 4 > len(data):
            raise Truncated(f"e_lfanew {e_lfanew:#x} points past the buffer")
        raise BadMagic("missing PE signature")

    coff_off = e_lfanew + 4
    if coff_off + 20 > len(data):
        raise Truncated("COFF header extends past the buffer")
    machine = _u16(data, coff_off)
    num_sections = _u16(data, coff_off + 2)
    size_of_optional = _u16(data, coff_off + 16)
    if machine not in _MACHINES_64:
        raise Not64Bit(f"machine id {machine:#06x} is not a 64-bit architecture")

    opt_off = coff_off + 20
    opt_end = opt_off + size_of_optional
    if size_of_optional < 0x70 or opt_end > len(data):
        raise Truncated("optional header truncated")
    if _u16(data, opt_off) != PE32PLUS_MAGIC:
        raise Not64Bit("optional header magic is not PE32+")

    header_image_base = _u64(data, opt_off + 0x18)
    size_of_headers = _u32(data, opt_off + 0x3C)
    num_dirs = _u32(data, opt_off + 0x6C)
    if num_dirs > 16:
        warnings.append(f"NumberOfRvaAndSizes {num_dirs} clamped to 16")
        num_dirs = 16

    directories: dict[DataDirectory, tuple[int, int]] = {}
    dd_off = opt_off + 0x70
    for i in range(num_dirs):
        entry_off = dd_off + i * 8
        if entry_off + 8 > opt_end:
            warnings.append(f"data directory {i} extends past the optional header")
            break
        rva = _u32(data, entry_off)
        size = _u32(data, entry_off + 4)
        if rva or size:
            directories[DataDirectory(i)] = (rva, size)

    sect_off = opt_end
    sections: list[SectionView] = []
    for i in range(num_sections):
        sh = sect_off + i * 40
        if sh + 40 > len(data):
            raise Truncated(f"section header {i} extends past the buffer")
        name = data[sh : sh + 8].rstrip(b"\x00").decode("latin-1")
        virtual_size = _u32(data, sh + 8)
        virtual_rva = _u32(data, sh + 12)
        raw_size = _u32(data, sh + 16)
        raw_offset = _u32(data, sh + 20)
        if raw_offset > len(data):
            warnings.append(f"section {name!r} raw offset past buffer; treated as empty")
            raw_offset, raw_size = 0, 0
        elif raw_offset + raw_size > len(data):
            warnings.append(f"section {name!r} raw range clamped to the buffer")
            raw_size = len(data) - raw_offset
        sections.append(SectionView(name, virtual_rva, virtual_size, raw_offset, raw_size))

    sections.sort(key=lambda s: s.virtual_rva)
    prev_end = 0
    for s in sections:
        span = max(s.virtual_size, s.raw_size)
        if span == 0:
            continue
        if s.virtual_rva < prev_end:
            raise BadSectionTable(f"section {s.name!r} overlaps the previous section")
        prev_end = s.virtual_rva + span

    headers_size = size_of_headers
    min_headers = sect_off + num_sections * 40
    if headers_size == 0 or headers_size < min_headers:
        headers_size = min_headers
    headers_size = min(headers_size, len(data))

    base = header_image_base if layout is Layout.FILE else image_base

    image = PeImage(
        data=bytes(data),
        layout=layout,
        image_base=base,
        sections=tuple(sections),
        directories=directories,
        machine=machine,
        headers_size=headers_size,
        warnings=(),
    )

    # Keep only directory entries that actually resolve; scanners must survive
    # images whose directory table lies.
    kept: dict[DataDirectory, tuple[int, int]] = {}
    for kind, (rva, size) in directories.items():
        if size != 0:
            try:
                rva_to_offset(image, rva)
            except UnmappedRva:
                warnings.append(f"directory {kind.name} RVA {rva:#x} is unmappable; dropped")
                continue
        kept[kind] = (rva, size)

    return dataclasses.replace(image, directories=kept, warnings=tuple(warnings))


def rva_to_offset(image: PeImage, rva: int) -> int:
    """Map an RVA to a byte offset in the image buffer."""
    if rva < 0:
        raise UnmappedRva(f"negative rva {rva:#x}")
    if image.layout is Layout.LOADED:
        if rva < image.extent:
            return rva
        raise UnmappedRva(f"rva {rva:#x} past loaded extent {image.extent:#x}")
    if rva < image.headers_size:
        return rva
    for s in image.sections:
        span = s.virtual_size if s.virtual_size else s.raw_size
        if s.virtual_rva <= rva < s.virtual_rva + span:
            delta = rva - s.virtual_rva
            if delta >= s.raw_size:
                raise UnmappedRva(f"rva {rva:#x} in uninitialized tail of {s.name!r}")
            return s.raw_offset + delta
    raise UnmappedRva(f"rva {rva:#x} in no section and past headers")


def offset_to_rva(image: PeImage, offset: int) -> int:
    """Inverse of rva_to_offset for offsets that lie in a mapped region."""
    if offset < 0 or offset >= image.extent:
        raise UnmappedRva(f"offset {offset:#x} outside the buffer")
    if image.layout is Layout.LOADED:
        return offset
    if offset < image.headers_size:
        return offset
    for s in image.sections:
        if s.raw_size and s.raw_offset <= offset < s.raw_offset + s.raw_size:
            return s.virtual_rva + (offset - s.raw_offset)
    raise UnmappedRva(f"offset {offset:#x} belongs to no section")


def read_at_rva(image: PeImage, rva: int, length: int) -> bytes:
    """Read exactly `length` bytes at an RVA, staying inside one mapped region."""
    if length < 0:
        raise OutOfRange(f"negative length {length}")
    off = rva_to_offset(image, rva)
    end = rva_to_offset(image, rva + length - 1) if length else off
    if length and end != off + length - 1:
        raise UnmappedRva(f"range {rva:#x}+{length:#x} spans unmapped bytes")
    return image.data[off : off + length]


def read_bytes_at_va(image: PeImage, va: int, length: int) -> bytes:
    """Read bytes at a virtual address from a loaded-layout image."""
    if image.layout is not Layout.LOADED:
        raise WrongLayout("virtual-address reads require a loaded-layout image")
    if length < 0:
        raise OutOfRange(f"negative length {length}")
    if va < image.image_base:
        raise OutOfRange(f"va {va:#x} below image base {image.image_base:#x}")
    off = va - image.image_base
    if off + length > image.extent:
        raise OutOfRange(f"va {va:#x}+{length:#x} past mapped extent")
    return image.data[off : off + length]


def _read_cstring(image: PeImage, rva: int) -> Optional[str]:
    try:
        off = rva_to_offset(image, rva)
    except UnmappedRva:
        return None
    nul = image.data.find(b"\x00", off, min(image.extent, off + _MAX_NAME_LEN))
    if nul < 0:
        return None
    return image.data[off:nul].decode("latin-1")


def _read_cstrings(image: PeImage, rvas: Iterable[int]) -> list[Optional[str]]:
    """`[_read_cstring(image, rva) for rva in rvas]`, in one loop.

    A loaded image maps an RVA below its extent to itself, so that layout
    skips `rva_to_offset`. Each name is searched for on its own, so the work
    stays within 512 bytes per RVA however far apart the names lie.
    """
    data = image.data
    find = data.find
    extent = image.extent
    loaded = image.layout is Layout.LOADED
    names: list[Optional[str]] = []
    for rva in rvas:
        if loaded:
            off = rva if 0 <= rva < extent else -1
        else:
            try:
                off = rva_to_offset(image, rva)
            except UnmappedRva:
                off = -1
        nul = find(b"\x00", off, off + _MAX_NAME_LEN) if off >= 0 else -1
        names.append(data[off:nul].decode("latin-1") if nul >= 0 else None)
    return names


def enumerate_exports(image: PeImage) -> list[ExportEntry]:
    """Resolve the export directory into entries, flagging forwarders.

    Named entries come first in stored name-table order, then ordinal-only
    function slots. Named entries that cannot be resolved are skipped; each
    kind of skip is logged once per walk, with its count and first instance.
    """
    directory = image.directories.get(DataDirectory.EXPORT_TABLE)
    if directory is None or directory[1] == 0:
        return []
    dir_rva, dir_size = directory
    try:
        ordinal_base = _u32(read_at_rva(image, dir_rva + 16, 4), 0)
        num_funcs = _u32(read_at_rva(image, dir_rva + 20, 4), 0)
        num_names = _u32(read_at_rva(image, dir_rva + 24, 4), 0)
        aof = _u32(read_at_rva(image, dir_rva + 28, 4), 0)
        aon = _u32(read_at_rva(image, dir_rva + 32, 4), 0)
        aoo = _u32(read_at_rva(image, dir_rva + 36, 4), 0)
    except (Truncated, UnmappedRva) as exc:
        raise CorruptDirectory(f"export directory unreadable: {exc}") from exc

    if num_funcs > _MAX_EXPORT_COUNT or num_names > _MAX_EXPORT_COUNT:
        raise CorruptDirectory(
            f"export counts {num_funcs}/{num_names} exceed the ordinal space"
        )
    try:
        functions_raw = read_at_rva(image, aof, 4 * num_funcs)
        names_raw = read_at_rva(image, aon, 4 * num_names)
        ordinals_raw = read_at_rva(image, aoo, 2 * num_names)
    except (Truncated, UnmappedRva) as exc:
        raise CorruptDirectory(f"export tables inconsistent with buffer: {exc}") from exc

    functions = struct.unpack(f"<{num_funcs}I", functions_raw)
    name_rvas = struct.unpack(f"<{num_names}I", names_raw)
    ordinals = struct.unpack(f"<{num_names}H", ordinals_raw)
    dir_end = dir_rva + dir_size

    entries: list[ExportEntry] = []
    append = entries.append
    named_slots = bytearray(num_funcs)
    # Skip reason -> [count, first name index, its name rva], logged once each.
    skipped: dict[str, list[int]] = {}
    for j, (name, ord_idx) in enumerate(zip(_read_cstrings(image, name_rvas), ordinals)):
        if name is None:
            reason = "have an unreadable name rva"
        elif ord_idx >= num_funcs:
            reason = "have an ordinal index out of range"
        else:
            rva = functions[ord_idx]
            if rva == 0:
                reason = "map to an empty function slot"
            else:
                named_slots[ord_idx] = 1
                forwarded_to = _read_cstring(image, rva) if dir_rva <= rva < dir_end else None
                append(ExportEntry(name, ordinal_base + ord_idx, rva, forwarded_to))
                continue
        if reason in skipped:
            skipped[reason][0] += 1
        else:
            skipped[reason] = [1, j, name_rvas[j]]
    for reason, (count, j, name_rva) in skipped.items():
        log.warning(
            "%d export names %s; skipped (first: name %d at rva %#x)", count, reason, j, name_rva
        )

    if named_slots.count(0):
        for i, (rva, named) in enumerate(zip(functions, named_slots)):
            if rva and not named:
                forwarded_to = _read_cstring(image, rva) if dir_rva <= rva < dir_end else None
                append(ExportEntry(None, ordinal_base + i, rva, forwarded_to))
    return entries


def _is_native_name(name: object) -> bool:
    return isinstance(name, str) and name.startswith(("Nt", "Zw"))


def _sibling_spelling(name: str) -> Optional[str]:
    """The other spelling of an Nt/Zw name (NtFoo <-> ZwFoo), else None."""
    if name.startswith("Zw"):
        return "Nt" + name[2:]
    if name.startswith("Nt"):
        return "Zw" + name[2:]
    return None


class NativeExportIndex:
    """The named, non-forwarded Nt/Zw exports of one image, from one walk.

    `named` keeps (name, rva) in name-table order, duplicates included;
    `canonical_by_rva` keys each address by its Zw-preferred spelling and is
    built on first use. Use `PeImage.native_exports` rather than building
    one directly.
    """

    def __init__(self, image: PeImage) -> None:
        self.named: list[tuple[str, int]] = [
            (name, rva)
            for name, _, rva, forwarded_to in enumerate_exports(image)
            if forwarded_to is None and _is_native_name(name)
        ]
        self.name_to_rva: dict[str, int] = dict(self.named)

    @functools.cached_property
    def canonical_by_rva(self) -> dict[int, str]:
        """Per address, the least name under (not Zw, name): Zw first, then by name."""
        canonical: dict[int, str] = {}
        for name, rva in self.named:
            held = canonical.get(rva)
            if held is None or (name[:2] != "Zw", name) < (held[:2] != "Zw", held):
                canonical[rva] = name
        return canonical

    def resolve(self, name: str) -> Optional[int]:
        """RVA of `name`, or of its sibling spelling when only that is exported."""
        rva = self.name_to_rva.get(name)
        if rva is None:
            sibling = _sibling_spelling(name)
            if sibling is not None:
                rva = self.name_to_rva.get(sibling)
        return rva


def enumerate_imports(image: PeImage) -> list[ImportModule]:
    """Walk the import descriptors, pairing lookup-table names with IAT values."""
    directory = image.directories.get(DataDirectory.IMPORT_TABLE)
    if directory is None or directory[1] == 0:
        return []
    dir_rva = directory[0]

    modules: list[ImportModule] = []
    for idx in range(_MAX_IMPORT_DESCRIPTORS + 1):
        if idx == _MAX_IMPORT_DESCRIPTORS:
            raise CorruptDirectory("import descriptor table does not terminate")
        desc_rva = dir_rva + idx * 20
        try:
            desc = read_at_rva(image, desc_rva, 20)
        except (Truncated, UnmappedRva) as exc:
            raise CorruptDirectory(f"import descriptor {idx} unreadable: {exc}") from exc
        if desc == b"\x00" * 20:
            break
        lookup_rva = struct.unpack_from("<I", desc, 0)[0]
        name_rva = struct.unpack_from("<I", desc, 12)[0]
        iat_rva = struct.unpack_from("<I", desc, 16)[0]

        dll_name = _read_cstring(image, name_rva)
        if dll_name is None:
            log.warning("import descriptor %d has unreadable dll name; skipped", idx)
            continue
        if iat_rva == 0:
            log.warning("import descriptor %r has no bound address table; skipped", dll_name)
            continue
        if lookup_rva == 0:
            lookup_rva = iat_rva

        slots: list[IatSlot] = []
        for k in range(_MAX_IMPORT_SLOTS + 1):
            if k == _MAX_IMPORT_SLOTS:
                raise CorruptDirectory(f"import thunks for {dll_name!r} do not terminate")
            try:
                lookup_val = _u64(read_at_rva(image, lookup_rva + 8 * k, 8), 0)
            except (Truncated, UnmappedRva):
                log.warning("lookup table for %r truncated at slot %d", dll_name, k)
                break
            if lookup_val == 0:
                break
            name_or_ordinal: Union[str, int]
            if lookup_val & _ORDINAL_FLAG64:
                name_or_ordinal = lookup_val & 0xFFFF
            else:
                imported = _read_cstring(image, (lookup_val & 0x7FFFFFFF) + 2)
                if imported is None:
                    log.warning("import name for %r slot %d unreadable; skipped", dll_name, k)
                    continue
                name_or_ordinal = imported
            try:
                bound = _u64(read_at_rva(image, iat_rva + 8 * k, 8), 0)
            except (Truncated, UnmappedRva):
                log.warning("IAT slot %d of %r outside the buffer; skipped", k, dll_name)
                continue
            slots.append(IatSlot(name_or_ordinal, iat_rva + 8 * k, bound))
        modules.append(ImportModule(dll_name, tuple(slots)))
    return modules

