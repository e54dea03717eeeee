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


def _hex(value: int) -> str:
    """An address as reports and traces spell it: 0x and 16 lowercase hex digits."""
    return f"0x{value:016x}"


def parse_image(data: bytes, layout: Layout, image_base: int = 0) -> PeImage:
    """Parse a 64-bit PE byte buffer into a PeImage.

    For Layout.FILE the image base is read from the optional header and the
    argument is ignored; for Layout.LOADED the caller states the base address
    the dump was captured at, and the image must lie inside the 64-bit address
    space (OutOfRange otherwise).
    """
    if layout is Layout.LOADED and not 0 <= image_base <= (1 << 64) - len(data):
        raise OutOfRange(f"{len(data):#x} bytes at base {image_base:#x} leave the 64-bit space")
    warnings: list[str] = []
    if len(data) < 64:
        raise Truncated(f"buffer of {len(data)} bytes is shorter than a DOS header")
    if data[:2] != DOS_MAGIC:
        raise BadMagic("missing MZ signature")

    e_lfanew = struct.unpack_from("<I", data, 0x3C)[0]
    if e_lfanew + 4 > len(data) or data[e_lfanew : e_lfanew + 4] != PE_SIGNATURE:
        if e_lfanew + 4 > len(data):
            raise Truncated(f"e_lfanew {e_lfanew:#x} points past the buffer")
        raise BadMagic("missing PE signature")

    coff_off = e_lfanew + 4
    if coff_off + 20 > len(data):
        raise Truncated("COFF header extends past the buffer")
    machine, num_sections, size_of_optional = struct.unpack_from("<2H12xH", data, coff_off)
    if machine not in _MACHINES_64:
        raise Not64Bit(f"machine id {machine:#06x} is not a 64-bit architecture")

    opt_off = coff_off + 20
    opt_end = opt_off + size_of_optional
    if size_of_optional < 0x70 or opt_end > len(data):
        raise Truncated("optional header truncated")
    if struct.unpack_from("<H", data, opt_off)[0] != PE32PLUS_MAGIC:
        raise Not64Bit("optional header magic is not PE32+")

    header_image_base = struct.unpack_from("<Q", data, opt_off + 0x18)[0]
    size_of_headers = struct.unpack_from("<I", data, opt_off + 0x3C)[0]
    num_dirs = struct.unpack_from("<I", data, opt_off + 0x6C)[0]
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
        rva, size = struct.unpack_from("<2I", data, entry_off)
        if rva or size:
            directories[DataDirectory(i)] = (rva, size)

    sect_off = opt_end
    sections: list[SectionView] = []
    for i in range(num_sections):
        sh = sect_off + i * 40
        if sh + 40 > len(data):
            raise Truncated(f"section header {i} extends past the buffer")
        name = data[sh : sh + 8].rstrip(b"\x00").decode("latin-1")
        virtual_size, virtual_rva, raw_size, raw_offset = struct.unpack_from("<4I", data, sh + 8)
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


def _read_cstrings(image: PeImage, rvas: Iterable[int]) -> list[Optional[str]]:
    """The NUL-terminated latin-1 string at each RVA, in one loop.

    A string is None when its RVA is unmapped or no NUL ends it within 512
    bytes. A loaded image maps an RVA below its extent to itself, so that
    layout skips `rva_to_offset`. Each name is searched for on its own, so
    the work stays within 512 bytes per RVA however far apart the names lie.
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


def _read_cstring(image: PeImage, rva: int) -> Optional[str]:
    return _read_cstrings(image, (rva,))[0]


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
        ordinal_base, num_funcs, num_names, aof, aon, aoo = struct.unpack(
            "<6I", read_at_rva(image, dir_rva + 16, 24)
        )
    except UnmappedRva as exc:
        raise CorruptDirectory(f"export directory unreadable: {exc}") from exc

    if num_funcs > _MAX_EXPORT_COUNT or num_names > _MAX_EXPORT_COUNT:
        raise CorruptDirectory(
            f"export counts {num_funcs}/{num_names} exceed the ordinal space"
        )
    try:
        functions_raw = read_at_rva(image, aof, 4 * num_funcs)
        names_raw = read_at_rva(image, aon, 4 * num_names)
        ordinals_raw = read_at_rva(image, aoo, 2 * num_names)
    except UnmappedRva as exc:
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
    """The named, non-forwarded exports of one image, from one walk.

    `owner` maps each Nt/Zw name to the first address the name table gives
    it; an address that only repeated names reach is no stub and is logged
    once. `other` maps every other name to its first address.
    `canonical_by_rva` keys each owned address by its Zw-preferred spelling
    and is built on first use. Build the index through `PeImage.native_exports`.
    """

    def __init__(self, image: PeImage) -> None:
        self.owner: dict[str, int] = {}
        self.other: dict[str, int] = {}
        repeats: dict[int, str] = {}  # address of a repeated name -> first such name
        for name, _, rva, forwarded_to in enumerate_exports(image):
            if name is None or forwarded_to is not None:
                continue
            if not _is_native_name(name):
                self.other.setdefault(name, rva)
            elif self.owner.setdefault(name, rva) != rva:
                repeats.setdefault(rva, name)
        owned = set(self.owner.values()) if repeats else set()
        shadowed = [name for rva, name in repeats.items() if rva not in owned]
        if shadowed:
            log.warning(
                "%d export addresses are held only by repeated names; skipped (first: %s)",
                len(shadowed), shadowed[0],
            )

    @functools.cached_property
    def canonical_by_rva(self) -> dict[int, str]:
        """Per address, the least name under (not Zw, name): Zw first, then by name."""
        canonical: dict[int, str] = {}
        for name, rva in self.owner.items():
            held = canonical.get(rva)
            if held is None or (name[:2] != "Zw", name) < (held[:2] != "Zw", held):
                canonical[rva] = name
        return canonical

    def resolve(self, name: str) -> Optional[int]:
        """RVA of the Nt/Zw `name`, or of its sibling spelling when only that
        is exported; None for other names, which `other` holds."""
        rva = self.owner.get(name)
        if rva is None and _is_native_name(name):
            rva = self.owner.get(_sibling_spelling(name))
        return rva


def enumerate_imports(image: PeImage) -> list[ImportModule]:
    """Walk the import descriptors, pairing lookup-table names with IAT values."""
    directory = image.directories.get(DataDirectory.IMPORT_TABLE)
    if directory is None or directory[1] == 0:
        return []
    dir_rva = directory[0]

    modules: list[ImportModule] = []
    for idx in range(_MAX_IMPORT_DESCRIPTORS):
        desc_rva = dir_rva + idx * 20
        try:
            desc = read_at_rva(image, desc_rva, 20)
        except UnmappedRva as exc:
            raise CorruptDirectory(f"import descriptor {idx} unreadable: {exc}") from exc
        if desc == b"\x00" * 20:
            break
        lookup_rva, _, _, name_rva, iat_rva = struct.unpack("<5I", desc)

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
        for k in range(_MAX_IMPORT_SLOTS):
            try:
                lookup_val = struct.unpack("<Q", read_at_rva(image, lookup_rva + 8 * k, 8))[0]
            except UnmappedRva:
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
                bound = struct.unpack("<Q", read_at_rva(image, iat_rva + 8 * k, 8))[0]
            except UnmappedRva:
                log.warning("IAT slot %d of %r outside the buffer; skipped", k, dll_name)
                continue
            slots.append(IatSlot(name_or_ordinal, iat_rva + 8 * k, bound))
        else:
            raise CorruptDirectory(f"import thunks for {dll_name!r} do not terminate")
        modules.append(ImportModule(dll_name, tuple(slots)))
    else:
        raise CorruptDirectory("import descriptor table does not terminate")
    return modules

