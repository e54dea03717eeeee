"""Bounded per-function syscall table: build, slot assignment, serialization.

Each record carries the service number, the stub's address, the address of
the syscall instruction that follows it, the interception-slot address it
will be dispatched through, and a hash of the function name (the name itself
is not stored). The serialized layout is load-bearing: downstream dispatch
arithmetic reads records at a fixed 0x28 stride with the syscall address at
in-record offset 0x10.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedBlob, MissingBaseFunction, OutOfRange, SyscallNotFound, TableFull
from .image import PeImage, _hex
from .ssn import (
    SsnSearchParams,
    derive_ssn_neighbors,
    find_syscall_instruction,
    hash_name,
    read_stubs,
)

MAX_ENTRIES = 512
LIST_ENTRY_SIZE = 0x28
STUB_ENTRY_SIZE = 0x14
_HEADER_SIZE = 8
_BASE_INDEX_COUNT = 6
_TRAILER_SIZE = 8 * _BASE_INDEX_COUNT

# Always included, in the order their table indices are published.
BASE_FUNCTIONS = (
    "ZwOpenProcess",
    "ZwProtectVirtualMemory",
    "ZwReadVirtualMemory",
    "ZwWriteVirtualMemory",
    "ZwAllocateVirtualMemory",
    "ZwDelayExecution",
)


@dataclass(frozen=True)
class SyscallInfo:
    ssn: int
    address: int
    syscall_ret: int
    stub_slot: int
    name_hash: int


@dataclass(frozen=True)
class SyscallList:
    entries: tuple[SyscallInfo, ...]
    base_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) > MAX_ENTRIES:
            raise TableFull(f"{len(self.entries)} entries exceed capacity {MAX_ENTRIES}")
        if len(self.base_indices) != _BASE_INDEX_COUNT:
            raise ValueError(f"expected {_BASE_INDEX_COUNT} base indices")

    @property
    def count(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RewriteConfig:
    """Dispatch-side address of the first interception slot (sizes are fixed)."""

    stub_base: int

    def stub_slot(self, index: int) -> int:
        """Address of the interception slot that dispatches table entry `index`.

        A slot address outside 64 bits raises OutOfRange.
        """
        slot = self.stub_base + index * STUB_ENTRY_SIZE
        if not 0 <= slot < 1 << 64:
            raise OutOfRange(f"stub slot {index} at {slot:#x} is not a 64-bit address")
        return slot


def make_entry(
    ntdll: PeImage,
    rva: int,
    canonical_name: str,
    params: SsnSearchParams,
    stub_slot: int = 0,
) -> SyscallInfo:
    """Resolve one export into a table record (number, syscall site, hash)."""
    va = ntdll.image_base + rva
    ssn = derive_ssn_neighbors(ntdll, va, params)
    syscall_ret = find_syscall_instruction(ntdll, va, params)
    if syscall_ret is None or syscall_ret == va:
        raise SyscallNotFound(f"no syscall instruction after {canonical_name} at {va:#x}")
    return SyscallInfo(
        ssn=ssn,
        address=va,
        syscall_ret=syscall_ret,
        stub_slot=stub_slot,
        name_hash=hash_name(canonical_name),
    )


def build_syscall_list(
    ntdll: PeImage,
    params: SsnSearchParams,
    extra_names: Iterable[str] = (),
) -> SyscallList:
    """Build the table over an ntdll image.

    Includes the six base functions unconditionally (either spelling must
    resolve), every requested extra name, and every stub `read_stubs` reads
    as hooked. Nt/Zw spellings of one address collapse to a single entry
    keyed by the Zw name, and entries are ordered as the export name table
    orders them: lexicographically.
    """
    stubs = read_stubs(ntdll)
    index = ntdll.native_exports
    included = {rva: index.canonical_by_rva[rva] for rva, ssn in stubs.items() if ssn is None}
    named_rvas: list[int] = []
    for name in (*BASE_FUNCTIONS, *extra_names):
        rva = index.resolve(name)
        if rva is None:
            raise MissingBaseFunction(f"{name} absent from exports")
        included[rva] = index.canonical_by_rva[rva]
        named_rvas.append(rva)

    if len(included) > MAX_ENTRIES:
        raise TableFull(f"{len(included)} candidate functions exceed capacity {MAX_ENTRIES}")

    ordered = sorted(included.items(), key=lambda item: item[1])
    entries = tuple(
        make_entry(ntdll, rva, canonical, params) for rva, canonical in ordered
    )
    rva_to_index = {rva: i for i, (rva, _) in enumerate(ordered)}
    base_indices = tuple(rva_to_index[rva] for rva in named_rvas[:_BASE_INDEX_COUNT])
    return SyscallList(entries=entries, base_indices=base_indices)


def assign_stub_slots(table: SyscallList, config: RewriteConfig) -> SyscallList:
    """Point every entry at its interception slot: base + index * entry size.

    The slot index is the sole link between a slot and its record.
    """
    entries = tuple(
        dataclasses.replace(e, stub_slot=config.stub_slot(i))
        for i, e in enumerate(table.entries)
    )
    return SyscallList(entries=entries, base_indices=table.base_indices)


def serialize_list(table: SyscallList) -> bytes:
    """Little-endian blob: count, then 0x28-byte records, then six base indices.

    A field that is not an unsigned 64-bit integer raises OutOfRange.
    """
    try:
        out = bytearray(struct.pack("<Q", table.count))
        for e in table.entries:
            out += struct.pack(
                "<QQQQQ", e.ssn, e.address, e.syscall_ret, e.stub_slot, e.name_hash
            )
        out += struct.pack("<6Q", *table.base_indices)
    except struct.error as exc:
        raise OutOfRange(f"table field is not an unsigned 64-bit integer: {exc}") from exc
    return bytes(out)


def deserialize_list(blob: bytes) -> SyscallList:
    """Exact inverse of serialize_list; any length mismatch is malformed."""
    if len(blob) < _HEADER_SIZE + _TRAILER_SIZE:
        raise MalformedBlob(f"blob of {len(blob)} bytes is shorter than the fixed frame")
    count = struct.unpack_from("<Q", blob, 0)[0]
    if count > MAX_ENTRIES:
        raise MalformedBlob(f"count {count} exceeds capacity {MAX_ENTRIES}")
    expected = _HEADER_SIZE + LIST_ENTRY_SIZE * count + _TRAILER_SIZE
    if len(blob) != expected:
        raise MalformedBlob(f"blob is {len(blob)} bytes, count {count} implies {expected}")
    entries = []
    for i in range(count):
        ssn, address, syscall_ret, stub_slot, name_hash = struct.unpack_from(
            "<QQQQQ", blob, _HEADER_SIZE + LIST_ENTRY_SIZE * i
        )
        entries.append(SyscallInfo(ssn, address, syscall_ret, stub_slot, name_hash))
    base_indices = struct.unpack_from("<6Q", blob, _HEADER_SIZE + LIST_ENTRY_SIZE * count)
    return SyscallList(entries=tuple(entries), base_indices=tuple(base_indices))


def debug_dump(table: SyscallList, ntdll: PeImage) -> list[dict]:
    """Readable rows (index, name, ssn, address, hash) for inspection only.

    Names are recovered from the image's exports by address since records do
    not store them.
    """
    index = ntdll.native_exports
    rows = []
    for i, e in enumerate(table.entries):
        rva = e.address - ntdll.image_base
        name = index.canonical_by_rva.get(rva, _hex(e.address))
        rows.append(
            {
                "index": i,
                "name": name,
                "ssn": e.ssn,
                "address": _hex(e.address),
                "hash": _hex(e.name_hash),
            }
        )
    return rows
