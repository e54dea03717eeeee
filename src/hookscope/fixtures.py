"""Deterministic synthetic PE generation with known ground truth.

Builds loaded-layout 64-bit images: an ntdll-like library whose export
directory and stub bodies are fully specified (including injected prologue
hooks), and dependent modules with import descriptors and bound address
tables (optionally tampered). Identical specs and seeds produce byte-identical
images, so every failure reproduces.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .errors import OverlappingRanges, SpecInvalid, UnresolvedImport
from .image import MACHINE_AMD64, Layout, PeImage, _sibling_spelling, parse_image
from .simulate import ModuleEntry, ProcessModel
from .table import RewriteConfig

DEFAULT_NTDLL_BASE = 0x00007FFE_10000000
DEFAULT_MODULE_BASE = 0x00007FFE_20000000

_PAGE = 0x1000
_HEADERS_SIZE = 0x400
# Upper bound on a generated ntdll's stub region end, so a spec cannot make
# the generator allocate an image of gigabytes.
_MAX_STUB_END = 16 << 20

# mov r10, rcx ; mov eax, imm32
_CLEAN_HEAD = b"\x4c\x8b\xd1\xb8"
# test byte ptr [0x7FFE0308], 1 ; jne +3 -- the usual 10 filler bytes that put
# the syscall instruction at body offset 0x12
_CANONICAL_FILLER = bytes.fromhex("f604250803fe7f017503")
_SYSCALL_RET = b"\x0f\x05\xc3"
_ALT_TAIL = b"\xcd\x2e\xc3"  # int 2Eh ; ret
_DEFAULT_SYSCALL_OFFSET = 0x12

# Garbage prologues avoid bytes that would imitate a clean stub head, decode
# as a relative jump, or form a syscall opcode pair.
_GARBAGE_ALPHABET = bytes(b for b in range(256) if b not in (0x4C, 0xE9, 0x0F, 0x05))

_ORDINAL_IMPORT = 1 << 63


@dataclass(frozen=True)
class JmpRel32Hook:
    """Replace the first five prologue bytes with jmp rel32 toward base+target_delta."""

    target_delta: int


@dataclass(frozen=True)
class GarbageHook:
    """Scramble the first eight prologue bytes deterministically from the seed."""


Hook = Union[JmpRel32Hook, GarbageHook]


@dataclass(frozen=True)
class NtdllSpec:
    """Ground truth for a synthetic ntdll: ordered stubs plus injected hooks."""

    functions: tuple[tuple[str, int], ...]
    hooks: Mapping[str, Hook] = field(default_factory=dict)
    stride: int = 32
    base_rva: int = 0x1000
    syscall_offset: int = _DEFAULT_SYSCALL_OFFSET
    alias_both_prefixes: bool = False
    forwarders: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ModuleSpec:
    """Ground truth for a dependent module: imports plus tampered slot values."""

    name: str
    imports: tuple[tuple[str, Union[str, int]], ...]
    tamper: Mapping[Union[str, int], int] = field(default_factory=dict)


def _validate_ntdll_spec(spec: NtdllSpec) -> None:
    names = [name for name, _ in spec.functions]
    if len(set(names)) != len(names):
        raise SpecInvalid("function names must be unique")
    ssns = [ssn for _, ssn in spec.functions]
    if len(set(ssns)) != len(ssns):
        raise SpecInvalid("SSNs must be unique")
    for name, ssn in spec.functions:
        if not name or not name.isascii():
            raise SpecInvalid(f"bad function name {name!r}")
        if not 0 <= ssn < 0x10000:
            raise SpecInvalid(f"SSN {ssn} outside the 16-bit range")
        if ssn == 0x050F:
            raise SpecInvalid("SSN 0x050F would embed a syscall opcode in the immediate")
    if spec.stride <= 0:
        raise SpecInvalid("stride must be positive")
    if spec.syscall_offset < 8 or spec.syscall_offset + len(_SYSCALL_RET) > spec.stride:
        raise SpecInvalid(f"syscall offset {spec.syscall_offset:#x} does not fit the stride")
    if spec.base_rva < _PAGE:
        raise SpecInvalid("stub region must start past the headers page")
    stub_end = spec.base_rva + len(spec.functions) * spec.stride
    if stub_end > _MAX_STUB_END:
        raise SpecInvalid(f"stub region ends at {stub_end:#x}, past {_MAX_STUB_END:#x}")
    unknown = set(spec.hooks) - set(names)
    if unknown:
        raise SpecInvalid(f"hooks reference unknown functions: {sorted(unknown)}")
    fwd_names = [name for name, _ in spec.forwarders]
    if len(set(fwd_names)) != len(fwd_names) or set(fwd_names) & set(names):
        raise SpecInvalid("forwarder names must be unique and distinct from functions")


def _clean_body(ssn: int, stride: int, syscall_offset: int) -> bytearray:
    body = bytearray(_CLEAN_HEAD + struct.pack("<I", ssn))
    if syscall_offset == _DEFAULT_SYSCALL_OFFSET:
        body += _CANONICAL_FILLER
    else:
        body += b"\x90" * (syscall_offset - len(body))
    body += _SYSCALL_RET
    if len(body) + len(_ALT_TAIL) <= stride:
        body += _ALT_TAIL
    body += b"\xcc" * (stride - len(body))
    return body


def _apply_hook(
    body: bytearray,
    hook: Hook,
    name: str,
    entry_va: int,
    image_base: int,
    seed: int,
    syscall_offset: int,
) -> None:
    if isinstance(hook, JmpRel32Hook):
        rel = (image_base + hook.target_delta) - (entry_va + 5)
        if not -(1 << 31) <= rel < (1 << 31):
            raise SpecInvalid(f"jump displacement for {name!r} does not fit rel32")
        body[0:5] = b"\xe9" + struct.pack("<i", rel)
        body[5:8] = b"\xcc\xcc\xcc"
    elif isinstance(hook, GarbageHook):
        rng = random.Random(f"{seed}:{name}")
        body[0:8] = bytes(rng.choice(_GARBAGE_ALPHABET) for _ in range(8))
    else:
        raise SpecInvalid(f"unknown hook kind {hook!r}")
    if body.find(b"\x0f\x05", 0, syscall_offset + 1) != -1:
        raise SpecInvalid(f"hook bytes for {name!r} embed a syscall opcode pair")


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _dos_and_pe_headers(
    image_base: int,
    size_of_image: int,
    section_headers: bytes,
    directories: dict[int, tuple[int, int]],
) -> bytes:
    num_sections = len(section_headers) // 40
    dos = bytearray(0x40)
    dos[0:2] = b"MZ"
    struct.pack_into("<I", dos, 0x3C, 0x40)

    coff = struct.pack(
        "<4sHHIIIHH",
        b"PE\x00\x00",
        MACHINE_AMD64,
        num_sections,
        0,
        0,
        0,
        0xF0,
        0x2022,  # EXECUTABLE_IMAGE | DLL | LARGE_ADDRESS_AWARE
    )

    opt = bytearray(0xF0)
    struct.pack_into("<H", opt, 0x00, 0x20B)
    struct.pack_into("<Q", opt, 0x18, image_base)
    struct.pack_into("<I", opt, 0x20, _PAGE)  # SectionAlignment
    struct.pack_into("<I", opt, 0x24, 0x200)  # FileAlignment
    struct.pack_into("<H", opt, 0x48, 6)  # MajorSubsystemVersion
    struct.pack_into("<I", opt, 0x38, size_of_image)
    struct.pack_into("<I", opt, 0x3C, _HEADERS_SIZE)
    struct.pack_into("<H", opt, 0x44, 3)  # Subsystem: console
    struct.pack_into("<I", opt, 0x6C, 16)  # NumberOfRvaAndSizes
    for index, (rva, size) in directories.items():
        struct.pack_into("<II", opt, 0x70 + index * 8, rva, size)

    headers = bytes(dos) + coff + bytes(opt) + section_headers
    if len(headers) > _HEADERS_SIZE:
        raise SpecInvalid("headers overflow the reserved page")
    return headers + b"\x00" * (_HEADERS_SIZE - len(headers))


def _section_header(name: str, rva: int, size: int, characteristics: int) -> bytes:
    raw = name.encode("ascii")
    if len(raw) > 8:
        raise SpecInvalid(f"section name {name!r} longer than 8 bytes")
    return struct.pack("<8sIIIIIIHHI", raw, size, rva, size, rva, 0, 0, 0, 0, characteristics)


def build_synthetic_ntdll(
    spec: NtdllSpec,
    image_base: int = DEFAULT_NTDLL_BASE,
    seed: int = 0,
) -> PeImage:
    """Emit a loaded-layout ntdll-like image for the given spec.

    Stub i sits at base_rva + i*stride; the export name table is written in
    lexicographic order as the format requires. With alias_both_prefixes set,
    every Nt/Zw name also exports its sibling spelling at the same address.
    """
    _validate_ntdll_spec(spec)
    n = len(spec.functions)
    text_rva = spec.base_rva
    text_size = n * spec.stride

    # name -> function-slot index in AddressOfFunctions
    name_to_slot: dict[str, int] = {}
    for i, (name, _) in enumerate(spec.functions):
        name_to_slot[name] = i
    if spec.alias_both_prefixes:
        for i, (name, _) in enumerate(spec.functions):
            sibling = _sibling_spelling(name)
            if sibling and sibling not in name_to_slot:
                name_to_slot[sibling] = i
    fwd_slot_base = n
    for j, (name, _) in enumerate(spec.forwarders):
        name_to_slot[name] = fwd_slot_base + j

    sorted_names = sorted(name_to_slot)

    edata_rva = _align(max(text_rva + text_size, text_rva + 1), _PAGE)
    num_slots = n + len(spec.forwarders)

    # Export directory layout, all offsets relative to edata_rva:
    #   directory(40) | functions(4*slots) | names(4*nn) | ordinals(2*nn)
    #   | dll name | forwarder strings | export name strings
    aof_off = 40
    aon_off = aof_off + 4 * num_slots
    aoo_off = aon_off + 4 * len(sorted_names)
    strings_off = aoo_off + 2 * len(sorted_names)

    strings = bytearray()
    dll_name_rva = edata_rva + strings_off
    strings += b"ntdll.dll\x00"
    fwd_rvas: dict[str, int] = {}
    for name, target in spec.forwarders:
        fwd_rvas[name] = edata_rva + strings_off + len(strings)
        strings += target.encode("ascii") + b"\x00"
    name_rvas: dict[str, int] = {}
    for name in sorted_names:
        name_rvas[name] = edata_rva + strings_off + len(strings)
        strings += name.encode("ascii") + b"\x00"

    edata_size = strings_off + len(strings)

    edata = bytearray(edata_size)
    struct.pack_into(
        "<IIHHIIIIIII",
        edata,
        0,
        0,
        0,
        0,
        0,
        dll_name_rva,
        1,  # ordinal base
        num_slots,
        len(sorted_names),
        edata_rva + aof_off,
        edata_rva + aon_off,
        edata_rva + aoo_off,
    )
    for i in range(n):
        struct.pack_into("<I", edata, aof_off + 4 * i, text_rva + i * spec.stride)
    for j, (name, _) in enumerate(spec.forwarders):
        struct.pack_into("<I", edata, aof_off + 4 * (fwd_slot_base + j), fwd_rvas[name])
    for j, name in enumerate(sorted_names):
        struct.pack_into("<I", edata, aon_off + 4 * j, name_rvas[name])
        struct.pack_into("<H", edata, aoo_off + 2 * j, name_to_slot[name])
    edata[strings_off:] = strings

    size_of_image = _align(edata_rva + edata_size, _PAGE)
    buf = bytearray(size_of_image)

    section_headers = b""
    if text_size:
        section_headers += _section_header(".text", text_rva, text_size, 0x60000020)
    section_headers += _section_header(".rdata", edata_rva, edata_size, 0x40000040)
    headers = _dos_and_pe_headers(
        image_base=image_base,
        size_of_image=size_of_image,
        section_headers=section_headers,
        directories={0: (edata_rva, edata_size)},
    )
    buf[: len(headers)] = headers

    for i, (name, ssn) in enumerate(spec.functions):
        body = _clean_body(ssn, spec.stride, spec.syscall_offset)
        hook = spec.hooks.get(name)
        if hook is not None:
            entry_va = image_base + text_rva + i * spec.stride
            _apply_hook(body, hook, name, entry_va, image_base, seed, spec.syscall_offset)
        off = text_rva + i * spec.stride
        buf[off : off + spec.stride] = body

    buf[edata_rva : edata_rva + edata_size] = edata
    return parse_image(bytes(buf), Layout.LOADED, image_base)


def build_synthetic_module(
    spec: ModuleSpec,
    resolver: Mapping[tuple[str, Union[str, int]], int],
    image_base: int = DEFAULT_MODULE_BASE,
) -> PeImage:
    """Emit a loaded-layout module whose IAT binds resolver values.

    Slots named in spec.tamper hold the bogus value instead of the resolved
    address, modelling a redirected import.
    """
    for fn in spec.tamper:
        if fn not in {f for _, f in spec.imports}:
            raise SpecInvalid(f"tampered function {fn!r} is not imported")

    by_dll: dict[str, list[Union[str, int]]] = {}
    for dll, fn in spec.imports:
        by_dll.setdefault(dll, []).append(fn)
    for dll, fn in spec.imports:
        if (dll, fn) not in resolver:
            raise UnresolvedImport(f"no address for {dll}!{fn}")

    idata_rva = _PAGE
    num_dlls = len(by_dll)

    slot_counts = [len(fns) + 1 for fns in by_dll.values()]
    iat_bytes = 8 * sum(slot_counts)
    iat_off = 0
    ilt_off = iat_off + iat_bytes
    desc_off = ilt_off + iat_bytes
    names_off = desc_off + 20 * (num_dlls + 1)

    strings = bytearray()
    hint_rvas: dict[tuple[str, Union[str, int]], int] = {}
    for dll, fns in by_dll.items():
        for fn in fns:
            if isinstance(fn, str):
                hint_rvas[(dll, fn)] = idata_rva + names_off + len(strings)
                strings += struct.pack("<H", 0) + fn.encode("ascii") + b"\x00"
                if len(strings) % 2:
                    strings += b"\x00"
    dll_name_rvas: dict[str, int] = {}
    for dll in by_dll:
        dll_name_rvas[dll] = idata_rva + names_off + len(strings)
        strings += dll.encode("ascii") + b"\x00"

    idata_size = names_off + len(strings)
    idata = bytearray(idata_size)

    cursor = 0
    for d, (dll, fns) in enumerate(by_dll.items()):
        dll_iat_rva = idata_rva + iat_off + 8 * cursor
        dll_ilt_rva = idata_rva + ilt_off + 8 * cursor
        struct.pack_into(
            "<IIIII",
            idata,
            desc_off + 20 * d,
            dll_ilt_rva,
            0,
            0,
            dll_name_rvas[dll],
            dll_iat_rva,
        )
        for k, fn in enumerate(fns):
            if isinstance(fn, str):
                lookup = hint_rvas[(dll, fn)]  # rva of the hint word
            else:
                lookup = _ORDINAL_IMPORT | (fn & 0xFFFF)
            bound = spec.tamper.get(fn, resolver[(dll, fn)])
            struct.pack_into("<Q", idata, ilt_off + 8 * (cursor + k), lookup)
            struct.pack_into("<Q", idata, iat_off + 8 * (cursor + k), bound)
        cursor += len(fns) + 1
    idata[names_off:] = strings

    size_of_image = _align(idata_rva + max(idata_size, 1), _PAGE)
    buf = bytearray(size_of_image)

    directories: dict[int, tuple[int, int]] = {}
    if spec.imports:
        directories[1] = (idata_rva + desc_off, 20 * (num_dlls + 1))
        directories[12] = (idata_rva + iat_off, iat_bytes)

    section_headers = _section_header(".idata", idata_rva, max(idata_size, 1), 0xC0000040)
    headers = _dos_and_pe_headers(
        image_base=image_base,
        size_of_image=size_of_image,
        section_headers=section_headers,
        directories=directories,
    )
    buf[: len(headers)] = headers
    buf[idata_rva : idata_rva + idata_size] = idata
    return parse_image(bytes(buf), Layout.LOADED, image_base)


def build_process_model(
    ntdll: PeImage,
    modules: Sequence[tuple[str, PeImage]],
    config: RewriteConfig,
    ntdll_name: str = "ntdll",
) -> ProcessModel:
    """Assemble a process model, ntdll first, from named images.

    Each module sits at its image's base (the images bake absolute addresses
    at generation time); module ranges must not overlap.
    """
    entries = [ModuleEntry(ntdll_name, ntdll)]
    entries += [ModuleEntry(name, image) for name, image in modules]
    spans = sorted((e.base, e.base + e.image.extent, e.name) for e in entries)
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise OverlappingRanges(f"modules {n1!r} and {n2!r} overlap")
    return ProcessModel(modules=tuple(entries), config=config)
