"""Shared builders: reference scenario images and a raw-header PE builder."""

from __future__ import annotations

import struct

import pytest

from hookscope import (
    RewriteConfig,
    enumerate_exports,
)
from hookscope.image import DataDirectory
from hookscope.fixtures import (
    JmpRel32Hook,
    ModuleSpec,
    NtdllSpec,
    build_process_model,
    build_synthetic_module,
    build_synthetic_ntdll,
)

# Reference scenario: a 202-stub library whose service numbers equal their
# position index, anchored so the dispatch-table example lands on known
# addresses. Twelve stubs carry real names; six of those are inline-hooked.
NTDLL_BASE = 0x00007FFEB24F0000
KERNELBASE_BASE = 0x00007FFEAFBD0000
STUB_BASE = 0x00007FF7BE5D7C1C
# A table address that older specs carry in "config"; loading ignores it.
TABLE_VA = 0x00007FF7BE63DD30
SCENARIO_BASE_RVA = 0x9CFC0

NAMED_BY_SSN = {
    13: "ZwSetInformationThread",
    24: "ZwAllocateVirtualMemory",
    25: "ZwQueryInformationProcess",
    38: "ZwOpenProcess",
    40: "ZwMapViewOfSection",
    52: "ZwDelayExecution",
    58: "ZwWriteVirtualMemory",
    63: "ZwReadVirtualMemory",
    74: "ZwCreateSection",
    80: "ZwProtectVirtualMemory",
    90: "ZwQuerySystemTime",
    201: "ZwCreateUserProcess",
}
HOOKED_NAMES = (
    "ZwSetInformationThread",
    "ZwQueryInformationProcess",
    "ZwMapViewOfSection",
    "ZwCreateSection",
    "ZwQuerySystemTime",
    "ZwCreateUserProcess",
)

EXPECTED_TABLE = [
    ("ZwAllocateVirtualMemory", 24),
    ("ZwCreateSection", 74),
    ("ZwCreateUserProcess", 201),
    ("ZwDelayExecution", 52),
    ("ZwMapViewOfSection", 40),
    ("ZwOpenProcess", 38),
    ("ZwProtectVirtualMemory", 80),
    ("ZwQueryInformationProcess", 25),
    ("ZwQuerySystemTime", 90),
    ("ZwReadVirtualMemory", 63),
    ("ZwSetInformationThread", 13),
    ("ZwWriteVirtualMemory", 58),
]


def positioned_functions(count: int, named: dict[int, str] | None = None, prefix: str = "ZwFiller"):
    """Functions whose service number equals their position index."""
    named = named or {}
    return tuple((named.get(i, f"{prefix}{i:04d}"), i) for i in range(count))


def make_scenario_ntdll():
    spec = NtdllSpec(
        functions=positioned_functions(202, NAMED_BY_SSN),
        hooks={name: JmpRel32Hook(target_delta=0x150000) for name in HOOKED_NAMES},
        base_rva=SCENARIO_BASE_RVA,
        alias_both_prefixes=True,
    )
    return build_synthetic_ntdll(spec, image_base=NTDLL_BASE)


def make_scenario_process(ntdll=None, extra_imports=(), tamper=None):
    ntdll = ntdll if ntdll is not None else make_scenario_ntdll()
    exports = {
        e.name: ntdll.image_base + e.rva for e in enumerate_exports(ntdll) if e.name is not None
    }

    def resolve(fn: str) -> int:
        va = exports.get(fn)
        if va is None and (fn.startswith("Nt") or fn.startswith("Zw")):
            sibling = ("Zw" if fn.startswith("Nt") else "Nt") + fn[2:]
            va = exports.get(sibling)
        if va is None:
            va = ntdll.image_base + 0x5000  # stand-in for a non-stub export
        return va

    imports = tuple(("ntdll.dll", "Nt" + name[2:]) for name, _ in EXPECTED_TABLE)
    imports += (("ntdll.dll", "RtlOpenCurrentUser"),) + tuple(extra_imports)
    spec = ModuleSpec(name="kernelbase", imports=imports, tamper=tamper or {})
    resolver = {(dll, fn): resolve(fn) for dll, fn in imports}
    kernelbase = build_synthetic_module(spec, resolver, image_base=KERNELBASE_BASE)
    config = RewriteConfig(stub_base=STUB_BASE)
    return build_process_model(ntdll, [("kernelbase", kernelbase)], config)


@pytest.fixture(scope="session")
def scenario_ntdll():
    return make_scenario_ntdll()


@pytest.fixture(scope="session")
def scenario_process():
    return make_scenario_process()


@pytest.fixture(scope="session")
def clean_478_ntdll():
    """Fully clean library with 478 position-numbered Zw stubs."""
    return build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(478)))


def edit_exports(image, names=None, functions=None) -> bytes:
    """A loaded image's bytes with export name entry j reading as entry i
    (`names={j: i}`) and function slot k holding `rva` (`functions={k: rva}`)."""
    dir_rva, _ = image.directories[DataDirectory.EXPORT_TABLE]
    aof, aon = struct.unpack_from("<II", image.data, dir_rva + 28)
    out = bytearray(image.data)
    for j, i in (names or {}).items():
        out[aon + 4 * j : aon + 4 * j + 4] = image.data[aon + 4 * i : aon + 4 * i + 4]
    for k, rva in (functions or {}).items():
        struct.pack_into("<I", out, aof + 4 * k, rva)
    return bytes(out)


def build_header_only_pe(
    machine: int = 0x8664,
    magic: int = 0x20B,
    image_base: int = 0x140000000,
    directories: dict[int, tuple[int, int]] | None = None,
    sections: list[tuple[str, int, int, int, int]] | None = None,
    total_size: int | None = None,
) -> bytes:
    """Hand-rolled PE for header-level tests; sections are (name, rva, vsize,
    raw_off, raw_size)."""
    directories = directories or {}
    sections = sections or []

    dos = bytearray(0x40)
    dos[0:2] = b"MZ"
    struct.pack_into("<I", dos, 0x3C, 0x40)
    coff = struct.pack("<4sHHIIIHH", b"PE\x00\x00", machine, len(sections), 0, 0, 0, 0xF0, 0x22)
    opt = bytearray(0xF0)
    struct.pack_into("<H", opt, 0x00, magic)
    struct.pack_into("<Q", opt, 0x18, image_base)
    struct.pack_into("<I", opt, 0x3C, 0x400)  # SizeOfHeaders
    struct.pack_into("<I", opt, 0x6C, 16)
    for index, (rva, size) in directories.items():
        struct.pack_into("<II", opt, 0x70 + index * 8, rva, size)
    sect = bytearray()
    for name, rva, vsize, raw_off, raw_size in sections:
        sect += struct.pack(
            "<8sIIIIIIHHI", name.encode(), vsize, rva, raw_size, raw_off, 0, 0, 0, 0, 0x40000040
        )
    blob = bytes(dos) + coff + bytes(opt) + bytes(sect)
    size = total_size if total_size is not None else max(0x400, len(blob))
    out = bytearray(size)
    out[: len(blob)] = blob
    return bytes(out)
