"""System-service-number resolution over ntdll-like images.

Three routes: direct read of an intact stub prologue, neighbor derivation at
fixed stride when the prologue is overwritten, and position indexing of the
Zw exports sorted by address. Also locates the syscall instruction that
follows a stub and hashes function names.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .errors import NoCleanNeighbor, NoZwExports, OutOfRange, SsnOutOfRange, WrongLayout
from .image import Layout, PeImage

log = logging.getLogger(__name__)

# mov r10, rcx ; mov eax, imm -- with the immediate's high word zero
CLEAN_PROLOGUE_HEAD = b"\x4c\x8b\xd1\xb8"
SYSCALL_OPCODE = b"\x0f\x05"

_MASK64 = (1 << 64) - 1
_MAX_SSN = 0xFFFF


@dataclass(frozen=True)
class SsnSearchParams:
    """Knobs for neighbor derivation and syscall-instruction scanning."""

    max_neighbours: int = 500
    stride_bytes: int = 32
    syscall_scan_limit: int = 512

    def __post_init__(self) -> None:
        if self.stride_bytes <= 0:
            raise ValueError("stride_bytes must be positive")
        if self.syscall_scan_limit < 2:
            raise ValueError("syscall_scan_limit must cover at least one opcode pair")
        if self.max_neighbours < 0:
            raise ValueError("max_neighbours must be non-negative")


def read_clean_ssn(prologue: bytes) -> Optional[int]:
    """Return the service number encoded in an intact stub prologue.

    Matches 4C 8B D1 B8 ?? ?? 00 00 over the first eight bytes; anything else
    (hooked, truncated) yields None. Bytes past the eighth are ignored.
    """
    if len(prologue) < 8:
        return None
    if prologue[:4] == CLEAN_PROLOGUE_HEAD and prologue[6] == 0 and prologue[7] == 0:
        return (prologue[5] << 8) | prologue[4]
    return None


def _require_loaded(image: PeImage) -> None:
    if image.layout is not Layout.LOADED:
        raise WrongLayout("stub reads require a loaded-layout image")


def read_stubs(ntdll: PeImage) -> dict[int, Optional[int]]:
    """Each owned Nt/Zw export address mapped to its direct service number.

    Reads every address's eight-byte prologue once, whichever names share it:
    an intact stub maps to its number, a hooked one to None. Addresses whose
    prologue runs past the extent are left out and logged in one warning.
    """
    _require_loaded(ntdll)
    extent, data = ntdll.extent, ntdll.data
    stubs: dict[int, Optional[int]] = {}
    outside: list[str] = []
    for name, rva in ntdll.native_exports.owner.items():
        if rva + 8 > extent:
            outside.append(name)
        elif rva not in stubs:
            stubs[rva] = read_clean_ssn(data[rva : rva + 8])
    if outside:
        log.warning(
            "%d exports run past the mapped extent; skipped (first: %s)", len(outside), outside[0]
        )
    return stubs


def _clean_ssn_at(image: PeImage, va: int) -> Optional[int]:
    off = va - image.image_base
    return read_clean_ssn(image.data[off : off + 8]) if off >= 0 else None


def derive_ssn_neighbors(ntdll: PeImage, entry_va: int, params: SsnSearchParams) -> int:
    """Resolve a stub's service number, falling back to stride neighbors.

    An intact prologue is read directly. Otherwise stubs at entry_va +/- k
    strides are probed outward; a clean stub k positions below (higher
    address) carries this stub's number plus k, one above carries it minus k,
    so the result is the neighbor's number adjusted by the whole distance k.
    A result outside the 16-bit range of a stub immediate is an error.
    """
    _require_loaded(ntdll)
    if not ntdll.image_base <= entry_va < ntdll.image_base + ntdll.extent:
        raise OutOfRange(f"entry va {entry_va:#x} outside the mapped extent")

    direct = _clean_ssn_at(ntdll, entry_va)
    if direct is not None:
        return direct

    for idx in range(1, params.max_neighbours + 1):
        down = _clean_ssn_at(ntdll, entry_va + idx * params.stride_bytes)
        if down is not None:
            ssn = down - idx
            break
        up = _clean_ssn_at(ntdll, entry_va - idx * params.stride_bytes)
        if up is not None:
            ssn = up + idx
            break
    else:
        raise NoCleanNeighbor(
            f"no intact stub within {params.max_neighbours} strides of {entry_va:#x}"
        )
    if not 0 <= ssn <= _MAX_SSN:
        raise SsnOutOfRange(
            f"neighbors of {entry_va:#x} derive service number {ssn}, outside 0..{_MAX_SSN:#x}"
        )
    return ssn


def find_syscall_instruction(
    ntdll: PeImage, start_va: int, params: SsnSearchParams
) -> Optional[int]:
    """Return the lowest va >= start_va holding the syscall opcode pair.

    Scans at most syscall_scan_limit bytes and never past the image extent;
    absence is a value, not an error.
    """
    _require_loaded(ntdll)
    if not ntdll.image_base <= start_va < ntdll.image_base + ntdll.extent:
        raise OutOfRange(f"start va {start_va:#x} outside the mapped extent")
    off = start_va - ntdll.image_base
    window = ntdll.data[off : off + min(params.syscall_scan_limit, ntdll.extent - off)]
    idx = window.find(SYSCALL_OPCODE)
    if idx < 0:
        return None
    return start_va + idx


def derive_ssn_by_sort(ntdll: PeImage) -> dict[str, int]:
    """Assign service numbers by position of the Zw exports sorted by address."""
    zw = sorted((rva, name) for name, rva in ntdll.native_exports.owner.items() if name[:2] == "Zw")
    if not zw:
        raise NoZwExports("image exports no Zw-prefixed functions")
    return {name: index for index, (_, name) in enumerate(zw)}


def resolve_ssns(
    ntdll: PeImage, method: str, params: SsnSearchParams
) -> tuple[dict[str, int], list[str]]:
    """Service numbers of the Nt/Zw exports by one route, and the derived names.

    `sort` numbers the Zw exports by address and reads no stub, so it works on
    either layout. `prologue` reads each stub's prologue and leaves hooked
    stubs out; `halos` falls back to stride neighbours for those and lists
    them, in name order, as derived. Both read stubs, so they need a loaded
    image. Each stub is reported under its Zw-preferred spelling, so a name
    has the one address `NativeExportIndex.owner` gives it.
    """
    if method == "sort":
        return derive_ssn_by_sort(ntdll), []
    if method not in ("prologue", "halos"):
        raise ValueError(f"unknown resolution method {method!r}")
    stubs = read_stubs(ntdll)
    canonical = ntdll.native_exports.canonical_by_rva
    mapping: dict[str, int] = {}
    derived: list[str] = []
    for name, rva in sorted((canonical[rva], rva) for rva in stubs):
        ssn = stubs[rva]
        if ssn is None:
            if method == "prologue":
                continue
            ssn = derive_ssn_neighbors(ntdll, ntdll.image_base + rva, params)
            derived.append(name)
        mapping[name] = ssn
    return mapping, derived


def hash_name(name: str) -> int:
    """Rotate-right-13 additive hash over the raw (latin-1) name bytes, 64-bit."""
    if not name:
        raise ValueError("name must be non-empty")
    h = 0
    for c in name.encode("latin-1"):
        h = (((h >> 13) | (h << 51)) + c) & _MASK64
    return h
