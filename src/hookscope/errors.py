"""Typed failures raised by this package.

Every error a caller can trigger with bad input derives from HookscopeError,
so hostile files can be processed with a single except-clause and never crash
the surrounding tool.
"""

from __future__ import annotations


class HookscopeError(Exception):
    """Base class for all typed failures in this package."""


# --- image parsing and addressing ---


class BadMagic(HookscopeError):
    """MZ or PE signature missing."""


class Truncated(HookscopeError):
    """A header or table extends past the end of the buffer."""


class Not64Bit(HookscopeError):
    """Machine id or optional-header magic does not denote a 64-bit image."""


class BadSectionTable(HookscopeError):
    """Section virtual ranges overlap or are otherwise unusable."""


class CorruptDirectory(HookscopeError):
    """Export/import directory counts or RVAs inconsistent with the buffer."""


class UnmappedRva(HookscopeError):
    """RVA falls in no section and past the headers region."""


class OutOfRange(HookscopeError):
    """A read outside the mapped extent, a value outside its 64-bit field, or a
    loaded image placed outside the 64-bit address space."""


class WrongLayout(HookscopeError):
    """Operation requires the other image layout (file vs. loaded)."""


# --- service-number resolution ---


class NoCleanNeighbor(HookscopeError):
    """Neighbor scan exhausted without finding an intact stub."""


class NoZwExports(HookscopeError):
    """Image exports no Zw-prefixed functions."""


class SyscallNotFound(HookscopeError):
    """No syscall instruction within the scan window of a stub."""


class SsnOutOfRange(HookscopeError):
    """Neighbor derivation yields a service number outside 0..0xFFFF."""


# --- syscall table ---


class TableFull(HookscopeError):
    """Table would exceed its fixed 512-entry capacity."""


class MissingBaseFunction(HookscopeError):
    """A mandatory function name is absent from the exports."""


class MalformedBlob(HookscopeError):
    """Serialized table blob has an impossible length."""


# --- process model and rewrite simulation ---


class MissingNtdll(HookscopeError):
    """Process model carries no ntdll image."""


class TargetNotLoaded(HookscopeError):
    """Rewrite target module absent from the process model."""


class StaleEdit(HookscopeError):
    """Slot content changed between planning and applying an edit."""


class UnknownImport(HookscopeError):
    """Caller module does not import the requested function."""


class CorruptSlot(HookscopeError):
    """Slot value lies in the stub region but not on an entry boundary."""


class MalformedTrace(HookscopeError):
    """Call trace does not open with the caller module and its slot lookup."""


# --- fixture generation ---


class SpecInvalid(HookscopeError):
    """Fixture specification violates its own constraints."""


class UnresolvedImport(HookscopeError):
    """Resolver has no address for a requested import."""


class OverlappingRanges(HookscopeError):
    """Module virtual ranges overlap in a process model."""
