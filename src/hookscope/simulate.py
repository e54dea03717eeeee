"""Symbolic model of a loaded process and of the IAT-rewrite flow.

Plans slot edits for target modules, applies them to produce a new process
value, and resolves calls through the rewritten slots the way the dispatch
stubs would: slot value -> stub index -> table record -> syscall site. No
instruction is ever executed and no live process is touched.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import struct
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence, Union

from .errors import (
    CorruptSlot,
    MalformedTrace,
    MissingNtdll,
    OutOfRange,
    StaleEdit,
    TargetNotLoaded,
    UnknownImport,
)
from .image import IatSlot, ImportModule, PeImage, enumerate_imports, rva_to_offset
from .image import _hex, _is_native_name
from .ssn import SsnSearchParams
from .table import (
    LIST_ENTRY_SIZE,
    STUB_ENTRY_SIZE,
    RewriteConfig,
    SyscallList,
    assign_stub_slots,
    make_entry,
    serialize_list,
)


def normalize_module_name(name: str) -> str:
    """Case-insensitive module identity, extension and path stripped."""
    base = name.replace("\\", "/").rsplit("/", 1)[-1].lower()
    if base.endswith(".dll") or base.endswith(".exe"):
        base = base.rsplit(".", 1)[0]
    return base


@dataclass(frozen=True)
class ModuleEntry:
    """A loaded module under its shown name; it sits at its image's base."""

    name: str
    image: PeImage

    @property
    def base(self) -> int:
        return self.image.image_base

    def contains(self, va: int) -> bool:
        """Whether `va` lies inside this module's mapped extent."""
        return self.base <= va < self.base + self.image.extent


@dataclass(frozen=True)
class ProcessModel:
    """Ordered loaded modules, ntdll first, plus the dispatch configuration. A
    value: apply operations return new models rather than mutating shared state."""

    modules: tuple[ModuleEntry, ...]
    config: RewriteConfig

    def ntdll(self) -> ModuleEntry:
        if not self.modules:
            raise MissingNtdll("process model carries no ntdll image")
        return self.modules[0]

    @functools.cached_property
    def _index_by_name(self) -> dict[str, int]:
        """Normalized name -> index of its first entry; `dataclasses.replace` starts afresh."""
        by_name: dict[str, int] = {}
        for i, entry in enumerate(self.modules):
            by_name.setdefault(normalize_module_name(entry.name), i)
        return by_name

    def find(self, name: str) -> Optional[ModuleEntry]:
        i = self._index_by_name.get(normalize_module_name(name))
        return None if i is None else self.modules[i]


@dataclass(frozen=True)
class IatEdit:
    module: str
    slot_iat_rva: int
    function: str
    old_value: int
    new_value: int
    entry_index: int


@dataclass(frozen=True)
class RewritePlan:
    """Planned slot edits plus the table they index (grown when forced)."""

    edits: tuple[IatEdit, ...]
    table: SyscallList


# --- call-trace steps ---
# Each step gives its own JSON record and, for the steps a rendered call shows,
# the text that `text.format(**record)` prints.


@dataclass(frozen=True)
class CallerModule:
    module: str
    text: ClassVar[Optional[str]] = None

    def record(self) -> dict:
        return {"step": "caller_module", "module": self.module}


@dataclass(frozen=True)
class IatLookup:
    slot_va: int
    value: int
    text: ClassVar[Optional[str]] = None

    def record(self) -> dict:
        return {"step": "iat_lookup", "slot_va": _hex(self.slot_va), "value": _hex(self.value)}


@dataclass(frozen=True)
class StubSlot:
    index: int
    text: ClassVar[Optional[str]] = "Fnc{index:04X}"

    def record(self) -> dict:
        return {"step": "stub_slot", "index": self.index}


@dataclass(frozen=True)
class TableLookup:
    ssn: int
    syscall_ret: int
    text: ClassVar[Optional[str]] = "ssn {ssn}"

    def record(self) -> dict:
        return {"step": "table_lookup", "ssn": self.ssn, "syscall_ret": _hex(self.syscall_ret)}


@dataclass(frozen=True)
class SyscallSite:
    va: int
    text: ClassVar[Optional[str]] = "syscall {va}"

    def record(self) -> dict:
        return {"step": "syscall_site", "va": _hex(self.va)}


@dataclass(frozen=True)
class DirectNtdll:
    va: int
    text: ClassVar[Optional[str]] = "ntdll {va}"

    def record(self) -> dict:
        return {"step": "direct_ntdll", "va": _hex(self.va)}


@dataclass(frozen=True)
class ForeignTarget:
    va: int
    text: ClassVar[Optional[str]] = "foreign {va}"

    def record(self) -> dict:
        return {"step": "foreign_target", "va": _hex(self.va)}


TraceStep = Union[
    CallerModule, IatLookup, StubSlot, TableLookup, SyscallSite, DirectNtdll, ForeignTarget
]


@dataclass(frozen=True)
class CallTrace:
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ChainVerdict:
    passed: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class ResolvedCall:
    """One Nt/Zw import of a target, traced through its own slot and verified."""

    module: str
    function: str
    trace: CallTrace
    verdict: ChainVerdict


def ntdll_descriptors(image: PeImage, ntdll_name: str) -> list[ImportModule]:
    """The image's import descriptors that name ntdll, in import-table order."""
    wanted = normalize_module_name(ntdll_name)
    return [d for d in enumerate_imports(image) if normalize_module_name(d.dll_name) == wanted]


def _native_ntdll_slots(module: ModuleEntry, ntdll_name: str) -> Iterator[IatSlot]:
    """The module's Nt/Zw slots imported from ntdll, in import-table order."""
    for imported in ntdll_descriptors(module.image, ntdll_name):
        for slot in imported.slots:
            if _is_native_name(slot.imported_name):
                yield slot


def plan_rewrite(
    process: ProcessModel,
    table: SyscallList,
    targets: Sequence[tuple[str, bool]],
    params: Optional[SsnSearchParams] = None,
) -> RewritePlan:
    """Plan slot edits for the targets, in the given order.

    A slot is edited when its imported Nt/Zw name resolves to an ntdll export
    held in the table; with force set, unlisted functions are appended to the
    table first (their records resolved from the ntdll image) so preloaded
    modules are covered too. A target absent from the process is an error,
    never a silent skip.
    """
    ntdll = process.ntdll()
    params = params or SsnSearchParams()
    index = ntdll.image.native_exports
    config = process.config

    entries = list(table.entries)
    address_to_index = {e.address: i for i, e in enumerate(entries)}

    edits: list[IatEdit] = []
    for target_name, force in targets:
        module = process.find(target_name)
        if module is None:
            raise TargetNotLoaded(f"target module {target_name!r} is not loaded")
        for slot in _native_ntdll_slots(module, ntdll.name):
            rva = index.resolve(slot.imported_name)
            if rva is None:
                continue
            va = ntdll.base + rva
            entry_index = address_to_index.get(va)
            if entry_index is None:
                if not force:
                    continue
                entry_index = len(entries)
                entries.append(
                    make_entry(
                        ntdll.image,
                        rva,
                        index.canonical_by_rva[rva],
                        params,
                        stub_slot=config.stub_slot(entry_index),
                    )
                )
                address_to_index[va] = entry_index
            new_value = config.stub_slot(entry_index)
            if slot.bound_value == new_value:
                continue
            edits.append(
                IatEdit(
                    module=module.name,
                    slot_iat_rva=slot.iat_rva,
                    function=slot.imported_name,
                    old_value=slot.bound_value,
                    new_value=new_value,
                    entry_index=entry_index,
                )
            )
    grown = SyscallList(entries=tuple(entries), base_indices=table.base_indices)
    return RewritePlan(edits=tuple(edits), table=grown)


def apply_rewrite(process: ProcessModel, plan: RewritePlan) -> ProcessModel:
    """Write the planned slot values, returning a new process model.

    Every edit's old value must still match the live slot, which catches a
    double apply; all bytes outside the planned slots are untouched. Each
    edited module's image is copied once, however many of its slots change.
    """
    buffers: dict[int, bytearray] = {}
    for edit in plan.edits:
        idx = process._index_by_name.get(normalize_module_name(edit.module))
        if idx is None:
            raise TargetNotLoaded(f"edit references unloaded module {edit.module!r}")
        image = process.modules[idx].image
        buf = buffers.get(idx)
        if buf is None:
            buf = buffers[idx] = bytearray(image.data)
        offset = rva_to_offset(image, edit.slot_iat_rva)
        if offset + 8 > len(buf):
            raise OutOfRange(
                f"slot {edit.module}!{edit.function} at {offset:#x}+0x8 outside the buffer"
            )
        current = struct.unpack_from("<Q", buf, offset)[0]
        if current != edit.old_value:
            raise StaleEdit(
                f"slot {edit.module}!{edit.function} holds {current:#x}, "
                f"expected {edit.old_value:#x}"
            )
        struct.pack_into("<Q", buf, offset, edit.new_value)
    modules = tuple(
        dataclasses.replace(entry, image=dataclasses.replace(entry.image, data=bytes(buffers[i])))
        if i in buffers
        else entry
        for i, entry in enumerate(process.modules)
    )
    return dataclasses.replace(process, modules=modules)


def _trace_slot(
    process: ProcessModel, caller: ModuleEntry, slot: IatSlot, blob: bytes
) -> CallTrace:
    """Trace a call through one import slot of the caller.

    A slot still holding an ntdll address is a direct call. A value inside
    the stub region is decoded to its entry index and the dispatch arithmetic
    is emulated against the serialized table bytes (count at 0, record at
    8 + index*0x28, syscall address at +0x10). Any other value is a foreign
    redirection.
    """
    ntdll = process.ntdll()
    config = process.config
    value = slot.bound_value
    steps: list[TraceStep] = [
        CallerModule(caller.name),
        IatLookup(slot_va=caller.base + slot.iat_rva, value=value),
    ]

    if ntdll.contains(value):
        steps.append(DirectNtdll(va=value))
        return CallTrace(steps=tuple(steps))

    count = struct.unpack_from("<Q", blob, 0)[0]
    index, misalign = divmod(value - config.stub_base, STUB_ENTRY_SIZE)
    if 0 <= index < count:
        if misalign:
            raise CorruptSlot(f"slot value {value:#x} is not on a stub boundary")
        record = 8 + index * LIST_ENTRY_SIZE
        ssn = struct.unpack_from("<Q", blob, record)[0]
        syscall_ret = struct.unpack_from("<Q", blob, record + 0x10)[0]
        steps += [
            StubSlot(index=index),
            TableLookup(ssn=ssn, syscall_ret=syscall_ret),
            SyscallSite(va=syscall_ret),
        ]
        return CallTrace(steps=tuple(steps))

    steps.append(ForeignTarget(va=value))
    return CallTrace(steps=tuple(steps))


def resolve_call(
    process: ProcessModel,
    caller_module: str,
    imported_fn: str,
    table: SyscallList,
) -> CallTrace:
    """Trace one call through the first caller slot importing `imported_fn`.

    An Nt/Zw name is looked up among the slots imported from ntdll first, as
    `resolve_imports` walks them; otherwise, and for any other name, the
    first slot with that name across all of the caller's import descriptors
    is used. The slot is traced as `_trace_slot` describes. To trace every
    Nt/Zw import of a module, use `resolve_imports`, which walks the imports
    and serializes the table once.
    """
    caller = process.find(caller_module)
    if caller is None:
        raise UnknownImport(f"module {caller_module!r} is not loaded")
    wanted = normalize_module_name(process.ntdll().name) if _is_native_name(imported_fn) else None
    descriptors = sorted(
        enumerate_imports(caller.image),
        key=lambda imported: normalize_module_name(imported.dll_name) != wanted,
    )
    slot = next(
        (
            candidate
            for imported in descriptors
            for candidate in imported.slots
            if candidate.imported_name == imported_fn
        ),
        None,
    )
    if slot is None:
        raise UnknownImport(f"{caller.name!r} does not import {imported_fn!r}")
    return _trace_slot(process, caller, slot, serialize_list(table))


def resolve_imports(
    process: ProcessModel, targets: Sequence[str], table: SyscallList
) -> tuple[ResolvedCall, ...]:
    """Trace and verify every Nt/Zw import each target takes from ntdll.

    Targets are visited in the given order and each slot in import-table
    order. Every target's imports are walked once and the table is
    serialized once, so the work is linear in imports. Each trace goes
    through the slot being walked, even when another descriptor imports the
    same name. A target absent from the process is an error.
    """
    ntdll_name = process.ntdll().name
    blob = serialize_list(table)
    results: list[ResolvedCall] = []
    for target_name in targets:
        module = process.find(target_name)
        if module is None:
            raise TargetNotLoaded(f"target module {target_name!r} is not loaded")
        for slot in _native_ntdll_slots(module, ntdll_name):
            trace = _trace_slot(process, module, slot, blob)
            results.append(
                ResolvedCall(module.name, slot.imported_name, trace, verify_chain(trace, process))
            )
    return tuple(results)


def simulate_rewrite(
    process: ProcessModel,
    table: SyscallList,
    targets: Sequence[str],
    forced: Sequence[str] = (),
    params: Optional[SsnSearchParams] = None,
) -> tuple[ResolvedCall, ...]:
    """Assign the table's stub slots, plan and apply the rewrite, and resolve every call.

    Targets are rewritten in order, forced when also in `forced`; forced modules
    that are not targets follow. Each module is visited once, under its first
    listing, as names compare in `normalize_module_name`, and is forced when
    any of its listings is in `forced`.
    """
    force = {normalize_module_name(name) for name in forced}
    first_listing: dict[str, str] = {}
    for name in (*targets, *forced):
        first_listing.setdefault(normalize_module_name(name), name)
    ordered = [(name, key in force) for key, name in first_listing.items()]
    plan = plan_rewrite(process, assign_stub_slots(table, process.config), ordered, params)
    rewritten = apply_rewrite(process, plan)
    return resolve_imports(rewritten, list(first_listing.values()), plan.table)


def verify_chain(trace: CallTrace, process: ProcessModel) -> ChainVerdict:
    """Check the address-level transparency of a resolved call.

    The pre-kernel address must lie inside ntdll, and the call site recorded
    at lookup time must lie inside the caller, so at the address level the
    chain still reads caller -> ntdll.
    """
    ntdll = process.ntdll()
    reasons: list[str] = []

    if not (
        len(trace.steps) >= 2
        and isinstance(trace.steps[0], CallerModule)
        and isinstance(trace.steps[1], IatLookup)
    ):
        raise MalformedTrace("trace does not open with the caller module and its slot lookup")
    caller_step, lookup = trace.steps[0], trace.steps[1]
    caller = process.find(caller_step.module)
    if caller is None:
        reasons.append("CallerUnloaded")
    elif not caller.contains(lookup.slot_va):
        reasons.append("CallSiteMoved")

    final = trace.steps[-1]
    if isinstance(final, (SyscallSite, DirectNtdll)):
        if not ntdll.contains(final.va):
            reasons.append("OutsideNtdll")
    elif isinstance(final, ForeignTarget):
        reasons.append("OutsideNtdll")
    else:
        reasons.append("UnterminatedTrace")

    return ChainVerdict(passed=not reasons, reasons=tuple(reasons))


def trace_to_json(trace: CallTrace) -> list[dict]:
    """Stable JSON form of a trace: one record per step, in order."""
    return [step.record() for step in trace.steps]


def render_calls(results: Sequence[ResolvedCall], as_json: bool) -> str:
    """Render resolved calls as `simulate` prints them: JSON, or a text line per call."""
    if as_json:
        doc = {
            "traces": [
                {
                    "module": call.module,
                    "function": call.function,
                    "steps": trace_to_json(call.trace),
                    "verdict": {
                        "passed": call.verdict.passed,
                        "reasons": list(call.verdict.reasons),
                    },
                }
                for call in results
            ],
            "all_passed": all(call.verdict.passed for call in results),
        }
        return json.dumps(doc) + "\n"
    lines = []
    for call in results:
        parts = [f"{call.module}!{call.function}"]
        for step in call.trace.steps:
            if step.text is not None:
                parts.append(step.text.format(**step.record()))
        status = "ok" if call.verdict.passed else "FAIL " + ",".join(call.verdict.reasons)
        lines.append(" -> ".join(parts) + f" [{status}]")
    lines.append(f"[+] Resolved {len(results)} calls")
    return "\n".join(lines) + "\n"
