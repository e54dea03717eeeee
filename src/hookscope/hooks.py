"""Hook detection: inline prologue checks and IAT cross-checks, plus reports.

The inline scan walks the Nt/Zw exports of a loaded ntdll image and flags
every prologue that deviates from the intact stub template, decoding the
relative-jump form to its target. The IAT scan compares each loaded module's
bound slot values against the true export addresses.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from .image import PeImage, _hex, _is_native_name
from .simulate import ntdll_descriptors
from .ssn import read_stubs

if TYPE_CHECKING:
    from .simulate import ProcessModel

log = logging.getLogger(__name__)


class HookKind(Enum):
    INLINE_PROLOGUE = "InlinePrologue"
    IAT_MISMATCH = "IatMismatch"


class HookDetail(Enum):
    JMP_REL32 = "JmpRel32"
    OTHER_PROLOGUE = "OtherPrologue"
    SLOT_REDIRECTED = "SlotRedirected"


@dataclass(frozen=True)
class HookFinding:
    kind: HookKind
    module: str
    function: str
    expected_va: int
    observed_va: int
    detail: HookDetail


@dataclass(frozen=True)
class ScanReport:
    ntdll_findings: tuple[HookFinding, ...]
    per_module: Mapping[str, tuple[HookFinding, ...]]
    mapped_function_count: int


def decode_jmp_rel32(entry_va: int, prologue: bytes) -> int:
    """Target of an E9 rel32 jump at entry_va: next-instruction va plus the
    sign-extended displacement."""
    rel = struct.unpack_from("<i", prologue, 1)[0]
    return (entry_va + 5 + rel) & 0xFFFFFFFFFFFFFFFF


def scan_inline_hooks(ntdll: PeImage) -> list[HookFinding]:
    """Flag every Nt/Zw export whose first bytes deviate from the template.

    The hooked stubs are those `read_stubs` reads as not intact, reported once
    per name. An E9 first byte is decoded to its jump target; any other
    deviation is reported without a target. Findings are sorted by function
    name.
    """
    stubs = read_stubs(ntdll)
    findings: list[HookFinding] = []
    for name, rva in ntdll.native_exports.named:
        if stubs.get(rva, 0) is not None:  # intact, or outside the extent
            continue
        entry_va = ntdll.image_base + rva
        if ntdll.data[rva] == 0xE9:
            detail = HookDetail.JMP_REL32
            observed = decode_jmp_rel32(entry_va, ntdll.data[rva : rva + 8])
        else:
            detail = HookDetail.OTHER_PROLOGUE
            observed = entry_va
        findings.append(
            HookFinding(
                kind=HookKind.INLINE_PROLOGUE,
                module="ntdll",
                function=name,
                expected_va=entry_va,
                observed_va=observed,
                detail=detail,
            )
        )
    findings.sort(key=lambda f: f.function)
    return findings


def mapped_function_count(ntdll: PeImage) -> int:
    """Number of Nt/Zw exports an inline scan examines."""
    return len(ntdll.native_exports.named)


def scan_iat_hooks(process: "ProcessModel") -> dict[str, list[HookFinding]]:
    """Compare each module's ntdll-bound slots against the true export VAs.

    Returns one entry per module that references ntdll (empty list when all
    its slots are faithful), keyed and ordered by module name.
    """
    ntdll = process.ntdll()
    index = ntdll.image.native_exports

    results: dict[str, list[HookFinding]] = {}
    for module in process.modules[1:]:
        descriptors = ntdll_descriptors(module.image, ntdll.name)
        if not descriptors:
            continue
        findings: list[HookFinding] = []
        unexported: list[str] = []
        for imported in descriptors:
            for slot in imported.slots:
                name = slot.imported_name
                if not _is_native_name(name):
                    continue
                rva = index.resolve(name)
                if rva is None:
                    unexported.append(name)
                    continue
                expected = ntdll.base + rva
                if slot.bound_value != expected:
                    findings.append(
                        HookFinding(
                            kind=HookKind.IAT_MISMATCH,
                            module=module.name,
                            function=name,
                            expected_va=expected,
                            observed_va=slot.bound_value,
                            detail=HookDetail.SLOT_REDIRECTED,
                        )
                    )
        if unexported:
            log.warning(
                "%s imports %d names from ntdll that ntdll does not export; skipped (first: %s)",
                module.name,
                len(unexported),
                unexported[0],
            )
        findings.sort(key=lambda f: f.function)
        results[module.name] = findings
    return dict(sorted(results.items()))


def finding_to_json(finding: HookFinding) -> dict:
    return {
        "kind": finding.kind.value,
        "module": finding.module,
        "function": finding.function,
        "expected_va": _hex(finding.expected_va),
        "observed_va": _hex(finding.observed_va),
        "detail": finding.detail.value,
    }


def render_report(report: ScanReport, as_json: bool) -> str:
    """Render a scan report as JSON, or as text in the familiar listing shape."""
    if as_json:
        doc = {
            "ntdll": [finding_to_json(f) for f in report.ntdll_findings],
            "modules": {
                name: [finding_to_json(f) for f in findings]
                for name, findings in report.per_module.items()
            },
            "mapped": report.mapped_function_count,
        }
        return json.dumps(doc) + "\n"

    lines = ["[+] Listing ntdll Nt/Zw functions", "-----"]
    for f in report.ntdll_findings:
        lines.append(f"{f.function} is hooked")
    lines.append(f"Mapped {report.mapped_function_count} functions")
    lines.append("")
    lines.append("[+] Listing hooked modules")
    lines.append("-----")
    for name, findings in report.per_module.items():
        lines.append(f"Checking ntdll.dll at {name} IAT")
        for f in findings:
            lines.append(
                f"|-- {name} IAT to ntdll.dll of function {f.function} "
                f"is hooked to {_hex(f.observed_va)}"
            )
        lines.append(f"+-- {len(findings)} hooked functions.")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def build_report(
    ntdll: PeImage | None = None,
    process: "ProcessModel | None" = None,
) -> ScanReport:
    """Compose a report from an inline scan, an IAT scan, or both."""
    if process is not None and ntdll is None:
        ntdll = process.ntdll().image
    if ntdll is None:
        raise ValueError("need an ntdll image or a process model")
    return ScanReport(
        ntdll_findings=tuple(scan_inline_hooks(ntdll)),
        per_module=(
            {name: tuple(f) for name, f in scan_iat_hooks(process).items()}
            if process is not None
            else {}
        ),
        mapped_function_count=mapped_function_count(ntdll),
    )
