"""Expected CLI outputs, derived from the corpus ground truth, and checks.

Each check returns a list of mismatch descriptions; an empty list means the
output is right. Only the keys the README documents are compared, so a later
change may add fields to a JSON document without failing the benchmark.
"""

from __future__ import annotations

import json

from corpus import (
    BASE_FUNCTIONS,
    STUB_BASE,
    STUB_ENTRY_SIZE,
    ModuleTruth,
    NtdllTruth,
    canonical,
    hash_name,
    table_blob,
)

_FINDING_KEYS = ("kind", "module", "function", "expected_va", "observed_va", "detail")


def _hex(value: int) -> str:
    return f"0x{value:016x}"


def _project(records, keys):
    return [{k: r.get(k) for k in keys} for r in records]


def _diff(what: str, got, want) -> list[str]:
    if got == want:
        return []
    return [f"{what}: got {_short(got)}, want {_short(want)}"]


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 160 else text[:157] + "..."


def _load(stdout: str, what: str):
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, [f"{what}: output is not JSON"]


def expected_inline(ntdll: NtdllTruth) -> list[dict]:
    out = []
    for name, (kind, target) in ntdll.hooks.items():
        entry = ntdll.entry_va(name)
        for spelling in (name, "Nt" + name[2:]):
            out.append(
                {
                    "kind": "InlinePrologue",
                    "module": "ntdll",
                    "function": spelling,
                    "expected_va": _hex(entry),
                    "observed_va": _hex(target if kind == "jmp" else entry),
                    "detail": "JmpRel32" if kind == "jmp" else "OtherPrologue",
                }
            )
    return sorted(out, key=lambda f: f["function"])


def expected_iat(ntdll: NtdllTruth, modules: list[ModuleTruth]) -> dict:
    out = {}
    for m in modules:
        findings = [
            {
                "kind": "IatMismatch",
                "module": m.name,
                "function": fn,
                "expected_va": _hex(ntdll.entry_va(fn)),
                "observed_va": _hex(value),
                "detail": "SlotRedirected",
            }
            for fn, value in m.tamper.items()
        ]
        out[m.name] = sorted(findings, key=lambda f: f["function"])
    return dict(sorted(out.items()))


def check_scan(exit_code: int, stdout: str, ntdll: NtdllTruth, modules) -> list[str]:
    """Hooked names, JMP targets and tampered slots of `scan SPEC --format json`."""
    doc, errors = _load(stdout, "scan")
    if doc is None:
        return errors
    inline = expected_inline(ntdll)
    iat = expected_iat(ntdll, modules)
    findings = bool(inline) or any(iat.values())
    errors += _diff("scan exit", exit_code, 1 if findings else 0)
    errors += _diff("scan ntdll findings", _project(doc.get("ntdll", []), _FINDING_KEYS), inline)
    got_iat = {k: _project(v, _FINDING_KEYS) for k, v in doc.get("modules", {}).items()}
    errors += _diff("scan IAT findings", got_iat, iat)
    errors += _diff("scan mapped", doc.get("mapped"), 2 * len(ntdll.names))
    return errors


def check_ssn(
    exit_code: int, stdout: str, method: str, ntdll: NtdllTruth, hooked=None
) -> list[str]:
    """Positional SSNs for every stub; `hooked` lists the non-clean prologues."""
    doc, errors = _load(stdout, f"ssn {method}")
    if doc is None:
        return errors
    hooked = set(ntdll.hooks) if hooked is None else set(hooked)
    errors += _diff(f"ssn {method} exit", exit_code, 0)
    errors += _diff(f"ssn {method} ssns", doc.get("ssns"), dict(ntdll.position))
    derived = sorted(hooked) if method == "halos" else []
    errors += _diff(f"ssn {method} derived", sorted(doc.get("derived", [])), derived)
    return errors


def expected_rows(ntdll: NtdllTruth, names: list[str]) -> list[dict]:
    return [
        {
            "index": i,
            "name": name,
            "ssn": ntdll.position[name],
            "address": _hex(ntdll.entry_va(name)),
            "hash": _hex(hash_name(name)),
        }
        for i, name in enumerate(names)
    ]


def check_table(
    exit_code: int, stdout: str, blob: bytes | None, ntdll: NtdllTruth, hooked=None
) -> list[str]:
    """Table rows of `table --format json` and the blob written to --out."""
    doc, errors = _load(stdout, "table")
    if doc is None:
        return errors
    hooked = set(ntdll.hooks) if hooked is None else set(hooked)
    names = sorted(set(BASE_FUNCTIONS) | hooked)
    index = {name: i for i, name in enumerate(names)}
    errors += _diff("table exit", exit_code, 0)
    errors += _diff("table count", doc.get("count"), len(names))
    rows = _project(doc.get("entries", []), ("index", "name", "ssn", "address", "hash"))
    errors += _diff("table rows", rows, expected_rows(ntdll, names))
    errors += _diff(
        "table base indices", doc.get("base_indices"), [index[n] for n in BASE_FUNCTIONS]
    )
    errors += _diff("table blob", blob, table_blob(ntdll, names))
    return errors


_ROUTE = ["caller_module", "iat_lookup", "stub_slot", "table_lookup", "syscall_site"]


def expected_traces(ntdll: NtdllTruth, modules: list[ModuleTruth]) -> list[dict]:
    """Every Nt/Zw import of every forced target ends at its own syscall site.

    The table starts as the base functions plus the hooked stubs, in name
    order; forced imports are appended in the order the targets import them.
    """
    index = {name: i for i, name in enumerate(ntdll.table_names())}
    traces = []
    for m in modules:
        for fn in m.native_imports():
            name = canonical(fn)
            i = index.setdefault(name, len(index))
            syscall = _hex(ntdll.syscall_va(name))
            traces.append(
                {
                    "module": m.name,
                    "function": fn,
                    "kinds": _ROUTE,
                    "value": _hex(STUB_BASE + i * STUB_ENTRY_SIZE),
                    "index": i,
                    "ssn": ntdll.position[name],
                    "ret": syscall,
                    "syscall": syscall,
                    "passed": True,
                }
            )
    return traces


def _trace_view(trace: dict) -> dict:
    """The fields of one `simulate` trace that expected_traces predicts."""
    steps = trace.get("steps", [])
    kinds = [s.get("step") for s in steps]
    view = {"module": trace.get("module"), "function": trace.get("function"), "kinds": kinds}
    if kinds == _ROUTE:
        view.update(
            value=steps[1].get("value"),
            index=steps[2].get("index"),
            ssn=steps[3].get("ssn"),
            ret=steps[3].get("syscall_ret"),
            syscall=steps[4].get("va"),
        )
    view["passed"] = trace.get("verdict", {}).get("passed")
    return view


def check_simulate(exit_code: int, stdout: str, ntdll: NtdllTruth, modules) -> list[str]:
    """Trace terminals, SSNs and stub indices of `simulate --format json`."""
    doc, errors = _load(stdout, "simulate")
    if doc is None:
        return errors
    errors += _diff("simulate exit", exit_code, 0)
    errors += _diff("simulate all_passed", doc.get("all_passed"), True)
    want = expected_traces(ntdll, modules)
    got = [_trace_view(t) for t in doc.get("traces", [])]
    if len(got) != len(want):
        errors.append(f"simulate traces: got {len(got)}, want {len(want)}")
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    if bad:
        errors.append(f"simulate: {len(bad)} traces differ, first: {_short(bad[0])}")
    return errors


def native_call_count(modules: list[ModuleTruth]) -> int:
    return sum(len(m.native_imports()) for m in modules)

