"""Acceptance suite: one test per criterion, checked at its stated tolerance.

Each test prints a single PASS line on success; run with -v (or -s) to see
one line per criterion. Everything here runs on generated fixtures only.
"""

from __future__ import annotations

import dataclasses
import random
import struct
import time

from hookscope import (
    RewriteConfig,
    SsnSearchParams,
    SyscallList,
    apply_rewrite,
    assign_stub_slots,
    build_syscall_list,
    derive_ssn_by_sort,
    derive_ssn_neighbors,
    deserialize_list,
    enumerate_exports,
    enumerate_imports,
    find_syscall_instruction,
    parse_image,
    plan_rewrite,
    read_clean_ssn,
    resolve_call,
    scan_iat_hooks,
    scan_inline_hooks,
    serialize_list,
    verify_chain,
)
from hookscope.errors import HookscopeError
from hookscope.fixtures import (
    JmpRel32Hook,
    ModuleSpec,
    NtdllSpec,
    build_process_model,
    build_synthetic_module,
    build_synthetic_ntdll,
)
from hookscope.hooks import decode_jmp_rel32
from hookscope.image import Layout
from hookscope.simulate import StubSlot, SyscallSite
from hookscope.table import LIST_ENTRY_SIZE, STUB_ENTRY_SIZE, debug_dump

from conftest import (
    EXPECTED_TABLE,
    NTDLL_BASE,
    STUB_BASE,
    make_scenario_process,
    positioned_functions,
)

PARAMS = SsnSearchParams()


def _report(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS - {message}")


def test_criterion_01_jmp_target_arithmetic():
    prologue = bytes.fromhex("e9f81b1600") + b"\xcc\xcc\xcc"
    entry = 0x00007FFF96BEE700
    assert decode_jmp_rel32(entry, prologue) == 0x00007FFF96D502FD
    decode_jmp_rel32(entry, prologue)  # warm
    start = time.perf_counter()
    decode_jmp_rel32(entry, prologue)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _report(1, f"jmp rel32 decodes to 0x7fff96d502fd bit-exact in {elapsed*1e6:.1f}us")


def test_criterion_02_clean_prologue_reads():
    vectors = {
        "NtReadFile": (bytes.fromhex("4c8bd1b806000000"), 6),
        "NtWriteFile": (bytes.fromhex("4c8bd1b808000000"), 8),
        "NtCreateProcess": (bytes.fromhex("4c8bd1b8ba000000"), 0xBA),
        "NtCreateUserProcess": (bytes.fromhex("4c8bd1b8c9000000"), 0xC9),
    }
    for name, (prologue, expected) in vectors.items():
        assert read_clean_ssn(prologue) == expected, name
    assert read_clean_ssn(bytes.fromhex("e9f81b1600cccccc")) is None
    _report(2, "stub reads give 6 / 8 / 0xBA / 0xC9 bit-exact")


def test_criterion_03_neighbor_derivation_oracle(clean_478_ntdll):
    # narrative case: hooked stub between intact neighbors numbered 7 and 9
    narrow = build_synthetic_ntdll(
        NtdllSpec(
            functions=(
                ("ZwDeviceIoControlFile", 7),
                ("NtWriteFile", 8),
                ("ZwRemoveIoCompletion", 9),
            ),
            hooks={"NtWriteFile": JmpRel32Hook(0x8000)},
        )
    )
    assert derive_ssn_neighbors(narrow, narrow.image_base + 0x1000 + 32, PARAMS) == 8

    # 1000 random hook subsets of the 478-stub image, every stub re-derived
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    base = clean_478_ntdll.image_base
    clean = clean_478_ntdll.data
    checked = 0
    for _ in range(1000):
        p = rng.uniform(0.05, 0.85)
        hooked = [i for i in range(478) if rng.random() < p]
        if len(hooked) == 478:
            hooked.pop(rng.randrange(478))
        buf = bytearray(clean)
        for i in hooked:
            off = 0x1000 + i * 32
            buf[off : off + 8] = b"\x68\x11\x22\x33\x44\xc3\x90\x90"
        image = dataclasses.replace(clean_478_ntdll, data=bytes(buf))
        for i in hooked:
            assert derive_ssn_neighbors(image, base + 0x1000 + i * 32, PARAMS) == i
            checked += 1
    elapsed = time.perf_counter() - start
    _report(3, f"{checked} derivations over 1000 subsets all match in {elapsed:.1f}s")


def test_criterion_04_method_agreement(clean_478_ntdll):
    by_sort = derive_ssn_by_sort(clean_478_ntdll)
    by_read = {}
    for entry in enumerate_exports(clean_478_ntdll):
        if entry.name and entry.name.startswith("Zw"):
            by_read[entry.name] = read_clean_ssn(
                clean_478_ntdll.data[entry.rva : entry.rva + 8]
            )
    assert len(by_sort) == 478
    assert by_sort == by_read
    _report(4, "sort-based and prologue-based maps identical over 478 functions")


def test_criterion_05_syscall_locator(scenario_ntdll, clean_478_ntdll):
    found = find_syscall_instruction(scenario_ntdll, 0x00007FFEB258E8E0, PARAMS)
    assert found == 0x00007FFEB258E8F2

    anchored = build_synthetic_ntdll(
        NtdllSpec(functions=positioned_functions(10, {8: "NtWriteFile"}), base_rva=0x9CFD0),
        image_base=NTDLL_BASE,
    )
    found = find_syscall_instruction(anchored, 0x00007FFEB258D0D0, PARAMS)
    assert found == 0x00007FFEB258D0E2

    for i in range(478):
        entry = clean_478_ntdll.image_base + 0x1000 + i * 32
        assert find_syscall_instruction(clean_478_ntdll, entry, PARAMS) == entry + 0x12
    _report(5, "syscall located at entry+0x12 everywhere, incl. ...E8F2 and ...D0E2")


def test_criterion_06_table_layout(scenario_ntdll):
    table = assign_stub_slots(
        build_syscall_list(scenario_ntdll, PARAMS), RewriteConfig(stub_base=STUB_BASE)
    )
    blob = serialize_list(table)
    assert LIST_ENTRY_SIZE == 0x28 and STUB_ENTRY_SIZE == 0x14
    for i, entry in enumerate(table.entries):
        record = 8 + i * 0x28  # dispatch arithmetic: count header, then i*0x28
        assert struct.unpack_from("<Q", blob, record)[0] == entry.ssn
        assert struct.unpack_from("<Q", blob, record + 0x10)[0] == entry.syscall_ret
        assert entry.stub_slot == STUB_BASE + i * 0x14
    _report(6, "record stride 0x28, syscall_ret at +0x10, stub stride 0x14")


def test_criterion_07_reference_table_reproduction(scenario_ntdll):
    table = build_syscall_list(scenario_ntdll, PARAMS)
    rows = debug_dump(table, scenario_ntdll)
    assert [(r["name"], r["ssn"]) for r in rows] == EXPECTED_TABLE
    names = [r["name"] for r in rows]
    assert names == sorted(names)
    assert rows[2]["name"] == "ZwCreateUserProcess" and rows[2]["ssn"] == 201

    process = make_scenario_process(ntdll=scenario_ntdll)
    table = assign_stub_slots(table, process.config)
    plan = plan_rewrite(process, table, [("kernelbase", False)])
    rewritten = apply_rewrite(process, plan)
    trace = resolve_call(rewritten, "kernelbase", "NtCreateUserProcess", plan.table)
    stub = next(s for s in trace.steps if isinstance(s, StubSlot))
    assert stub.index == 2
    _report(7, "12 pairs alphabetical, index 2 = ZwCreateUserProcess/201, stub 2 resolves")


def test_criterion_08_iat_scan_counts(scenario_ntdll):
    exports = {
        e.name: scenario_ntdll.image_base + e.rva
        for e in enumerate_exports(scenario_ntdll)
        if e.name is not None
    }
    zw_names = sorted(n for n in exports if n.startswith("Zw"))[:100]
    imports = tuple(("ntdll.dll", n) for n in zw_names)
    tampered = {n: 0x00007FF9E1320000 + i * 0x10 for i, n in enumerate(zw_names[:81])}
    resolver = {(dll, fn): exports[fn] for dll, fn in imports}
    config = RewriteConfig(stub_base=STUB_BASE)

    hooked_module = build_synthetic_module(
        ModuleSpec(name="kernel32", imports=imports, tamper=tampered),
        resolver,
        image_base=0x00007FFEAC000000,
    )
    model = build_process_model(
        scenario_ntdll, [("kernel32", hooked_module)], config
    )
    assert len(scan_iat_hooks(model)["kernel32"]) == 81

    clean_module = build_synthetic_module(
        ModuleSpec(name="kernel32", imports=imports), resolver, image_base=0x00007FFEAC000000
    )
    clean_model = build_process_model(
        scenario_ntdll, [("kernel32", clean_module)], config
    )
    counts = {name: len(f) for name, f in scan_iat_hooks(clean_model).items()}
    assert counts == {"kernel32": 0}
    _report(8, "tampered model reports exactly 81 findings; clean model reports 0")


def test_criterion_09_rewrite_closure(clean_478_ntdll):
    process = make_scenario_process()
    table = assign_stub_slots(
        build_syscall_list(process.ntdll().image, PARAMS), process.config
    )
    plan = plan_rewrite(process, table, [("kernelbase", False)])
    rewritten = apply_rewrite(process, plan)

    touched = {
        (e.module, rva)
        for e in plan.edits
        for rva in range(e.slot_iat_rva, e.slot_iat_rva + 8)
    }
    for before, after in zip(process.modules, rewritten.modules):
        for off, (a, b) in enumerate(zip(before.image.data, after.image.data)):
            if a != b:
                assert (before.name, off) in touched

    resolved = 0
    for imported in enumerate_imports(rewritten.find("kernelbase").image):
        for slot in imported.slots:
            name = slot.imported_name
            if not isinstance(name, str) or not (name.startswith("Nt") or name.startswith("Zw")):
                continue
            trace = resolve_call(rewritten, "kernelbase", name, plan.table)
            assert isinstance(trace.steps[-1], SyscallSite)
            assert verify_chain(trace, rewritten).passed
            resolved += 1
    assert resolved == 12

    # randomized extension: fresh processes, forced coverage of every import
    rng = random.Random(2_718_281)
    exports = {
        name: clean_478_ntdll.image_base + 0x1000 + i * 32
        for i, (name, _) in enumerate(positioned_functions(478))
    }
    names = sorted(exports)
    rounds = 0
    for _ in range(20):
        chosen = rng.sample(names, k=rng.randint(3, 60))
        resolver = {("ntdll.dll", n): exports[n] for n in chosen}
        module = build_synthetic_module(
            ModuleSpec(name="mod", imports=tuple(("ntdll.dll", n) for n in chosen)),
            resolver,
            image_base=0x00007FFE30000000,
        )
        model = build_process_model(
            clean_478_ntdll,
            [("mod", module)],
            RewriteConfig(stub_base=0x00007FF7AA000000),
        )
        plan = plan_rewrite(model, SyscallList(entries=(), base_indices=(0,) * 6), [("mod", True)])
        redone = apply_rewrite(model, plan)
        for n in chosen:
            trace = resolve_call(redone, "mod", n, plan.table)
            assert isinstance(trace.steps[-1], SyscallSite)
            assert verify_chain(trace, redone).passed
            rounds += 1
    _report(9, f"closure holds: 12 reference + {rounds} randomized chains all pass")


def test_criterion_10_robustness(clean_478_ntdll, scenario_process):
    rng = random.Random(0xFEED)
    ntdll_bytes = clean_478_ntdll.data
    module_bytes = scenario_process.find("kernelbase").image.data
    blob = serialize_list(
        assign_stub_slots(
            build_syscall_list(scenario_process.ntdll().image, PARAMS),
            scenario_process.config,
        )
    )
    victims = [ntdll_bytes, module_bytes]

    start = time.perf_counter()
    survived = 0
    for case in range(10_000):
        if case % 5 == 4:
            target = bytearray(blob)
        else:
            target = bytearray(victims[case % 2])
        op = rng.randrange(3)
        if op in (0, 2) and len(target) > 1:
            target = target[: rng.randrange(1, len(target))]
        if op in (1, 2):
            for _ in range(rng.randint(1, 16)):
                target[rng.randrange(len(target))] = rng.randrange(256)
        data = bytes(target)
        try:
            if case % 5 == 4:
                deserialize_list(data)
            else:
                layout = Layout.LOADED if case % 2 == 0 else Layout.FILE
                image = parse_image(data, layout, image_base=0x7FFE10000000)
                enumerate_exports(image)
                enumerate_imports(image)
                if layout is Layout.LOADED:
                    scan_inline_hooks(image)
        except HookscopeError:
            pass
        survived += 1
    elapsed = time.perf_counter() - start
    assert survived == 10_000
    assert elapsed < 60.0
    _report(10, f"10000 mutated inputs produced typed errors only in {elapsed:.1f}s")
