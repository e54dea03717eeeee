from __future__ import annotations

import dataclasses
import functools
import json
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from hookscope import (
    RewriteConfig,
    SsnSearchParams,
    SyscallInfo,
    SyscallList,
    apply_rewrite,
    assign_stub_slots,
    build_syscall_list,
    enumerate_imports,
    hash_name,
    plan_rewrite,
    render_calls,
    resolve_call,
    resolve_imports,
    scan_iat_hooks,
    serialize_list,
    simulate_rewrite,
    verify_chain,
)
from hookscope.errors import (
    CorruptSlot,
    HookscopeError,
    MalformedTrace,
    OutOfRange,
    StaleEdit,
    TargetNotLoaded,
    UnknownImport,
)
from hookscope.fixtures import (
    ModuleSpec,
    build_process_model,
    build_synthetic_module,
)
import hookscope.simulate
from hookscope.simulate import (
    CallerModule,
    CallTrace,
    DirectNtdll,
    ForeignTarget,
    IatEdit,
    IatLookup,
    RewritePlan,
    StubSlot,
    SyscallSite,
    TableLookup,
    normalize_module_name,
    ntdll_slots,
    trace_to_json,
)

from conftest import (
    EXPECTED_TABLE,
    KERNELBASE_BASE,
    STUB_BASE,
    make_scenario_ntdll,
    make_scenario_process,
    positioned_functions,
)

PARAMS = SsnSearchParams()


def scenario_with_table():
    process = make_scenario_process()
    table = assign_stub_slots(
        build_syscall_list(process.ntdll().image, PARAMS), process.config
    )
    return process, table


class TestPlanRewrite:
    def test_create_user_process_routes_to_slot_two(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        edit = next(e for e in plan.edits if e.function == "NtCreateUserProcess")
        assert edit.entry_index == 2
        assert edit.new_value == STUB_BASE + 2 * 0x14
        assert edit.new_value == 0x00007FF7BE5D7C44

    def test_single_entry_table_routes_to_base(self):
        process, _ = scenario_with_table()
        ntdll = process.ntdll()
        from hookscope.image import NativeExportIndex

        index = NativeExportIndex(ntdll.image)
        rva = index.resolve("ZwWriteVirtualMemory")
        entry = SyscallInfo(
            ssn=58,
            address=ntdll.base + rva,
            syscall_ret=ntdll.base + rva + 0x12,
            stub_slot=STUB_BASE,
            name_hash=hash_name("ZwWriteVirtualMemory"),
        )
        table = SyscallList(entries=(entry,), base_indices=(0,) * 6)
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        [edit] = plan.edits
        assert edit.function == "NtWriteVirtualMemory"
        assert edit.entry_index == 0
        assert edit.new_value == STUB_BASE

    def test_non_native_imports_untouched(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        assert all(e.function != "RtlOpenCurrentUser" for e in plan.edits)

    def test_module_with_only_rtl_imports_zero_edits(self, scenario_ntdll):
        resolver = {("ntdll.dll", "RtlOpenCurrentUser"): scenario_ntdll.image_base + 0x5000}
        module = build_synthetic_module(
            ModuleSpec(name="rtluser", imports=(("ntdll.dll", "RtlOpenCurrentUser"),)),
            resolver,
            image_base=0x00007FFEAD000000,
        )
        model = build_process_model(
            scenario_ntdll,
            [("rtluser", module)],
            RewriteConfig(stub_base=STUB_BASE),
        )
        table = assign_stub_slots(build_syscall_list(scenario_ntdll, PARAMS), model.config)
        plan = plan_rewrite(model, table, [("rtluser", False)])
        assert plan.edits == ()

    def test_target_not_loaded(self):
        process, table = scenario_with_table()
        with pytest.raises(TargetNotLoaded):
            plan_rewrite(process, table, [("bcrypt", False)])

    def test_force_grows_table_for_unlisted_import(self, scenario_ntdll):
        # module imports a clean filler stub that no table entry covers
        exports_rva = 0x9CFC0 + 2 * 32
        resolver = {("ntdll.dll", "ZwFiller0002"): scenario_ntdll.image_base + exports_rva}
        module = build_synthetic_module(
            ModuleSpec(name="preloaded", imports=(("ntdll.dll", "ZwFiller0002"),)),
            resolver,
            image_base=0x00007FFEAD000000,
        )
        model = build_process_model(
            scenario_ntdll,
            [("preloaded", module)],
            RewriteConfig(stub_base=STUB_BASE),
        )
        table = assign_stub_slots(build_syscall_list(scenario_ntdll, PARAMS), model.config)
        baseline = table.count

        unforced = plan_rewrite(model, table, [("preloaded", False)])
        assert unforced.edits == ()
        assert unforced.table.count == baseline

        forced = plan_rewrite(model, table, [("preloaded", True)])
        [edit] = forced.edits
        assert forced.table.count == baseline + 1
        assert edit.entry_index == baseline
        grown = forced.table.entries[baseline]
        assert grown.ssn == 2
        assert grown.stub_slot == STUB_BASE + baseline * 0x14

    def test_force_growth_past_capacity(self, scenario_ntdll):
        from hookscope.errors import TableFull

        resolver = {("ntdll.dll", "ZwFiller0002"): scenario_ntdll.image_base + 0x9CFC0 + 2 * 32}
        module = build_synthetic_module(
            ModuleSpec(name="preloaded", imports=(("ntdll.dll", "ZwFiller0002"),)),
            resolver,
            image_base=0x00007FFEAD000000,
        )
        model = build_process_model(
            scenario_ntdll,
            [("preloaded", module)],
            RewriteConfig(stub_base=STUB_BASE),
        )
        full = SyscallList(
            entries=tuple(
                SyscallInfo(ssn=i, address=i, syscall_ret=i + 1, stub_slot=0, name_hash=i)
                for i in range(512)
            ),
            base_indices=(0,) * 6,
        )
        with pytest.raises(TableFull):
            plan_rewrite(model, full, [("preloaded", True)])


class TestProcessModelFind:
    def test_first_entry_wins_and_names_normalize_once(self, monkeypatch):
        process = make_scenario_process()
        ntdll, kernelbase = process.modules
        shadow = dataclasses.replace(kernelbase, name="C:\\Windows\\KernelBase.dll")
        model = dataclasses.replace(process, modules=(ntdll, kernelbase, shadow))
        calls = []
        real = hookscope.simulate.normalize_module_name
        monkeypatch.setattr(
            hookscope.simulate, "normalize_module_name", lambda n: calls.append(n) or real(n)
        )
        for _ in range(5):
            assert model.find("KERNELBASE.DLL") is kernelbase
            assert model.find("ntdll") is ntdll
            assert model.find("kernel32") is None
        assert len(calls) == 3 + 15

    def test_replaced_model_gets_a_fresh_map(self):
        process = make_scenario_process()
        ntdll, kernelbase = process.modules
        assert process.find("kernelbase") is kernelbase
        renamed = dataclasses.replace(kernelbase, name="kernel32.dll")
        replaced = dataclasses.replace(process, modules=(ntdll, renamed))
        assert replaced.find("kernelbase") is None
        assert replaced.find("Kernel32") is renamed
        assert process.find("kernelbase") is kernelbase


class TestApplyRewrite:
    def test_create_section_slot_after_apply(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        [module] = enumerate_imports(rewritten.find("kernelbase").image)
        slot = next(s for s in module.slots if s.imported_name == "NtCreateSection")
        assert slot.bound_value == STUB_BASE + 1 * 0x14  # table index 1

    def test_empty_plan_is_identity(self):
        process, table = scenario_with_table()
        from hookscope.simulate import RewritePlan

        before = [m.image.data for m in process.modules]
        rewritten = apply_rewrite(process, RewritePlan(edits=(), table=table))
        after = [m.image.data for m in rewritten.modules]
        assert before == after

    def test_double_apply_raises_stale_edit(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        once = apply_rewrite(process, plan)
        with pytest.raises(StaleEdit):
            apply_rewrite(once, plan)

    def test_non_planned_bytes_identical(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        original = process.find("kernelbase").image.data
        patched = rewritten.find("kernelbase").image.data
        touched = set()
        for edit in plan.edits:
            touched.update(range(edit.slot_iat_rva, edit.slot_iat_rva + 8))
        diff = {i for i in range(len(original)) if original[i] != patched[i]}
        assert diff <= touched
        assert len(diff) > 0
        assert process.ntdll().image.data == rewritten.ntdll().image.data

    def test_slot_past_buffer_raises_out_of_range(self):
        process, table = scenario_with_table()
        extent = process.find("kernelbase").image.extent
        edit = IatEdit(
            module="kernelbase",
            slot_iat_rva=extent - 4,
            function="NtOpenProcess",
            old_value=0,
            new_value=STUB_BASE,
            entry_index=0,
        )
        with pytest.raises(OutOfRange):
            apply_rewrite(process, RewritePlan(edits=(edit,), table=table))


def rewritten_kernel32_first(ntdll):
    """A caller importing NtOpenProcess from kernel32.dll ahead of ntdll.dll,
    after the rewrite of its ntdll slot, plus the table it dispatches through."""
    module = build_synthetic_module(
        ModuleSpec(
            name="caller",
            imports=(("kernel32.dll", "NtOpenProcess"), ("ntdll.dll", "NtOpenProcess")),
        ),
        {
            ("kernel32.dll", "NtOpenProcess"): 0x00007FFEA0001000,
            ("ntdll.dll", "NtOpenProcess"): ntdll.image_base + 0x9CFC0 + 38 * 32,
        },
        image_base=KERNELBASE_BASE,
    )
    process = build_process_model(
        ntdll, [("caller", module)], RewriteConfig(stub_base=STUB_BASE)
    )
    table = assign_stub_slots(build_syscall_list(ntdll, PARAMS), process.config)
    plan = plan_rewrite(process, table, [("caller", False)])
    return apply_rewrite(process, plan), plan.table


class TestResolveCall:
    def test_native_name_traces_the_ntdll_slot(self, scenario_ntdll):
        rewritten, table = rewritten_kernel32_first(scenario_ntdll)
        trace = resolve_call(rewritten, "caller", "NtOpenProcess", table)
        [call] = resolve_imports(rewritten, ["caller"], table)
        assert trace == call.trace
        assert isinstance(trace.steps[-1], SyscallSite)
        assert verify_chain(trace, rewritten).passed

    def test_pre_rewrite_direct(self):
        process, table = scenario_with_table()
        trace = resolve_call(process, "kernelbase", "NtCreateUserProcess", table)
        assert [type(s) for s in trace.steps] == [CallerModule, IatLookup, DirectNtdll]
        assert trace.steps[-1].va == 0x00007FFEB258E8E0

    def test_post_rewrite_chain(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        trace = resolve_call(rewritten, "kernelbase", "NtCreateUserProcess", plan.table)
        kinds = [type(s) for s in trace.steps]
        assert kinds == [CallerModule, IatLookup, StubSlot, TableLookup, SyscallSite]
        assert trace.steps[2].index == 2
        assert trace.steps[3].ssn == 201
        assert trace.steps[3].syscall_ret == 0x00007FFEB258E8F2
        assert trace.steps[4].va == 0x00007FFEB258E8F2

    def test_tampered_slot_is_foreign(self):
        process = make_scenario_process(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        table = assign_stub_slots(
            build_syscall_list(process.ntdll().image, PARAMS), process.config
        )
        trace = resolve_call(process, "kernelbase", "NtOpenProcess", table)
        assert isinstance(trace.steps[-1], ForeignTarget)
        assert trace.steps[-1].va == 0x00007FF9E132D610

    def test_unknown_import(self):
        process, table = scenario_with_table()
        with pytest.raises(UnknownImport):
            resolve_call(process, "kernelbase", "NtNotImported", table)
        with pytest.raises(UnknownImport):
            resolve_call(process, "nosuchmodule", "NtCreateUserProcess", table)

    @pytest.mark.parametrize("imported", ["NtClose", "RtlOpenCurrentUser"])
    def test_name_outside_ntdll_slots_is_unknown(self, imported):
        # NtClose is imported only from kernel32.dll; RtlOpenCurrentUser comes
        # from ntdll.dll but is no Nt/Zw name. Neither is a slot ntdll_slots gives.
        process = make_scenario_process(
            extra_imports=(("kernel32.dll", "NtClose"),), tamper={"NtClose": 0x00007FFEA0001000}
        )
        table = assign_stub_slots(
            build_syscall_list(process.ntdll().image, PARAMS), process.config
        )
        with pytest.raises(UnknownImport, match=imported):
            resolve_call(process, "kernelbase", imported, table)

    def test_misaligned_stub_value_is_corrupt(self):
        process = make_scenario_process(tamper={"NtOpenProcess": STUB_BASE + 3})
        table = assign_stub_slots(
            build_syscall_list(process.ntdll().image, PARAMS), process.config
        )
        with pytest.raises(CorruptSlot):
            resolve_call(process, "kernelbase", "NtOpenProcess", table)

    def test_value_past_stub_region_is_foreign(self):
        process, table = scenario_with_table()
        bogus = STUB_BASE + table.count * 0x14
        tampered = make_scenario_process(tamper={"NtOpenProcess": bogus})
        trace = resolve_call(tampered, "kernelbase", "NtOpenProcess", table)
        assert isinstance(trace.steps[-1], ForeignTarget)

    def test_emulation_reads_serialized_bytes(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        blob = serialize_list(plan.table)
        for name, ssn in EXPECTED_TABLE:
            imported = "Nt" + name[2:]
            trace = resolve_call(rewritten, "kernelbase", imported, plan.table)
            stub = trace.steps[2]
            lookup = trace.steps[3]
            record = 8 + stub.index * 0x28
            assert lookup.ssn == struct.unpack_from("<Q", blob, record)[0] == ssn
            assert (
                lookup.syscall_ret
                == struct.unpack_from("<Q", blob, record + 0x10)[0]
                == plan.table.entries[stub.index].syscall_ret
            )

    def test_index_soundness_for_every_edit(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        for edit in plan.edits:
            trace = resolve_call(rewritten, edit.module, edit.function, plan.table)
            stub = next(s for s in trace.steps if isinstance(s, StubSlot))
            assert stub.index == edit.entry_index


def native_ntdll_imports(process, module):
    return [
        slot.imported_name
        for imported in enumerate_imports(process.find(module).image)
        if imported.dll_name == "ntdll.dll"
        for slot in imported.slots
        if slot.imported_name.startswith(("Nt", "Zw"))
    ]


class TestNtdllSlots:
    def test_scan_plan_and_trace_agree_on_the_slots(self, scenario_ntdll):
        # An Nt name from kernel32.dll ahead of ntdll's, ntdll under two
        # spellings, and an ordinal and an Rtl name that are no Nt/Zw slots.
        imports = (
            ("kernel32.dll", "NtOpenProcess"),
            ("ntdll.dll", "NtOpenProcess"),
            ("ntdll.dll", 7),
            ("ntdll.dll", "RtlOpenCurrentUser"),
            ("NTDLL.DLL", "ZwCreateSection"),
            ("NTDLL.DLL", "NtDelayExecution"),
        )
        # Every slot holds its own foreign value, so the scan flags each slot it checks.
        resolver = {imported: 0x00007FF9E1320000 + 0x10 * i for i, imported in enumerate(imports)}
        module = build_synthetic_module(
            ModuleSpec(name="caller", imports=imports), resolver, image_base=KERNELBASE_BASE
        )
        # A module that imports nothing from ntdll has no slots and no scan entry.
        other = build_synthetic_module(
            ModuleSpec(name="other", imports=(("kernel32.dll", "NtClose"),)),
            {("kernel32.dll", "NtClose"): 0x00007FFEA0001000},
            image_base=0x00007FFEAC000000,
        )
        process = build_process_model(
            scenario_ntdll,
            [("caller", module), ("other", other)],
            RewriteConfig(stub_base=STUB_BASE),
        )
        assert ntdll_slots(other, process.ntdll().name) is None
        slots = ntdll_slots(module, process.ntdll().name)
        assert [s.imported_name for s in slots] == [
            "NtOpenProcess",
            "ZwCreateSection",
            "NtDelayExecution",
        ]
        assert slots[0].bound_value == resolver[("ntdll.dll", "NtOpenProcess")]

        [(scanned, findings)] = scan_iat_hooks(process).items()
        assert scanned == "caller"
        assert [(f.function, f.observed_va) for f in findings] == sorted(
            (s.imported_name, s.bound_value) for s in slots
        )

        table = assign_stub_slots(build_syscall_list(scenario_ntdll, PARAMS), process.config)
        plan = plan_rewrite(process, table, [("caller", False)])
        assert [(e.function, e.slot_iat_rva, e.old_value) for e in plan.edits] == [
            (s.imported_name, s.iat_rva, s.bound_value) for s in slots
        ]

        rewritten = apply_rewrite(process, plan)
        calls = resolve_imports(rewritten, ["caller"], plan.table)
        assert [(c.function, c.trace.steps[1].slot_va) for c in calls] == [
            (s.imported_name, KERNELBASE_BASE + s.iat_rva) for s in slots
        ]
        assert all(c.verdict.passed for c in calls)


class TestResolveImports:
    @pytest.mark.parametrize("rewrite", [False, True])
    def test_matches_resolve_call_per_import(self, rewrite):
        process = make_scenario_process(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        table = assign_stub_slots(
            build_syscall_list(process.ntdll().image, PARAMS), process.config
        )
        if rewrite:
            plan = plan_rewrite(process, table, [("kernelbase", False)])
            process, table = apply_rewrite(process, plan), plan.table
        calls = resolve_imports(process, ["kernelbase"], table)
        names = native_ntdll_imports(process, "kernelbase")
        assert [c.function for c in calls] == names
        for call, name in zip(calls, names):
            trace = resolve_call(process, "kernelbase", name, table)
            assert call.module == "kernelbase"
            assert call.trace == trace
            assert call.verdict == verify_chain(trace, process)
        ends = {type(c.trace.steps[-1]) for c in calls}
        assert ends == ({SyscallSite} if rewrite else {DirectNtdll, ForeignTarget})

    def test_each_import_traces_its_own_slot(self, scenario_ntdll):
        rewritten, table = rewritten_kernel32_first(scenario_ntdll)
        [call] = resolve_imports(rewritten, ["caller"], table)
        assert call.function == "NtOpenProcess"
        assert trace_to_json(call.trace)[-1]["step"] == "syscall_site"
        assert call.trace.steps[3].ssn == 38
        assert call.verdict.passed

    def test_unloaded_target_raises(self):
        process, table = scenario_with_table()
        with pytest.raises(TargetNotLoaded):
            resolve_imports(process, ["kernelbase", "bcrypt"], table)


class TestVerifyChain:
    def test_rewritten_chain_passes(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        trace = resolve_call(rewritten, "kernelbase", "NtCreateUserProcess", plan.table)
        verdict = verify_chain(trace, rewritten)
        assert verdict.passed
        assert verdict.reasons == ()

    def test_direct_chain_passes_trivially(self):
        process, table = scenario_with_table()
        trace = resolve_call(process, "kernelbase", "NtCreateUserProcess", table)
        assert verify_chain(trace, process).passed

    def test_foreign_target_fails_outside_ntdll(self):
        process = make_scenario_process(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        table = assign_stub_slots(
            build_syscall_list(process.ntdll().image, PARAMS), process.config
        )
        trace = resolve_call(process, "kernelbase", "NtOpenProcess", table)
        verdict = verify_chain(trace, process)
        assert not verdict.passed
        assert "OutsideNtdll" in verdict.reasons

    @pytest.mark.parametrize(
        "steps",
        [(), (SyscallSite(va=0x00007FFEB258E8F2),), (IatLookup(0, 0), CallerModule("kernelbase"))],
    )
    def test_malformed_trace_is_typed_error(self, steps):
        process, _ = scenario_with_table()
        with pytest.raises(MalformedTrace):
            verify_chain(CallTrace(steps=steps), process)


class TestRewriteClosure:
    def test_full_closure_over_random_processes(self, clean_478_ntdll):
        rng = random.Random(2024)
        ntdll = clean_478_ntdll
        exports = {
            name: ntdll.image_base + 0x1000 + i * 32
            for i, (name, _) in enumerate(positioned_functions(478))
        }
        names = sorted(exports)
        for round_no in range(10):
            chosen = rng.sample(names, k=rng.randint(3, 40))
            imports = tuple(("ntdll.dll", n) for n in chosen)
            resolver = {("ntdll.dll", n): exports[n] for n in chosen}
            module = build_synthetic_module(
                ModuleSpec(name="mod", imports=imports),
                resolver,
                image_base=0x00007FFE30000000,
            )
            config = RewriteConfig(stub_base=0x00007FF7AA000000)
            # the clean image has no base six; hand-build a table via force
            model = build_process_model(
                ntdll, [("mod", module)], config
            )
            empty = SyscallList(entries=(), base_indices=(0,) * 6)
            plan = plan_rewrite(model, empty, [("mod", True)])
            rewritten = apply_rewrite(model, plan)
            for n in chosen:
                trace = resolve_call(rewritten, "mod", n, plan.table)
                assert isinstance(trace.steps[-1], SyscallSite)
                verdict = verify_chain(trace, rewritten)
                assert verdict.passed, (round_no, n, verdict)


class TestTraceJson:
    def test_step_records_in_order(self):
        process, table = scenario_with_table()
        plan = plan_rewrite(process, table, [("kernelbase", False)])
        rewritten = apply_rewrite(process, plan)
        trace = resolve_call(rewritten, "kernelbase", "NtCreateUserProcess", plan.table)
        doc = trace_to_json(trace)
        assert [r["step"] for r in doc] == [
            "caller_module",
            "iat_lookup",
            "stub_slot",
            "table_lookup",
            "syscall_site",
        ]
        assert doc[2]["index"] == 2
        assert doc[4]["va"] == "0x00007ffeb258e8f2"


ADVAPI32_BASE = 0x00007FFEAF000000
FOREIGN_VA = 0x00007FF9E132D610


@functools.cache
def three_module_process():
    """Scenario ntdll, kernelbase with one tampered slot, and advapi32, whose
    imports are partly outside the scenario table."""
    ntdll = make_scenario_ntdll()
    kernelbase = make_scenario_process(ntdll, tamper={"NtOpenProcess": FOREIGN_VA}).modules[1]
    names = ("NtOpenProcess", "ZwFiller0100", "NtFiller0150", "NtFiller0151", "NtDelayExecution")
    imports = tuple(("ntdll.dll", n) for n in names)
    resolver = {
        (dll, fn): ntdll.image_base + ntdll.native_exports.resolve(fn) for dll, fn in imports
    }
    advapi32 = build_synthetic_module(
        ModuleSpec(name="advapi32", imports=imports, tamper={"NtFiller0151": FOREIGN_VA}),
        resolver,
        image_base=ADVAPI32_BASE,
    )
    return build_process_model(
        ntdll,
        [("kernelbase", kernelbase.image), ("advapi32", advapi32)],
        RewriteConfig(stub_base=STUB_BASE),
    )


def reference_pipeline(process, table, targets, forced, params=None):
    """The explicit pipeline `simulate_rewrite` replaces: each module once, under
    its first listing, forced when any of its listings is forced."""
    built = assign_stub_slots(table, process.config)
    key = normalize_module_name
    ordered = []
    for name in list(targets) + list(forced):
        if all(key(name) != key(seen) for seen, _ in ordered):
            ordered.append((name, any(key(name) == key(f) for f in forced)))
    plan = plan_rewrite(process, built, ordered, params)
    rewritten = apply_rewrite(process, plan)
    return resolve_imports(rewritten, [name for name, _ in ordered], plan.table)


def outcome(run):
    try:
        return run()
    except HookscopeError as exc:
        return type(exc), str(exc)


MODULE_NAMES = ("kernelbase", "advapi32", "ADVAPI32.dll", "C:\\x\\KernelBase.dll")


@functools.cache
def three_module_table():
    return build_syscall_list(three_module_process().ntdll().image, PARAMS)


class TestSimulateRewrite:
    @given(
        targets=st.lists(st.sampled_from(MODULE_NAMES), max_size=3, unique=True),
        forced=st.lists(st.sampled_from(MODULE_NAMES), max_size=3),
    )
    @example(targets=["kernelbase"], forced=["advapi32", "bcrypt"])
    @example(targets=["kernelbase", "C:\\x\\KernelBase.dll"], forced=["advapi32", "ADVAPI32.dll"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_explicit_pipeline(self, targets, forced):
        process, table = three_module_process(), three_module_table()
        got = outcome(lambda: simulate_rewrite(process, table, targets, forced, PARAMS))
        want = outcome(lambda: reference_pipeline(process, table, targets, forced, PARAMS))
        assert got == want
        assert got[:1] != (StaleEdit,)  # a module listed twice is still planned once

    def test_forced_growth_reaches_every_import(self):
        process, table = three_module_process(), three_module_table()
        calls = simulate_rewrite(process, table, ["advapi32"], ["advapi32", "kernelbase"])
        assert [c.module for c in calls] == ["advapi32"] * 5 + ["kernelbase"] * len(EXPECTED_TABLE)
        assert all(isinstance(c.trace.steps[-1], SyscallSite) for c in calls)


def reference_text(results):
    """The per-step-type text rendering `render_calls` replaces."""
    lines = []
    for call in results:
        parts = [f"{call.module}!{call.function}"]
        for step in call.trace.steps[1:]:
            if isinstance(step, StubSlot):
                parts.append(f"Fnc{step.index:04X}")
            elif isinstance(step, TableLookup):
                parts.append(f"ssn {step.ssn}")
            elif isinstance(step, SyscallSite):
                parts.append(f"syscall 0x{step.va:016x}")
            elif isinstance(step, DirectNtdll):
                parts.append(f"ntdll 0x{step.va:016x}")
            elif isinstance(step, ForeignTarget):
                parts.append(f"foreign 0x{step.va:016x}")
        status = "ok" if call.verdict.passed else "FAIL " + ",".join(call.verdict.reasons)
        lines.append(" -> ".join(parts) + f" [{status}]")
    lines.append(f"[+] Resolved {len(results)} calls")
    return "\n".join(lines) + "\n"


def reference_records(trace):
    """The JSON record of each trace step, spelled out per step type."""
    records = []
    for step in trace.steps:
        if isinstance(step, CallerModule):
            records.append({"step": "caller_module", "module": step.module})
        elif isinstance(step, IatLookup):
            records.append(
                {
                    "step": "iat_lookup",
                    "slot_va": f"0x{step.slot_va:016x}",
                    "value": f"0x{step.value:016x}",
                }
            )
        elif isinstance(step, StubSlot):
            records.append({"step": "stub_slot", "index": step.index})
        elif isinstance(step, TableLookup):
            records.append(
                {
                    "step": "table_lookup",
                    "ssn": step.ssn,
                    "syscall_ret": f"0x{step.syscall_ret:016x}",
                }
            )
        elif isinstance(step, SyscallSite):
            records.append({"step": "syscall_site", "va": f"0x{step.va:016x}"})
        elif isinstance(step, DirectNtdll):
            records.append({"step": "direct_ntdll", "va": f"0x{step.va:016x}"})
        elif isinstance(step, ForeignTarget):
            records.append({"step": "foreign_target", "va": f"0x{step.va:016x}"})
        else:
            raise AssertionError(f"unknown step {step!r}")
    return records


class TestRenderCalls:
    @pytest.fixture(scope="class")
    def results(self):
        process, table = three_module_process(), three_module_table()
        # One record whose syscall address lies outside ntdll fails its chain.
        moved = dataclasses.replace(table.entries[0], syscall_ret=FOREIGN_VA)
        table = dataclasses.replace(table, entries=(moved,) + table.entries[1:])
        return simulate_rewrite(process, table, ["advapi32", "kernelbase"], ["kernelbase"])

    def test_results_cover_every_printed_step_and_a_failed_verdict(self, results):
        kinds = {type(step) for call in results for step in call.trace.steps}
        assert {StubSlot, TableLookup, SyscallSite, DirectNtdll, ForeignTarget} <= kinds
        failed = [c for c in results if not c.verdict.passed]
        assert {type(c.trace.steps[-1]) for c in failed} == {SyscallSite, ForeignTarget}
        assert all(c.verdict.reasons == ("OutsideNtdll",) for c in failed)

    def test_step_records_match_reference(self, results):
        traces = [call.trace for call in results]
        kinds = {type(step) for trace in traces for step in trace.steps}
        assert kinds == {
            CallerModule, IatLookup, StubSlot, TableLookup, SyscallSite, DirectNtdll, ForeignTarget
        }
        # Small values show the zero padding, hex letters the case.
        head = (CallerModule("m"), IatLookup(slot_va=0xAB, value=0xCD))
        traces += [
            CallTrace(head + (StubSlot(0x1F), TableLookup(7, syscall_ret=0xEF), SyscallSite(0xEF))),
            CallTrace(head + (DirectNtdll(0xCD),)),
            CallTrace(head + (ForeignTarget(0xCD),)),
        ]
        for trace in traces:
            got = [list(record.items()) for record in trace_to_json(trace)]
            assert got == [list(record.items()) for record in reference_records(trace)]

    def test_text_matches_reference(self, results):
        assert render_calls(results, as_json=False) == reference_text(results)
        assert render_calls((), as_json=False) == reference_text(())

    def test_json_document(self, results):
        doc = json.loads(render_calls(results, as_json=True))
        assert doc["all_passed"] is False
        assert [t["steps"] for t in doc["traces"]] == [trace_to_json(c.trace) for c in results]
        assert [t["verdict"]["reasons"] for t in doc["traces"]] == [
            list(c.verdict.reasons) for c in results
        ]
