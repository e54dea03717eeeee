from __future__ import annotations

import dataclasses
import random
import struct

import pytest

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
    resolve_call,
    resolve_imports,
    serialize_list,
    verify_chain,
)
from hookscope.errors import (
    CorruptSlot,
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
    trace_to_json,
)

from conftest import (
    EXPECTED_TABLE,
    KERNELBASE_BASE,
    STUB_BASE,
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
            [0x00007FFEAD000000],
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
            [0x00007FFEAD000000],
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
            [0x00007FFEAD000000],
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
        ntdll, [("caller", module)], [KERNELBASE_BASE], RewriteConfig(stub_base=STUB_BASE)
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
                ntdll, [("mod", module)], [0x00007FFE30000000], config
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
