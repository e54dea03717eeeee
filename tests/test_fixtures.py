from __future__ import annotations

import pytest

from hookscope import (
    RewriteConfig,
    enumerate_exports,
    enumerate_imports,
    read_clean_ssn,
    scan_inline_hooks,
)
from hookscope.errors import OverlappingRanges, SpecInvalid, UnresolvedImport
from hookscope.fixtures import (
    GarbageHook,
    JmpRel32Hook,
    ModuleSpec,
    NtdllSpec,
    build_process_model,
    build_synthetic_module,
    build_synthetic_ntdll,
)
from hookscope.hooks import HookDetail
from hookscope.ssn import SsnSearchParams, find_syscall_instruction

from conftest import positioned_functions


class TestNtdllGenerator:
    def test_clean_body_bytes(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtWriteFile", 8),)))
        body = image.data[0x1000:0x1008]
        assert body == b"\x4c\x8b\xd1\xb8\x08\x00\x00\x00"

    def test_syscall_at_offset_0x12(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtWriteFile", 8),)))
        assert image.data[0x1012:0x1015] == b"\x0f\x05\xc3"

    def test_parse_recovers_exports_and_ssns(self):
        functions = positioned_functions(32)
        image = build_synthetic_ntdll(NtdllSpec(functions=functions))
        by_name = {e.name: e.rva for e in enumerate_exports(image)}
        assert len(by_name) == 32
        for i, (name, ssn) in enumerate(functions):
            rva = by_name[name]
            assert rva == 0x1000 + i * 32
            assert read_clean_ssn(image.data[rva : rva + 8]) == ssn

    def test_parse_recovers_hooks(self):
        functions = positioned_functions(16)
        hooks = {"ZwFiller0003": JmpRel32Hook(0x9000), "ZwFiller0009": GarbageHook()}
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        findings = {f.function: f for f in scan_inline_hooks(image)}
        assert set(findings) == set(hooks)
        assert findings["ZwFiller0003"].detail is HookDetail.JMP_REL32
        assert findings["ZwFiller0003"].observed_va == image.image_base + 0x9000
        assert findings["ZwFiller0009"].detail is HookDetail.OTHER_PROLOGUE

    def test_jmp_hook_layout(self):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=(("NtHooked", 3),), hooks={"NtHooked": JmpRel32Hook(0x2000)})
        )
        body = image.data[0x1000:0x1018]
        assert body[0] == 0xE9
        assert body[5:8] == b"\xcc\xcc\xcc"
        assert body[0x12:0x14] == b"\x0f\x05"  # syscall preserved past the patch

    def test_garbage_hook_deterministic_per_seed(self):
        spec = NtdllSpec(functions=(("NtG", 1),), hooks={"NtG": GarbageHook()})
        a = build_synthetic_ntdll(spec, seed=7)
        b = build_synthetic_ntdll(spec, seed=7)
        c = build_synthetic_ntdll(spec, seed=8)
        assert a.data == b.data
        assert a.data != c.data

    def test_determinism_full_image(self):
        spec = NtdllSpec(
            functions=positioned_functions(64),
            hooks={"ZwFiller0008": GarbageHook(), "ZwFiller0020": JmpRel32Hook(0x8000)},
        )
        assert build_synthetic_ntdll(spec, seed=3).data == build_synthetic_ntdll(spec, seed=3).data

    def test_clean_build_parses_without_warnings(self, clean_478_ntdll):
        assert clean_478_ntdll.warnings == ()

    def test_alias_both_prefixes(self):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=(("ZwOnly", 0),), alias_both_prefixes=True)
        )
        by_name = {e.name: e.rva for e in enumerate_exports(image)}
        assert by_name["ZwOnly"] == by_name["NtOnly"]

    def test_variable_syscall_offset(self):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=(("NtOdd", 5),), stride=64, syscall_offset=0x20)
        )
        params = SsnSearchParams()
        found = find_syscall_instruction(image, image.image_base + 0x1000, params)
        assert found == image.image_base + 0x1020

    @pytest.mark.parametrize(
        "spec",
        [
            NtdllSpec(functions=(("NtA", 1), ("NtA", 2))),
            NtdllSpec(functions=(("NtA", 1), ("NtB", 1))),
            NtdllSpec(functions=(("NtA", 0x050F),)),
            NtdllSpec(functions=(("NtA", 1),), hooks={"NtUnknown": GarbageHook()}),
            NtdllSpec(functions=(("NtA", 1),), stride=8),
            NtdllSpec(functions=(("NtA", 1),), base_rva=0x40),
            NtdllSpec(functions=(("NtA", 1),), syscall_offset=4),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(SpecInvalid):
            build_synthetic_ntdll(spec)

    def test_jmp_displacement_too_far(self):
        spec = NtdllSpec(
            functions=(("NtA", 1),), hooks={"NtA": JmpRel32Hook(target_delta=1 << 40)}
        )
        with pytest.raises(SpecInvalid):
            build_synthetic_ntdll(spec)


class TestModuleGenerator:
    def test_faithful_binding(self):
        resolver = {("ntdll.dll", "NtCreateUserProcess"): 0x7FFEB258E8E0}
        image = build_synthetic_module(
            ModuleSpec(name="m", imports=(("ntdll.dll", "NtCreateUserProcess"),)), resolver
        )
        [module] = enumerate_imports(image)
        assert module.slots[0].bound_value == 0x7FFEB258E8E0

    def test_tampered_slot_holds_bogus_value(self):
        resolver = {("ntdll.dll", "NtEnumerateKey"): 0x7FFE10001000}
        image = build_synthetic_module(
            ModuleSpec(
                name="kernel32",
                imports=(("ntdll.dll", "NtEnumerateKey"),),
                tamper={"NtEnumerateKey": 0x00007FF9E132D610},
            ),
            resolver,
        )
        [module] = enumerate_imports(image)
        assert module.slots[0].bound_value == 0x00007FF9E132D610

    def test_unresolved_import(self):
        with pytest.raises(UnresolvedImport):
            build_synthetic_module(ModuleSpec(name="m", imports=(("ntdll.dll", "NtA"),)), {})

    def test_tamper_requires_import(self):
        with pytest.raises(SpecInvalid):
            build_synthetic_module(
                ModuleSpec(name="m", imports=(), tamper={"NtA": 1}), {}
            )

    def test_multi_dll_descriptors(self):
        imports = (("ntdll.dll", "NtA"), ("other.dll", "Fn"), ("ntdll.dll", "NtB"))
        resolver = {p: 0x7FFE10000000 + i * 16 for i, p in enumerate(imports)}
        image = build_synthetic_module(ModuleSpec(name="m", imports=imports), resolver)
        modules = enumerate_imports(image)
        assert [m.dll_name for m in modules] == ["ntdll.dll", "other.dll"]
        assert [s.imported_name for s in modules[0].slots] == ["NtA", "NtB"]


class TestProcessModelBuilder:
    def test_three_module_model(self, scenario_ntdll):
        resolver = {("ntdll.dll", "NtA"): scenario_ntdll.image_base + 0x1000}
        spec = ModuleSpec(name="x", imports=(("ntdll.dll", "NtA"),))
        m1 = build_synthetic_module(spec, resolver, image_base=0x7FFE00100000)
        m2 = build_synthetic_module(spec, resolver, image_base=0x7FFE00200000)
        model = build_process_model(
            scenario_ntdll,
            [("kernel32", m1), ("kernelbase", m2)],
            RewriteConfig(stub_base=0x7FF700000000),
        )
        assert len(model.modules) == 3
        assert model.ntdll().name == "ntdll"

    def test_overlapping_bases_rejected(self, scenario_ntdll):
        resolver = {("ntdll.dll", "NtA"): scenario_ntdll.image_base + 0x1000}
        spec = ModuleSpec(name="x", imports=(("ntdll.dll", "NtA"),))
        m1 = build_synthetic_module(spec, resolver, image_base=0x7FFE00100000)
        m2 = build_synthetic_module(spec, resolver, image_base=0x7FFE00100800)
        with pytest.raises(OverlappingRanges):
            build_process_model(
                scenario_ntdll,
                [("a", m1), ("b", m2)],
                RewriteConfig(stub_base=0x7FF700000000),
            )

    def test_before_rewrite_dump_shape(self, scenario_process):
        kernelbase = scenario_process.find("kernelbase")
        [module] = enumerate_imports(kernelbase.image)
        ntdll = scenario_process.ntdll()
        exports = {
            e.name: ntdll.base + e.rva
            for e in enumerate_exports(ntdll.image)
            if e.name is not None
        }
        for slot in module.slots:
            name = slot.imported_name
            if isinstance(name, str) and name in exports:
                assert slot.bound_value == exports[name]
