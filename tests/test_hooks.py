from __future__ import annotations

import json
import logging
import struct

import pytest
from hypothesis import given, strategies as st

from hookscope import (
    ScanReport,
    build_report,
    render_report,
    scan_iat_hooks,
    scan_inline_hooks,
)
from hookscope.errors import MissingNtdll, WrongLayout
from hookscope.fixtures import (
    GarbageHook,
    JmpRel32Hook,
    NtdllSpec,
    build_synthetic_ntdll,
)
from hookscope.hooks import (
    HookDetail,
    HookFinding,
    HookKind,
    decode_jmp_rel32,
    mapped_function_count,
    parse_report,
)
from hookscope.image import Layout, parse_image
from hookscope.simulate import ProcessModel

from conftest import make_scenario_process, positioned_functions


class TestInlineScan:
    def test_jmp_finding_carries_decoded_target(self):
        # entry at ...E700 starting E9 F8 1B 16 00 lands at ...02FD
        base = 0x00007FFF96BE0000
        spec = NtdllSpec(
            functions=(("NtCreateProcess", 0xBA),),
            hooks={"NtCreateProcess": JmpRel32Hook(target_delta=0x001702FD)},
            base_rva=0xE700,
        )
        image = build_synthetic_ntdll(spec, image_base=base)
        assert image.data[0xE700:0xE705] == bytes.fromhex("e9f81b1600")
        [finding] = scan_inline_hooks(image)
        assert finding.detail is HookDetail.JMP_REL32
        assert finding.expected_va == 0x00007FFF96BEE700
        assert finding.observed_va == 0x00007FFF96D502FD

    def test_clean_stub_yields_no_finding(self):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtReadFile", 6),)))
        assert scan_inline_hooks(image) == []

    def test_zero_hooked_stubs_empty(self, clean_478_ntdll):
        assert scan_inline_hooks(clean_478_ntdll) == []
        assert mapped_function_count(clean_478_ntdll) == 478

    def test_garbage_prologue_reported_without_target(self):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=(("NtOdd", 4),), hooks={"NtOdd": GarbageHook()})
        )
        [finding] = scan_inline_hooks(image)
        assert finding.detail is HookDetail.OTHER_PROLOGUE
        assert finding.observed_va == finding.expected_va

    def test_findings_sorted_by_function(self):
        functions = positioned_functions(8, {1: "NtZeta", 5: "NtAlpha"})
        hooks = {"NtZeta": GarbageHook(), "NtAlpha": GarbageHook()}
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        names = [f.function for f in scan_inline_hooks(image)]
        assert names == ["NtAlpha", "NtZeta"]

    def test_non_native_names_ignored(self):
        functions = (("RtlSomething", 0), ("NtReal", 1))
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"RtlSomething": GarbageHook()})
        )
        assert scan_inline_hooks(image) == []
        assert mapped_function_count(image) == 1

    def test_file_layout_rejected(self, clean_478_ntdll):
        file_view = parse_image(clean_478_ntdll.data, Layout.FILE)
        with pytest.raises(WrongLayout):
            scan_inline_hooks(file_view)

    @given(
        st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        st.integers(min_value=0x1000, max_value=0xFFFF0000),
    )
    def test_jmp_target_matches_twos_complement_oracle(self, rel, entry_va):
        prologue = b"\xe9" + struct.pack("<i", rel) + b"\xcc\xcc\xcc"
        oracle = (entry_va + 5 + rel) % (1 << 64)
        assert decode_jmp_rel32(entry_va, prologue) == oracle


class TestIatScan:
    def test_untampered_model_reports_zero_everywhere(self, scenario_process):
        results = scan_iat_hooks(scenario_process)
        assert results == {"kernelbase": []}

    def test_single_tampered_slot_flagged(self):
        process = make_scenario_process(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        results = scan_iat_hooks(process)
        [finding] = results["kernelbase"]
        assert finding.kind is HookKind.IAT_MISMATCH
        assert finding.detail is HookDetail.SLOT_REDIRECTED
        assert finding.function == "NtOpenProcess"
        assert finding.observed_va == 0x00007FF9E132D610
        assert finding.expected_va != finding.observed_va

    def test_81_tampered_slots_counted(self, scenario_ntdll):
        from hookscope import RewriteConfig, enumerate_exports
        from hookscope.fixtures import (
            ModuleSpec,
            build_process_model,
            build_synthetic_module,
        )

        exports = {
            e.name: scenario_ntdll.image_base + e.rva
            for e in enumerate_exports(scenario_ntdll)
            if e.name is not None
        }
        zw_names = sorted(n for n in exports if n.startswith("Zw"))[:100]
        imports = tuple(("ntdll.dll", n) for n in zw_names)
        tampered = {n: 0x00007FF9E1320000 + i * 0x10 for i, n in enumerate(zw_names[:81])}
        resolver = {(dll, fn): exports[fn] for dll, fn in imports}
        kernel32 = build_synthetic_module(
            ModuleSpec(name="kernel32", imports=imports, tamper=tampered),
            resolver,
            image_base=0x00007FFEAC000000,
        )
        model = build_process_model(
            scenario_ntdll,
            [("kernel32", kernel32)],
            RewriteConfig(stub_base=0x7FF700000000),
        )
        results = scan_iat_hooks(model)
        assert len(results["kernel32"]) == 81

    def test_enumerate_key_redirection_reported_exactly(self):
        from hookscope import RewriteConfig
        from hookscope.fixtures import (
            ModuleSpec,
            build_process_model,
            build_synthetic_module,
        )

        ntdll = build_synthetic_ntdll(
            NtdllSpec(functions=positioned_functions(64, {49: "NtEnumerateKey"}))
        )
        resolver = {("ntdll.dll", "NtEnumerateKey"): ntdll.image_base + 0x1000 + 49 * 32}
        kernel32 = build_synthetic_module(
            ModuleSpec(
                name="kernel32",
                imports=(("ntdll.dll", "NtEnumerateKey"),),
                tamper={"NtEnumerateKey": 0x00007FF9E132D610},
            ),
            resolver,
            image_base=0x00007FFEAC000000,
        )
        model = build_process_model(
            ntdll,
            [("kernel32", kernel32)],
            RewriteConfig(stub_base=0x7FF700000000),
        )
        [finding] = scan_iat_hooks(model)["kernel32"]
        assert finding.function == "NtEnumerateKey"
        assert finding.observed_va == 0x00007FF9E132D610

    def test_module_without_native_ntdll_imports_listed_empty(self, scenario_ntdll):
        from hookscope import RewriteConfig
        from hookscope.fixtures import (
            ModuleSpec,
            build_process_model,
            build_synthetic_module,
        )

        imports = (("ntdll.dll", "RtlOpenCurrentUser"), ("kernel32.dll", "NtClose"))
        resolver = {imported: 0x00007FFEA0001000 for imported in imports}
        rtluser = build_synthetic_module(
            ModuleSpec(name="rtluser", imports=imports), resolver, image_base=0x00007FFEAC000000
        )
        model = build_process_model(
            scenario_ntdll,
            [("rtluser", rtluser)],
            RewriteConfig(stub_base=0x7FF700000000),
        )
        assert scan_iat_hooks(model) == {"rtluser": []}

    def test_missing_ntdll(self, scenario_process):
        broken = ProcessModel(modules=(), config=scenario_process.config)
        with pytest.raises(MissingNtdll):
            scan_iat_hooks(broken)

    def test_alias_spelling_resolves_expected_address(self):
        # module imports the Nt spelling; library exports only Zw names
        process = make_scenario_process()
        results = scan_iat_hooks(process)
        assert results["kernelbase"] == []

    def test_unexported_names_log_one_summary_per_module(self, caplog):
        extra = (("ntdll.dll", "NtMissingOne"), ("ntdll.dll", "ZwMissingTwo"))
        process = make_scenario_process(extra_imports=extra)
        with caplog.at_level(logging.WARNING, logger="hookscope.hooks"):
            results = scan_iat_hooks(process)
        assert results["kernelbase"] == []
        [record] = caplog.records
        assert record.args == ("kernelbase", 2, "NtMissingOne")


class TestRenderReport:
    def test_text_contains_hooked_lines(self):
        image = build_synthetic_ntdll(
            NtdllSpec(
                functions=(("NtWriteFile", 8), ("ZwOther", 9)),
                hooks={"NtWriteFile": JmpRel32Hook(0x9000)},
            )
        )
        report = build_report(ntdll=image)
        text = render_report(report, False)
        assert "NtWriteFile is hooked" in text
        assert "Mapped 2 functions" in text

    def test_empty_report_text(self):
        report = ScanReport(ntdll_findings=(), per_module={}, mapped_function_count=0)
        text = render_report(report, False)
        assert "Mapped 0 functions" in text

    def test_per_module_sections(self, scenario_process):
        report = build_report(process=scenario_process)
        text = render_report(report, False)
        assert "Checking ntdll.dll at kernelbase IAT" in text
        assert "+-- 0 hooked functions." in text

    def test_tampered_module_line_format(self):
        process = make_scenario_process(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        report = build_report(process=process)
        text = render_report(report, False)
        assert (
            "|-- kernelbase IAT to ntdll.dll of function NtOpenProcess "
            "is hooked to 0x00007ff9e132d610" in text
        )
        assert "+-- 1 hooked functions." in text

    def test_json_roundtrip_three_findings(self):
        functions = positioned_functions(8, {2: "NtA", 3: "NtB", 4: "NtC"})
        hooks = {"NtA": GarbageHook(), "NtB": GarbageHook(), "NtC": JmpRel32Hook(0x8000)}
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        report = build_report(ntdll=image)
        blob = render_report(report, True)
        doc = json.loads(blob)
        assert len(doc["ntdll"]) == 3
        assert set(doc["ntdll"][0]) == {
            "kind",
            "module",
            "function",
            "expected_va",
            "observed_va",
            "detail",
        }
        recovered = parse_report(blob)
        assert recovered.ntdll_findings == report.ntdll_findings
        assert recovered.mapped_function_count == report.mapped_function_count

    def test_hex_strings_are_16_digit_lowercase(self):
        finding = HookFinding(
            kind=HookKind.IAT_MISMATCH,
            module="m",
            function="NtX",
            expected_va=0xABC,
            observed_va=0x00007FF9E132D610,
            detail=HookDetail.SLOT_REDIRECTED,
        )
        report = ScanReport(
            ntdll_findings=(), per_module={"m": (finding,)}, mapped_function_count=1
        )
        doc = json.loads(render_report(report, True))
        record = doc["modules"]["m"][0]
        assert record["expected_va"] == "0x0000000000000abc"
        assert record["observed_va"] == "0x00007ff9e132d610"
