from __future__ import annotations

import dataclasses
import functools
import json
import struct
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from hookscope.cli import main
from hookscope.errors import SpecInvalid, UnresolvedImport
import hookscope.cli
import hookscope.image
from hookscope import BASE_FUNCTIONS, PeImage, ProcessModel
import hookscope.simulate
from hookscope.fixtures import GarbageHook, NtdllSpec, build_synthetic_ntdll
from hookscope.image import Layout, NativeExportIndex, parse_image
from hookscope.procspec import load_process_spec

from conftest import (
    EXPECTED_TABLE,
    HOOKED_NAMES,
    KERNELBASE_BASE,
    NAMED_BY_SSN,
    NTDLL_BASE,
    SCENARIO_BASE_RVA,
    STUB_BASE,
    TABLE_VA,
    positioned_functions,
)


def scenario_spec_doc(hooks=True, tamper=None, imports=None):
    functions = [[name, ssn] for name, ssn in positioned_functions(202, NAMED_BY_SSN)]
    hook_doc = (
        {name: {"kind": "jmp_rel32", "target_delta": "0x150000"} for name in HOOKED_NAMES}
        if hooks
        else {}
    )
    if imports is None:
        imports = [["ntdll.dll", "Nt" + name[2:]] for name, _ in EXPECTED_TABLE]
    return {
        "modules": [
            {
                "name": "ntdll",
                "base": f"0x{NTDLL_BASE:016x}",
                "inline_fixture": {
                    "type": "ntdll",
                    "functions": functions,
                    "hooks": hook_doc,
                    "base_rva": f"0x{SCENARIO_BASE_RVA:x}",
                    "alias_both_prefixes": True,
                },
            },
            {
                "name": "kernelbase",
                "base": f"0x{KERNELBASE_BASE:016x}",
                "inline_fixture": {
                    "type": "module",
                    "imports": imports,
                    "tamper": {k: f"0x{v:x}" for k, v in (tamper or {}).items()},
                },
            },
        ],
        "ntdll": "ntdll",
        "config": {"stub_base": f"0x{STUB_BASE:016x}", "table_va": f"0x{TABLE_VA:016x}"},
    }


def write_spec(tmp_path: Path, doc) -> Path:
    path = tmp_path / "process.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def export_walks(monkeypatch):
    """Records each export-directory walk, wherever hookscope calls it from."""
    walks = []
    real = hookscope.image.enumerate_exports

    def spy(image):
        walks.append(image)
        return real(image)

    for name, module in list(sys.modules.items()):
        if name.startswith("hookscope") and getattr(module, "enumerate_exports", None) is real:
            monkeypatch.setattr(module, "enumerate_exports", spy)
    return walks


def test_version_from_source_checkout(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


@pytest.mark.parametrize(
    "args, exit_code",
    [(["scan"], 1), (["simulate", "--target", "absent"], 2)],
)
def test_exit_holds_no_process(runner, tmp_path, args, exit_code):
    # CliRunner keeps the exit exception, and through its context the
    # tracebacks of click's Exit and of a typed error; no frame there may
    # keep the parsed process or its images alive.
    path = write_spec(tmp_path, scenario_spec_doc())
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == exit_code, result.output
    held, frames = [], 0
    exc = result.exc_info[1]
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            frame, frames = tb.tb_frame, frames + 1
            held += [
                f"{frame.f_code.co_name}:{name}"
                for name, value in frame.f_locals.items()
                if isinstance(value, (ProcessModel, PeImage))
            ]
            tb = tb.tb_next
        exc = exc.__context__
    assert frames > 0
    assert held == []


@pytest.fixture
def scenario_files(tmp_path, scenario_process):
    """Argument fields for the scenario: a path-form spec (`spec`) over dumps of
    its modules, the ntdll dump, and the inline-fixture spec (`inline`)."""
    modules = []
    for entry in scenario_process.modules:
        dump = tmp_path / f"{entry.name}.dump"
        dump.write_bytes(entry.image.data)
        modules.append({"name": entry.name, "base": hex(entry.base), "path": str(dump)})
    config = scenario_process.config
    doc = {
        "modules": modules,
        "ntdll": "ntdll",
        "config": {"stub_base": hex(config.stub_base)},
    }
    inline_dir = tmp_path / "inline"
    inline_dir.mkdir()
    return {
        "spec": write_spec(tmp_path, doc),
        "inline": write_spec(inline_dir, scenario_spec_doc()),
        "ntdll": tmp_path / "ntdll.dump",
        "base": f"{NTDLL_BASE:x}",
        "tmp": tmp_path,
    }


class TestOneExportWalkPerCommand:
    """Each command walks the ntdll export directory at most once."""

    @pytest.mark.parametrize(
        "command, exit_code",
        [
            (["scan", "{spec}"], 1),
            (["table", "{ntdll}", "--base", "{base}", "--out", "{tmp}/t.bin"], 0),
            (["ssn", "{ntdll}", "--method", "halos", "--base", "{base}"], 0),
            (["simulate", "{spec}", "--force", "kernelbase"], 0),
            (["scan", "{inline}"], 1),
        ],
    )
    def test_one_walk(self, runner, scenario_files, export_walks, command, exit_code):
        result = runner.invoke(main, [arg.format(**scenario_files) for arg in command])
        assert result.exit_code == exit_code, result.output
        assert len(export_walks) == 1


class TestLazyCanonicalNames:
    """Only commands that name stubs by address build `canonical_by_rva`."""

    @pytest.fixture
    def canonical_builds(self, monkeypatch):
        builds = []
        build = NativeExportIndex.canonical_by_rva.func

        def spy(index):
            builds.append(index)
            return build(index)

        lazy = functools.cached_property(spy)
        lazy.__set_name__(NativeExportIndex, "canonical_by_rva")
        monkeypatch.setattr(NativeExportIndex, "canonical_by_rva", lazy)
        return builds

    @pytest.mark.parametrize(
        "command, exit_code, builds",
        [
            (["scan", "{spec}"], 1, 0),
            (["ssn", "{ntdll}", "--method", "sort", "--base", "{base}"], 0, 0),
            (["table", "{ntdll}", "--base", "{base}", "--out", "{tmp}/t.bin"], 0, 1),
        ],
    )
    def test_built_only_when_read(
        self, runner, scenario_files, canonical_builds, command, exit_code, builds
    ):
        result = runner.invoke(main, [arg.format(**scenario_files) for arg in command])
        assert result.exit_code == exit_code, result.output
        assert len(canonical_builds) == builds


class TestCompactJson:
    """`--format json` and the table dump go through the C encoder."""

    @pytest.mark.parametrize(
        "command, exit_code",
        [
            (["scan", "{spec}"], 1),
            (["ssn", "{ntdll}", "--method", "halos", "--base", "{base}"], 0),
            (["ssn", "{ntdll}", "--method", "sort", "--base", "{base}"], 0),
            (["table", "{ntdll}", "--base", "{base}", "--out", "{tmp}/t.bin"], 0),
            (["simulate", "{spec}", "--force", "kernelbase"], 0),
        ],
    )
    def test_no_pure_python_encoding(
        self, runner, monkeypatch, scenario_files, command, exit_code
    ):
        def slow_encoder(*args, **kwargs):
            raise AssertionError("JSON went through the pure-Python encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", slow_encoder)
        args = [arg.format(**scenario_files) for arg in command] + ["--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code, result.output
        assert result.stdout == json.dumps(json.loads(result.stdout)) + "\n"
        if command[0] == "table":
            assert (scenario_files["tmp"] / "t.json").read_text() == result.stdout


class TestProcessSpecLoading:
    def test_inline_scenario_materializes(self, tmp_path):
        model = load_process_spec(write_spec(tmp_path, scenario_spec_doc()))
        assert model.ntdll().base == NTDLL_BASE
        assert model.find("kernelbase") is not None
        assert model.config.stub_base == STUB_BASE

    def test_path_form(self, tmp_path):
        image = build_synthetic_ntdll(
            NtdllSpec(functions=positioned_functions(8)), image_base=NTDLL_BASE
        )
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(image.data)
        doc = {
            "modules": [
                {"name": "ntdll", "base": f"0x{NTDLL_BASE:x}", "path": "ntdll.dump"}
            ],
            "ntdll": "ntdll",
            "config": {"stub_base": "0x7ff700000000"},
        }
        model = load_process_spec(write_spec(tmp_path, doc))
        assert model.ntdll().image.data == image.data

    @pytest.mark.parametrize(
        "spec_name, ntdll_key, shown",
        [("NTDLL.DLL", "ntdll.dll", "ntdll"), ("SysLib.dll", "syslib", "SysLib.dll")],
    )
    def test_ntdll_shown_name(self, tmp_path, spec_name, ntdll_key, shown):
        # A spec module that names ntdll is shown as "ntdll"; any other keeps its own name.
        image = build_synthetic_ntdll(
            NtdllSpec(functions=positioned_functions(8)), image_base=NTDLL_BASE
        )
        (tmp_path / "lib.dump").write_bytes(image.data)
        doc = {
            "modules": [{"name": spec_name, "base": f"0x{NTDLL_BASE:x}", "path": "lib.dump"}],
            "ntdll": ntdll_key,
        }
        model = load_process_spec(write_spec(tmp_path, doc))
        assert [entry.name for entry in model.modules] == [shown]
        assert model.ntdll().base == NTDLL_BASE

    @pytest.mark.parametrize(
        "args",
        [["scan", "--format", "json"], ["simulate", "--force", "kernelbase", "--format", "json"]],
    )
    def test_table_va_key_is_ignored(self, runner, tmp_path, args):
        with_key = scenario_spec_doc()
        without_key = scenario_spec_doc()
        del without_key["config"]["table_va"]
        outputs = []
        for name, doc in (("with", with_key), ("without", without_key)):
            (tmp_path / name).mkdir()
            path = write_spec(tmp_path / name, doc)
            result = runner.invoke(main, [args[0], str(path), *args[1:]])
            outputs.append((result.exit_code, result.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1), outputs[0][1]

    def test_unknown_import_rejected(self, tmp_path):
        doc = scenario_spec_doc(imports=[["ntdll.dll", "NtDoesNotExist"]])
        with pytest.raises(UnresolvedImport):
            load_process_spec(write_spec(tmp_path, doc))

    def test_module_fixture_as_ntdll_rejected(self, tmp_path):
        doc = scenario_spec_doc()
        doc["ntdll"] = "kernelbase"
        with pytest.raises(SpecInvalid, match="module fixtures need the ntdll"):
            load_process_spec(write_spec(tmp_path, doc))

    def test_missing_ntdll_key(self, tmp_path):
        with pytest.raises(SpecInvalid):
            load_process_spec(write_spec(tmp_path, {"modules": []}))

    def test_seed_key_controls_garbage_bytes(self, tmp_path):
        doc = scenario_spec_doc()
        doc["modules"][0]["inline_fixture"]["hooks"] = {
            "ZwCreateUserProcess": {"kind": "garbage"}
        }

        def ntdll_bytes(**seed) -> bytes:
            path = write_spec(tmp_path, {**doc, **seed})
            return load_process_spec(path).ntdll().image.data

        a, b, c = ntdll_bytes(seed=1), ntdll_bytes(seed=2), ntdll_bytes(seed=1)
        assert a != b
        assert a == c
        assert ntdll_bytes() == ntdll_bytes(seed=0)


def _module(doc, i, **fields):
    doc["modules"][i] = {"name": doc["modules"][i]["name"], "base": "0x10000", **fields}


@pytest.mark.parametrize(
    "malform",
    [
        lambda doc: doc["modules"].insert(1, "x"),
        lambda doc: doc["modules"][1].update(name=7),
        lambda doc: _module(doc, 1, path=7),
        lambda doc: doc["modules"][0]["inline_fixture"].update(functions=[["ZwA"]]),
        lambda doc: doc["modules"][1].update(inline_fixture=["module"]),
        lambda doc: doc.update(modules=3),
    ],
    ids=["module-not-object", "name-not-string", "path-not-string", "function-not-pair",
         "fixture-not-object", "modules-not-list"],
)
@pytest.mark.parametrize("command", ["scan", "simulate"])
def test_malformed_spec_exit_two(runner, tmp_path, malform, command):
    doc = scenario_spec_doc()
    malform(doc)
    result = runner.invoke(main, [command, str(write_spec(tmp_path, doc))])
    assert_typed_exit(result)


def test_oversized_stub_region_rejected_before_allocation(runner, tmp_path):
    doc = scenario_spec_doc()
    doc["modules"][0]["inline_fixture"]["base_rva"] = "0x2000000"
    path = write_spec(tmp_path, doc)
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["scan", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert "stub region ends at" in result.output
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "option, value", [("--stride", "0"), ("--max-neighbours", "-1"), ("--scan-limit", "1")]
)
def test_out_of_range_search_option_is_usage_error(runner, tmp_path, option, value):
    path = write_spec(tmp_path, scenario_spec_doc())
    result = runner.invoke(main, ["simulate", str(path), option, value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{option}'" in result.output


class TestScanCommand:
    def test_clean_process_spec_exit_zero(self, runner, tmp_path):
        path = write_spec(tmp_path, scenario_spec_doc(hooks=False))
        result = runner.invoke(main, ["scan", str(path)])
        assert result.exit_code == 0, result.output
        assert "+-- 0 hooked functions." in result.output
        assert "Mapped" in result.output

    def test_hooked_image_exit_one(self, runner, tmp_path):
        image = build_synthetic_ntdll(
            NtdllSpec(
                functions=positioned_functions(16, {5: "NtCreateProcess"}),
                hooks={"NtCreateProcess": GarbageHook()},
            )
        )
        dump = tmp_path / "hooked.dump"
        dump.write_bytes(image.data)
        result = runner.invoke(
            main,
            ["scan", str(dump), "--layout", "loaded", "--base", f"{image.image_base:x}"],
        )
        assert result.exit_code == 1
        assert "NtCreateProcess is hooked" in result.output

    def test_missing_file_exit_two(self, runner):
        result = runner.invoke(main, ["scan", "/nonexistent/file.bin"])
        assert result.exit_code == 2

    def test_corrupt_file_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"MZ" + b"\x00" * 40)
        result = runner.invoke(
            main, ["scan", str(bad), "--layout", "loaded", "--base", "0"]
        )
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_json_format_schema(self, runner, tmp_path):
        path = write_spec(
            tmp_path, scenario_spec_doc(tamper={"NtOpenProcess": 0x00007FF9E132D610})
        )
        result = runner.invoke(main, ["scan", str(path), "--format", "json"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert set(doc) == {"ntdll", "modules", "mapped"}
        assert doc["mapped"] == 404  # both spellings of 202 stubs
        [finding] = doc["modules"]["kernelbase"]
        assert finding["function"] == "NtOpenProcess"
        assert finding["observed_va"] == "0x00007ff9e132d610"


class TestSsnCommand:
    def _dump(self, tmp_path, image, name="ntdll.dump"):
        path = tmp_path / name
        path.write_bytes(image.data)
        return path

    def test_sort_lists_reference_pair(self, runner, tmp_path, scenario_ntdll):
        path = self._dump(tmp_path, scenario_ntdll)
        result = runner.invoke(
            main,
            ["ssn", str(path), "--method", "sort", "--base", f"{scenario_ntdll.image_base:x}"],
        )
        assert result.exit_code == 0
        assert "ZwCreateUserProcess 201" in result.output

    def test_prologue_and_sort_agree_on_clean_image(self, runner, tmp_path, clean_478_ntdll):
        path = self._dump(tmp_path, clean_478_ntdll)
        base = f"{clean_478_ntdll.image_base:x}"
        by_sort = runner.invoke(main, ["ssn", str(path), "--method", "sort", "--base", base])
        by_read = runner.invoke(main, ["ssn", str(path), "--method", "prologue", "--base", base])
        assert by_sort.exit_code == 0 and by_read.exit_code == 0
        assert by_sort.output == by_read.output

    def test_halos_reports_derived_functions(self, runner, tmp_path, scenario_ntdll):
        path = self._dump(tmp_path, scenario_ntdll)
        result = runner.invoke(
            main,
            [
                "ssn",
                str(path),
                "--method",
                "halos",
                "--base",
                f"{scenario_ntdll.image_base:x}",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ssns"]["ZwCreateUserProcess"] == 201
        assert "ZwCreateUserProcess" in doc["derived"]
        assert "ZwOpenProcess" not in doc["derived"]

    def test_halos_text_marks_derived_names(self, runner, tmp_path, scenario_ntdll):
        path = self._dump(tmp_path, scenario_ntdll)
        args = ["ssn", str(path), "--method", "halos", "--base", f"{scenario_ntdll.image_base:x}"]
        doc = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        text = runner.invoke(main, args)
        assert text.exit_code == 0
        assert len(doc["derived"]) == len(HOOKED_NAMES)
        assert text.output == "".join(
            f"{name} {doc['ssns'][name]}{' (derived)' if name in doc['derived'] else ''}\n"
            for name in sorted(doc["ssns"])
        )

    @staticmethod
    def _file_layout(image):
        """`image` as an on-disk file: its sections packed right after the
        headers, so raw offsets no longer equal RVAs."""
        data = bytearray(image.data[: image.headers_size])
        e_lfanew = struct.unpack_from("<I", data, 0x3C)[0]
        count, _, _, _, opt_size = struct.unpack_from("<HIIIH", data, e_lfanew + 6)
        for i in range(count):
            header = e_lfanew + 24 + opt_size + 40 * i
            raw_size, raw_offset = struct.unpack_from("<II", data, header + 16)
            struct.pack_into("<I", data, header + 20, len(data))
            data += image.data[raw_offset : raw_offset + raw_size]
        return bytes(data)

    @pytest.mark.parametrize("method, exit_code", [("prologue", 2), ("halos", 2), ("sort", 0)])
    def test_file_layout_ntdll(self, runner, tmp_path, method, exit_code):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(8)))
        loaded = self._dump(tmp_path, image, "loaded.dump")
        on_disk = tmp_path / "ntdll.dll"
        on_disk.write_bytes(self._file_layout(image))
        assert parse_image(on_disk.read_bytes(), Layout.FILE).sections[0].raw_offset == 0x400
        result = runner.invoke(main, ["ssn", str(on_disk), "--method", method, "--layout", "file"])
        assert result.exit_code == exit_code, result.output
        if exit_code == 2:
            assert_typed_exit(result)
            assert "loaded-layout" in result.output
        else:
            twin = runner.invoke(
                main, ["ssn", str(loaded), "--method", method, "--base", f"{image.image_base:x}"]
            )
            assert twin.exit_code == 0
            assert result.output == twin.output
            assert result.output.count("\n") == 8

    def test_no_zw_exports_exit_two(self, runner, tmp_path):
        image = build_synthetic_ntdll(NtdllSpec(functions=(("NtOnly", 0),)))
        path = self._dump(tmp_path, image)
        result = runner.invoke(
            main,
            ["ssn", str(path), "--method", "sort", "--base", f"{image.image_base:x}"],
        )
        assert result.exit_code == 2


class TestTableCommand:
    def test_blob_and_dump_written(self, runner, tmp_path, scenario_ntdll):
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(scenario_ntdll.data)
        out = tmp_path / "table.bin"
        result = runner.invoke(
            main,
            [
                "table",
                str(dump),
                "--base",
                f"{scenario_ntdll.image_base:x}",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert out.stat().st_size == 536  # 8 + 12*40 + 48
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["count"] == 12
        assert [(e["name"], e["ssn"]) for e in doc["entries"]] == EXPECTED_TABLE

    @pytest.mark.parametrize(
        "out_name, json_out", [("t.json", None), ("t.bin", "./t.bin")], ids=["derived", "explicit"]
    )
    def test_json_path_equal_to_blob_path_exit_two(
        self, runner, tmp_path, scenario_ntdll, out_name, json_out
    ):
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(scenario_ntdll.data)
        out = tmp_path / out_name
        args = ["table", str(dump), "--base", f"{NTDLL_BASE:x}", "--out", str(out)]
        if json_out is not None:
            args += ["--json-out", f"{tmp_path}/{json_out}"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "is the blob path" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--out", "--json-out"])
    def test_unwritable_output_exit_two(self, runner, tmp_path, scenario_ntdll, option):
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(scenario_ntdll.data)
        missing = tmp_path / "missing" / "t.bin"
        out = missing if option == "--out" else tmp_path / "t.bin"
        args = ["table", str(dump), "--base", f"{NTDLL_BASE:x}", "--out", str(out)]
        if option == "--json-out":
            args += ["--json-out", str(missing.with_suffix(".json"))]
        result = runner.invoke(main, args)
        assert_typed_exit(result)
        assert "missing" in result.output

    def test_clean_image_six_entries(self, runner, tmp_path):
        named = {
            38: "ZwOpenProcess",
            80: "ZwProtectVirtualMemory",
            63: "ZwReadVirtualMemory",
            58: "ZwWriteVirtualMemory",
            24: "ZwAllocateVirtualMemory",
            52: "ZwDelayExecution",
        }
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(96, named)))
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(image.data)
        out = tmp_path / "table.bin"
        result = runner.invoke(
            main,
            ["table", str(dump), "--base", f"{image.image_base:x}", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.stat().st_size == 8 + 6 * 40 + 48

    def test_oversized_candidate_set_exit_two(self, runner, tmp_path):
        named = {
            38: "ZwOpenProcess",
            80: "ZwProtectVirtualMemory",
            63: "ZwReadVirtualMemory",
            58: "ZwWriteVirtualMemory",
            24: "ZwAllocateVirtualMemory",
            52: "ZwDelayExecution",
        }
        functions = positioned_functions(600, named)
        hooks = {
            name: GarbageHook()
            for name, _ in functions
            if name.startswith("ZwFiller") and int(name[-4:]) < 540
        }
        image = build_synthetic_ntdll(NtdllSpec(functions=functions, hooks=hooks))
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(image.data)
        result = runner.invoke(
            main,
            [
                "table",
                str(dump),
                "--base",
                f"{image.image_base:x}",
                "--out",
                str(tmp_path / "t.bin"),
            ],
        )
        assert result.exit_code == 2

    def test_missing_base_function_exit_two(self, runner, tmp_path):
        image = build_synthetic_ntdll(NtdllSpec(functions=positioned_functions(8)))
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(image.data)
        result = runner.invoke(
            main,
            [
                "table",
                str(dump),
                "--base",
                f"{image.image_base:x}",
                "--out",
                str(tmp_path / "t.bin"),
            ],
        )
        assert result.exit_code == 2

    def test_negative_derived_ssn_exit_two(self, runner, tmp_path):
        # a hooked stub whose nearest intact neighbour, one stride below,
        # carries immediate 0: the neighbour route derives 0 - 1
        functions = (("ZwAccessCheck", 1), ("ZwAddAtom", 0)) + tuple(
            (name, 2 + i) for i, name in enumerate(BASE_FUNCTIONS)
        )
        image = build_synthetic_ntdll(
            NtdllSpec(functions=functions, hooks={"ZwAccessCheck": GarbageHook()})
        )
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(image.data)
        result = runner.invoke(
            main,
            [
                "table",
                str(dump),
                "--base",
                f"{image.image_base:x}",
                "--out",
                str(tmp_path / "t.bin"),
            ],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "service number -1" in result.output


def assert_typed_exit(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")


class TestSimulateCommand:
    def test_reference_flow_shows_slot_two(self, runner, tmp_path):
        path = write_spec(tmp_path, scenario_spec_doc())
        result = runner.invoke(main, ["simulate", str(path), "--target", "kernelbase"])
        assert result.exit_code == 0, result.output
        assert "kernelbase!NtCreateUserProcess -> Fnc0002 -> ssn 201" in result.output

    def test_json_traces_roundtrip(self, runner, tmp_path):
        path = write_spec(tmp_path, scenario_spec_doc())
        result = runner.invoke(
            main, ["simulate", str(path), "--target", "kernelbase", "--format", "json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["all_passed"] is True
        assert len(doc["traces"]) == 12
        by_fn = {t["function"]: t for t in doc["traces"]}
        steps = by_fn["NtCreateUserProcess"]["steps"]
        assert steps[2] == {"step": "stub_slot", "index": 2}
        assert steps[4]["va"] == "0x00007ffeb258e8f2"

    def test_no_native_imports_exit_zero(self, runner, tmp_path):
        doc = scenario_spec_doc(imports=[])
        path = write_spec(tmp_path, doc)
        result = runner.invoke(main, ["simulate", str(path), "--target", "kernelbase"])
        assert result.exit_code == 0
        assert "Resolved 0 calls" in result.output

    def test_unloaded_target_exit_two(self, runner, tmp_path):
        path = write_spec(tmp_path, scenario_spec_doc())
        result = runner.invoke(main, ["simulate", str(path), "--target", "bcrypt"])
        assert result.exit_code == 2

    def test_prebuilt_blob_accepted(self, runner, tmp_path, scenario_ntdll):
        dump = tmp_path / "ntdll.dump"
        dump.write_bytes(scenario_ntdll.data)
        blob = tmp_path / "table.bin"
        build = runner.invoke(
            main,
            [
                "table",
                str(dump),
                "--base",
                f"{scenario_ntdll.image_base:x}",
                "--out",
                str(blob),
            ],
        )
        assert build.exit_code == 0
        path = write_spec(tmp_path, scenario_spec_doc())
        result = runner.invoke(
            main,
            ["simulate", str(path), "--table", str(blob), "--target", "kernelbase"],
        )
        assert result.exit_code == 0
        assert "Fnc0002" in result.output

    @pytest.mark.parametrize(
        "listed, once",
        [
            (["--target", "kernelbase", "--target", "kernelbase"], ["--target", "kernelbase"]),
            (["--force", "kernelbase", "--force", "kernelbase"], ["--force", "kernelbase"]),
            (["--target", "kernelbase", "--target", "KERNELBASE.dll"], ["--target", "kernelbase"]),
            (["--target", "kernelbase", "--force", "KERNELBASE.dll"], ["--force", "kernelbase"]),
        ],
        ids=["target-twice", "force-twice", "two-spellings", "forced-spelling"],
    )
    def test_module_listed_twice_is_visited_once(self, runner, tmp_path, listed, once):
        path = write_spec(tmp_path, scenario_spec_doc())
        single = runner.invoke(main, ["simulate", str(path), *once])
        assert single.exit_code == 0, single.output
        repeated = runner.invoke(main, ["simulate", str(path), *listed])
        assert (repeated.exit_code, repeated.output) == (0, single.output)

    def test_force_target_appended(self, runner, tmp_path):
        doc = scenario_spec_doc()
        doc["modules"][1]["inline_fixture"]["imports"].append(["ntdll.dll", "ZwFiller0003"])
        path = write_spec(tmp_path, doc)
        unforced = runner.invoke(main, ["simulate", str(path), "--target", "kernelbase"])
        assert unforced.exit_code == 0
        assert "ZwFiller0003 -> ntdll" in unforced.output  # stays direct
        forced = runner.invoke(main, ["simulate", str(path), "--force", "kernelbase"])
        assert forced.exit_code == 0
        assert "ZwFiller0003 -> Fnc000C" in forced.output  # grown entry index 12

    def test_one_import_walk_and_one_serialization_per_target(
        self, runner, tmp_path, monkeypatch
    ):
        doc = scenario_spec_doc()
        doc["modules"].append(
            {
                "name": "advapi32",
                "base": "0x00007ffead000000",
                "inline_fixture": {
                    "type": "module",
                    "imports": [["ntdll.dll", "NtOpenProcess"], ["ntdll.dll", "ZwFiller0003"]],
                },
            }
        )
        path = write_spec(tmp_path, doc)
        calls = {"walks": 0, "serializations": 0}

        def spy(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            hookscope.simulate,
            "enumerate_imports",
            spy("walks", hookscope.simulate.enumerate_imports),
        )
        monkeypatch.setattr(
            hookscope.simulate,
            "serialize_list",
            spy("serializations", hookscope.simulate.serialize_list),
        )
        result = runner.invoke(
            main,
            ["simulate", str(path), "--force", "kernelbase", "--force", "advapi32"],
        )
        assert result.exit_code == 0, result.output
        assert "Resolved 14 calls" in result.output
        assert calls["walks"] <= 2 * 2
        assert calls["serializations"] == 1

    def test_target_lost_after_rewrite_exit_two(self, runner, tmp_path, monkeypatch):
        path = write_spec(tmp_path, scenario_spec_doc())
        apply = hookscope.simulate.apply_rewrite

        def drop_targets(process, plan):
            ntdll = apply(process, plan).ntdll()
            return dataclasses.replace(process, modules=(ntdll,))

        monkeypatch.setattr(hookscope.simulate, "apply_rewrite", drop_targets)
        result = runner.invoke(main, ["simulate", str(path), "--target", "kernelbase"])
        assert_typed_exit(result)
        assert "'kernelbase' is not loaded" in result.output

    def test_malformed_trace_exit_two(self, runner, tmp_path, monkeypatch):
        path = write_spec(tmp_path, scenario_spec_doc())
        monkeypatch.setattr(
            hookscope.simulate, "_trace_slot", lambda *args: hookscope.simulate.CallTrace(steps=())
        )
        result = runner.invoke(main, ["simulate", str(path), "--target", "kernelbase"])
        assert_typed_exit(result)
