"""End-to-end fuzz of every command: every input gives exit 0, 1 or 2.

Inputs are a small self-contained process spec with one JSON node replaced
by a value of another type, table blobs with truncations, byte flips and
overwritten fields, ntdll dumps with byte flips, truncations, repeated export
names and function addresses moved past the extent, and process specs whose
module dump files are truncated or carry byte flips. A malformed input must
end in a typed error (exit 2), never in a traceback.
"""

from __future__ import annotations

import json
import struct

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hookscope import BASE_FUNCTIONS, SsnSearchParams, build_syscall_list, serialize_list
from hookscope.cli import main
from hookscope.fixtures import GarbageHook, JmpRel32Hook, NtdllSpec, build_synthetic_ntdll
from hookscope.procspec import load_process_spec

from conftest import KERNELBASE_BASE, NTDLL_BASE, STUB_BASE, TABLE_VA, edit_exports

ADVAPI32_BASE = 0x00007FFEAF000000
FUNCTIONS = sorted(BASE_FUNCTIONS + ("ZwClose", "ZwQuerySystemInformation"))


def smoke_spec(advapi32: dict) -> dict:
    """An 8-stub ntdll with two hooks, an inline module and the given third module."""
    return {
        "modules": [
            {
                "name": "ntdll",
                "base": f"0x{NTDLL_BASE:x}",
                "inline_fixture": {
                    "type": "ntdll",
                    "functions": [[name, i] for i, name in enumerate(FUNCTIONS)],
                    "hooks": {
                        "ZwClose": {"kind": "jmp_rel32", "target_delta": "0x150000"},
                        "ZwDelayExecution": {"kind": "garbage"},
                    },
                    "stride": 32,
                    "alias_both_prefixes": True,
                },
            },
            {
                "name": "kernelbase",
                "base": f"0x{KERNELBASE_BASE:x}",
                "inline_fixture": {
                    "type": "module",
                    "imports": [
                        ["ntdll.dll", "NtOpenProcess"],
                        ["ntdll.dll", "NtClose"],
                        ["ntdll.dll", "ZwDelayExecution"],
                    ],
                    "tamper": {"NtClose": "0x4141"},
                },
            },
            advapi32,
        ],
        "ntdll": "ntdll",
        "config": {"stub_base": f"0x{STUB_BASE:x}", "table_va": f"0x{TABLE_VA:x}"},
        "seed": 3,
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The valid spec (advapi32 as a dump file), its table blob and a work directory."""
    root = tmp_path_factory.mktemp("fuzz")
    inline = {
        "name": "advapi32",
        "base": f"0x{ADVAPI32_BASE:x}",
        "inline_fixture": {
            "type": "module",
            "imports": [["ntdll.dll", "NtReadVirtualMemory"], ["ntdll.dll", "ZwClose"]],
        },
    }
    (root / "inline.json").write_text(json.dumps(smoke_spec(inline)))
    process = load_process_spec(root / "inline.json")
    (root / "advapi32.bin").write_bytes(process.find("advapi32").image.data)
    doc = smoke_spec({"name": "advapi32", "base": f"0x{ADVAPI32_BASE:x}", "path": "advapi32.bin"})
    blob = serialize_list(build_syscall_list(process.ntdll().image, SsnSearchParams()))
    return root, doc, blob


def _nodes(value, path=()):
    """Every node of a JSON document as its key path, the root excluded."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


REPLACEMENTS = (None, True, False, 0, -1, 2**64, 1.5, "", "x", "0x10", [], ["x"], [[1, 2]], {},
                {"x": 1})


def _replaced(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


COMMANDS = (
    ["scan", "{spec}", "--format", "json"],
    ["scan", "{spec}"],
    ["simulate", "{spec}", "--force", "kernelbase", "--target", "advapi32", "--format", "json"],
    ["simulate", "{spec}", "--target", "advapi32", "--force", "kernelbase"],
)


def _assert_clean_exit(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_mutated_spec_exits_cleanly(corpus, data):
    root, doc, _ = corpus
    path = data.draw(st.sampled_from(sorted(_nodes(doc), key=repr)), label="node")
    node = doc
    for key in path:
        node = node[key]
    value = data.draw(
        st.sampled_from([v for v in REPLACEMENTS if _json_type(v) != _json_type(node)]),
        label="value",
    )
    spec = root / "spec.json"
    spec.write_text(json.dumps(_replaced(doc, path, value)))
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    result = CliRunner().invoke(main, [arg.format(spec=spec) for arg in command])
    _assert_clean_exit(result)


@st.composite
def mutated_blobs(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "field"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + draw(st.binary(min_size=1, max_size=0x50))
    out = bytearray(blob)
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8)):
            out[pos] ^= draw(st.integers(1, 255))
        return bytes(out)
    offset = 8 * draw(st.integers(0, len(blob) // 8 - 1))
    value = draw(
        st.one_of(
            st.sampled_from([0, 1, 0x14, 0x28, STUB_BASE, NTDLL_BASE, 2**63, 2**64 - 1]),
            st.integers(0, 2**64 - 1),
        )
    )
    struct.pack_into("<Q", out, offset, value)
    return bytes(out)


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_mutated_table_blob_exits_cleanly(corpus, data):
    root, doc, blob = corpus
    spec = root / "blob_spec.json"
    if not spec.exists():
        spec.write_text(json.dumps(doc))
    table = root / "table.bin"
    table.write_bytes(data.draw(mutated_blobs(blob), label="blob"))
    fmt = data.draw(st.sampled_from(["json", "text"]), label="format")
    args = ["simulate", str(spec), "--table", str(table), "--force", "kernelbase"]
    args += ["--target", "advapi32", "--format", fmt]
    _assert_clean_exit(CliRunner().invoke(main, args))


@pytest.fixture(scope="module")
def ntdll_dump(tmp_path_factory):
    """The smoke spec's ntdll, with both spellings of every name, and a work directory."""
    spec = NtdllSpec(
        functions=tuple((name, i) for i, name in enumerate(FUNCTIONS)),
        hooks={"ZwClose": JmpRel32Hook(0x150000), "ZwDelayExecution": GarbageHook()},
        alias_both_prefixes=True,
    )
    image = build_synthetic_ntdll(spec, image_base=NTDLL_BASE, seed=3)
    return image, tmp_path_factory.mktemp("dumps")


@st.composite
def mutated_dumps(draw, image, kinds=("flip", "truncate", "repeat-name", "past-extent")) -> bytes:
    kind = draw(st.sampled_from(kinds))
    data = image.data
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "repeat-name":
        index = st.integers(0, 2 * len(FUNCTIONS) - 1)
        return edit_exports(image, names=draw(st.dictionaries(index, index, min_size=1)))
    if kind == "past-extent":
        delta = st.integers(-8, 0x200).map(lambda d: len(data) + d)
        slots = st.dictionaries(st.integers(0, len(FUNCTIONS) - 1), delta, min_size=1)
        return edit_exports(image, functions=draw(slots))
    # Headers, stubs and the export directory; the rest is zero padding.
    regions = [(0, 0x3FF)]
    regions += [(s.virtual_rva, s.virtual_rva + s.virtual_size - 1) for s in image.sections]
    position = st.one_of(*(st.integers(lo, hi) for lo, hi in regions))
    out = bytearray(data)
    for pos in draw(st.lists(position, min_size=1, max_size=8)):
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


DUMP_COMMANDS = (
    ["ssn", "{dump}", "--method", "prologue"],
    ["ssn", "{dump}", "--method", "halos"],
    ["ssn", "{dump}", "--method", "sort"],
    ["table", "{dump}", "--out", "{table}"],
)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mutated_dump_exits_cleanly(ntdll_dump, data):
    image, root = ntdll_dump
    dump = root / "ntdll.bin"
    dump.write_bytes(data.draw(mutated_dumps(image), label="dump"))
    command = data.draw(st.sampled_from(DUMP_COMMANDS), label="command")
    fmt = data.draw(st.sampled_from(["json", "text"]), label="format")
    args = [arg.format(dump=dump, table=root / "table.bin") for arg in command]
    args += ["--base", f"{NTDLL_BASE:x}", "--format", fmt]
    _assert_clean_exit(CliRunner().invoke(main, args))


@pytest.fixture(scope="module")
def module_dumps(corpus):
    """The smoke process with every module read from a dump file: the spec,
    each module's image by file name, and the directory holding them."""
    root, _, _ = corpus
    process = load_process_spec(root / "inline.json")
    work = root / "modules"
    work.mkdir()
    images = {f"{entry.name}.bin": entry.image for entry in process.modules}
    modules = [
        {"name": entry.name, "base": f"0x{entry.base:x}", "path": f"{entry.name}.bin"}
        for entry in process.modules
    ]
    spec = work / "spec.json"
    doc = {"modules": modules, "ntdll": "ntdll", "config": {"stub_base": f"0x{STUB_BASE:x}"}}
    spec.write_text(json.dumps(doc))
    return spec, images


MODULE_DUMP_COMMANDS = (
    ["scan", "{spec}"],
    ["simulate", "{spec}", "--force", "kernelbase", "--target", "advapi32"],
    ["simulate", "{spec}", "--force", "advapi32", "--force", "kernelbase"],
)


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_mutated_module_dump_exits_cleanly(module_dumps, data):
    spec, images = module_dumps
    mutated = data.draw(st.sampled_from(sorted(images)), label="module")
    for name, image in images.items():
        dump = image.data
        if name == mutated:
            dump = data.draw(mutated_dumps(image, kinds=("flip", "truncate")), label="dump")
        (spec.parent / name).write_bytes(dump)
    command = data.draw(st.sampled_from(MODULE_DUMP_COMMANDS), label="command")
    fmt = data.draw(st.sampled_from(["json", "text"]), label="format")
    args = [arg.format(spec=spec) for arg in command] + ["--format", fmt]
    _assert_clean_exit(CliRunner().invoke(main, args))
