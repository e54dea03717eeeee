"""One stub reader: `read_stubs` and the three commands that read it.

`scan`, `ssn` and `table` take their hooked stubs from `ssn.read_stubs`, so
they agree on which addresses are stubs, also on images with a repeated
export name or an export whose prologue runs past the extent. A repeated name
owns only the first address the name table gives it; an address that no name
owns is no stub to any of them.
"""

from __future__ import annotations

import json
import logging

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import hookscope.ssn
from hookscope import BASE_FUNCTIONS, SsnSearchParams, enumerate_exports, read_clean_ssn
from hookscope.cli import main
from hookscope.errors import HookscopeError
from hookscope.fixtures import GarbageHook, JmpRel32Hook, NtdllSpec, build_synthetic_ntdll
from hookscope.hooks import scan_inline_hooks
from hookscope.image import Layout, parse_image
from hookscope.ssn import read_stubs, resolve_ssns
from hookscope.table import build_syscall_list, debug_dump

from conftest import NTDLL_BASE, edit_exports, positioned_functions

PROBE_FUNCTIONS = positioned_functions(36, dict(zip(range(10, 16), BASE_FUNCTIONS)))
PROBE_NAMES = sorted(name for name, _ in PROBE_FUNCTIONS)


def probe_ntdll(hooks=()):
    spec = NtdllSpec(
        functions=PROBE_FUNCTIONS, hooks={name: JmpRel32Hook(0x150000) for name in hooks}
    )
    return build_synthetic_ntdll(spec, image_base=NTDLL_BASE)


def repeated_name_dump() -> bytes:
    """Two name entries read ZwFiller0005; the first of them is at a hooked stub."""
    image = probe_ntdll(hooks=("ZwFiller0003",))
    renamed = {PROBE_NAMES.index("ZwFiller0003"): PROBE_NAMES.index("ZwFiller0005")}
    return edit_exports(image, names=renamed)


def second_hooked_dump() -> bytes:
    """Two name entries read ZwFiller0005; the second of them is at a hooked stub."""
    image = probe_ntdll(hooks=("ZwFiller0007",))
    renamed = {PROBE_NAMES.index("ZwFiller0007"): PROBE_NAMES.index("ZwFiller0005")}
    return edit_exports(image, names=renamed)


def past_extent_dump(delta: int) -> bytes:
    """ZwFiller0007's function slot moved to `delta` bytes from the extent."""
    image = probe_ntdll()
    return edit_exports(image, functions={7: image.extent + delta})


def loaded(data: bytes):
    return parse_image(data, Layout.LOADED, NTDLL_BASE)


def reference_stubs(image) -> dict:
    """Per named Nt/Zw export from a fresh export walk, the prologue at the
    first address the name table gives that name, read on its own."""
    first = {}
    for name, _, rva, forwarded_to in enumerate_exports(image):
        if name and name.startswith(("Nt", "Zw")) and forwarded_to is None:
            first.setdefault(name, rva)
    stubs = {}
    for rva in first.values():
        if rva + 8 <= image.extent:
            stubs[rva] = read_clean_ssn(image.data[rva : rva + 8])
    return stubs


@st.composite
def edited_images(draw, with_base=False):
    """Position-numbered stubs, some hooked, with repeated names and function
    slots moved near or past the extent. With `with_base`, the first six stubs
    are the table's base functions, whose names, name entries and slots stay
    as built, and at least one stub stays intact."""
    count = draw(st.integers(8 if with_base else 4, 24))
    names = [f"ZwStub{i:02d}" for i in range(count)]
    fixed = len(BASE_FUNCTIONS) if with_base else 0
    names[:fixed] = BASE_FUNCTIONS[:fixed]
    hooked = draw(st.sets(st.sampled_from(names), max_size=count - 1 if with_base else count))
    hook = draw(st.sampled_from([JmpRel32Hook(0x150000), GarbageHook()]))
    aliases = draw(st.booleans())
    spec = NtdllSpec(
        functions=tuple((name, i) for i, name in enumerate(names)),
        hooks={name: hook for name in hooked},
        alias_both_prefixes=aliases,
    )
    image = build_synthetic_ntdll(spec, image_base=NTDLL_BASE, seed=draw(st.integers(0, 9)))
    name_count = count * (2 if aliases else 1)
    table_names = sorted({*names, *(("Nt" + name[2:]) for name in names if aliases)})
    kept = {j for j, name in enumerate(table_names) if name[2:] in {n[2:] for n in names[:fixed]}}
    index = st.integers(0, name_count - 1).filter(lambda j: j not in kept)
    repeated = draw(st.dictionaries(index, index, max_size=4))
    moved = draw(
        st.dictionaries(
            st.integers(fixed, count - 1),
            st.integers(-12, 0x100).map(lambda d: image.extent + d),
            max_size=3,
        )
    )
    return loaded(edit_exports(image, names=repeated, functions=moved))


class TestReadStubs:
    @given(image=edited_images())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_per_name_reads(self, image):
        assert read_stubs(image) == reference_stubs(image)

    def test_hooked_stub_maps_to_none(self):
        image = probe_ntdll(hooks=("ZwFiller0003",))
        stubs = read_stubs(image)
        assert len(stubs) == 36
        assert [rva for rva, ssn in stubs.items() if ssn is None] == [0x1000 + 3 * 32]

    def test_past_extent_exports_log_one_summary(self, caplog):
        image = probe_ntdll()
        moved = {7: image.extent - 4, 8: image.extent + 0x100}
        with caplog.at_level(logging.WARNING, logger="hookscope.ssn"):
            stubs = read_stubs(loaded(edit_exports(image, functions=moved)))
        assert len(stubs) == 34
        [record] = caplog.records
        assert record.args == (2, "ZwFiller0007")


class TestRoutesAgree:
    @given(image=edited_images(with_base=True))
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_scan_table_and_halos_name_one_triple_per_stub(self, image):
        # scan gives (name, address) per hooked stub, the table gives
        # (name, address, number) per row, and halos gives (name, number).
        # A hooked stub with no intact neighbour fails the table and halos alike.
        params = SsnSearchParams()
        hooked = {(f.function, f.expected_va) for f in scan_inline_hooks(image)}
        try:
            table = build_syscall_list(image, params)
        except HookscopeError as exc:
            with pytest.raises(type(exc)):
                resolve_ssns(image, "halos", params)
            return
        rows = [(r["name"], int(r["address"], 16), r["ssn"]) for r in debug_dump(table, image)]
        mapping, derived = resolve_ssns(image, "halos", params)
        hooked_vas = {va for _, va in hooked}
        hooked_rows = {row for row in rows if row[1] in hooked_vas}
        assert len({name for name, _, _ in rows}) == len(rows)
        assert {va for _, va, _ in hooked_rows} == hooked_vas
        assert {(name, va) for name, va, _ in hooked_rows} <= hooked
        assert {(name, ssn) for name, _, ssn in hooked_rows} == {
            (name, mapping[name]) for name in derived
        }
        assert all(mapping[name] == ssn for name, _, ssn in rows)


class TestResolveSsns:
    def test_halos_derives_only_hooked_stubs(self, monkeypatch):
        hooked = ("ZwFiller0003", "ZwFiller0020")
        image = probe_ntdll(hooks=hooked)
        calls = []
        derive = hookscope.ssn.derive_ssn_neighbors

        def spy(ntdll, entry_va, params):
            calls.append(entry_va - ntdll.image_base)
            return derive(ntdll, entry_va, params)

        monkeypatch.setattr(hookscope.ssn, "derive_ssn_neighbors", spy)
        mapping, derived = resolve_ssns(image, "halos", SsnSearchParams())
        assert sorted(calls) == [0x1000 + 3 * 32, 0x1000 + 20 * 32]
        assert derived == list(hooked)
        assert mapping == dict(PROBE_FUNCTIONS)


@pytest.mark.parametrize(
    "dump, scan_exit",
    [
        pytest.param(repeated_name_dump, 1, id="repeated-name"),
        pytest.param(second_hooked_dump, 0, id="second-hooked"),
        pytest.param(lambda: past_extent_dump(-4), 0, id="extent-minus-4"),
        pytest.param(lambda: past_extent_dump(0x100), 0, id="extent-plus-0x100"),
    ],
)
def test_scan_table_and_halos_agree(tmp_path, dump, scan_exit):
    path = tmp_path / "ntdll.bin"
    path.write_bytes(dump())
    common = [str(path), "--base", f"{NTDLL_BASE:x}", "--format", "json"]
    runner = CliRunner()
    scan = runner.invoke(main, ["scan", *common])
    table = runner.invoke(main, ["table", *common, "--out", str(tmp_path / "t.bin")])
    ssn = runner.invoke(main, ["ssn", *common, "--method", "halos"])
    assert (scan.exit_code, table.exit_code, ssn.exit_code) == (scan_exit, 0, 0), (
        scan.output + table.output + ssn.output
    )
    hooked = {(f["function"], f["expected_va"]) for f in json.loads(scan.stdout)["ntdll"]}
    rows = json.loads(table.stdout)["entries"]
    assert {(r["name"], r["address"]) for r in rows if r["name"] not in BASE_FUNCTIONS} == hooked
    assert set(json.loads(ssn.stdout)["derived"]) == {name for name, _ in hooked}
    ssns = json.loads(ssn.stdout)["ssns"]
    assert all(ssns[row["name"]] == row["ssn"] for row in rows), (rows, ssns)
    # Sort numbers the same stubs, under the same names, by address; the
    # probe stubs' numbers rise with their addresses, so it gives each
    # name the rank of its halos number.
    sort = runner.invoke(main, ["ssn", *common, "--method", "sort"])
    assert sort.exit_code == 0, sort.output
    by_address = json.loads(sort.stdout)["ssns"]
    ranks = {name: rank for rank, name in enumerate(sorted(ssns, key=ssns.get))}
    assert {name: by_address[name] for name in ssns} == ranks


@pytest.mark.parametrize(
    "dump, halos, prologue, sort",
    [
        pytest.param(
            repeated_name_dump,
            ["ZwFiller0005 3 (derived)"],
            [],
            ["ZwFiller0005 3"],
            id="first-hooked",
        ),
        pytest.param(
            second_hooked_dump,
            ["ZwFiller0005 5"],
            ["ZwFiller0005 5"],
            ["ZwFiller0005 5"],
            id="second-hooked",
        ),
    ],
)
def test_repeated_name_reads_its_first_address(tmp_path, dump, halos, prologue, sort):
    # The number and the derived mark both come from the first address the
    # name table gives the name, whichever of the two is hooked.
    path = tmp_path / "ntdll.bin"
    path.write_bytes(dump())
    runner = CliRunner()
    for method, expected in (("halos", halos), ("prologue", prologue), ("sort", sort)):
        args = ["ssn", str(path), "--base", f"{NTDLL_BASE:x}", "--method", method]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        lines = [line for line in result.stdout.splitlines() if line.startswith("ZwFiller0005 ")]
        assert lines == expected, method


@pytest.mark.parametrize(
    "dump, stub, scan_exit",
    [
        pytest.param(repeated_name_dump, 3, 1, id="first-hooked"),
        pytest.param(second_hooked_dump, 5, 0, id="second-hooked"),
    ],
)
def test_repeated_name_has_one_address_in_scan_and_table(tmp_path, dump, stub, scan_exit):
    # ZwFiller0005 owns its first address, `stub`; the other address no name
    # owns, so no command reads it as a stub.
    path = tmp_path / "ntdll.bin"
    path.write_bytes(dump())
    common = [str(path), "--base", f"{NTDLL_BASE:x}", "--format", "json"]
    va = f"0x{NTDLL_BASE + 0x1000 + stub * 32:016x}"
    runner = CliRunner()
    scan = runner.invoke(main, ["scan", *common])
    assert scan.exit_code == scan_exit, scan.output
    report = json.loads(scan.stdout)
    assert report["mapped"] == 35
    hooked = [(f["function"], f["expected_va"]) for f in report["ntdll"]]
    assert hooked == ([("ZwFiller0005", va)] if scan_exit else [])
    for extra in ([], ["--extra", "ZwFiller0005"]):
        table = runner.invoke(main, ["table", *common, "--out", str(tmp_path / "t.bin"), *extra])
        assert table.exit_code == 0, table.output
        rows = json.loads(table.stdout)["entries"]
        assert len({row["hash"] for row in rows}) == len(rows)
        repeated = [(r["address"], r["ssn"]) for r in rows if r["name"] == "ZwFiller0005"]
        assert repeated == ([(va, stub)] if scan_exit or extra else [])


@pytest.mark.parametrize(
    "dump",
    [
        pytest.param(repeated_name_dump, id="first-hooked"),
        pytest.param(second_hooked_dump, id="second-hooked"),
    ],
)
def test_shadowed_address_logged_once(caplog, dump):
    image = loaded(dump())
    with caplog.at_level(logging.WARNING, logger="hookscope"):
        image.native_exports.canonical_by_rva
        read_stubs(image)
        scan_inline_hooks(image)
    [record] = caplog.records
    assert (record.name, record.args) == ("hookscope.image", (1, "ZwFiller0005"))
