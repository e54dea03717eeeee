"""Library-level fuzz of the rewrite: `plan_rewrite` -> `apply_rewrite` -> `resolve_imports`.

A target module's image gets byte flips or a truncation inside its import
descriptors, lookup tables and IAT. The table gets a record or base-index
value outside 64 bits, or comes from `deserialize_list` of a blob with
flipped bytes, and the stub base may lie near the top of the address space.
Whatever the input, only a `HookscopeError` may escape.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from hookscope import (
    DataDirectory,
    HookscopeError,
    Layout,
    ModuleEntry,
    SsnSearchParams,
    apply_rewrite,
    assign_stub_slots,
    build_syscall_list,
    deserialize_list,
    parse_image,
    plan_rewrite,
    resolve_imports,
    serialize_list,
)

from conftest import make_scenario_process

OUT_OF_RANGE = (-1, -(2**63), 2**64, 2**64 + 0x28, 2**70)
RECORD_FIELDS = ("ssn", "address", "syscall_ret", "stub_slot", "name_hash")


@pytest.fixture(scope="module")
def rewrite_corpus():
    """The scenario process, its table, and kernelbase's import-data regions.

    Regions are (first, last) byte offsets of the descriptor array, and of
    each descriptor's lookup table and IAT, terminators included.
    """
    process = make_scenario_process()
    table = build_syscall_list(process.ntdll().image, SsnSearchParams())
    image = process.find("kernelbase").image
    dir_rva, _ = image.directories[DataDirectory.IMPORT_TABLE]
    regions = []
    desc = dir_rva
    while image.data[desc : desc + 20] != bytes(20):
        lookup, _, _, _, iat = struct.unpack_from("<5I", image.data, desc)
        for start in dict.fromkeys((lookup or iat, iat)):
            end = start
            while image.data[end : end + 8] != bytes(8):
                end += 8
            regions.append((start, end + 7))
        desc += 20
    regions.append((dir_rva, desc + 19))
    return process, table, regions


@st.composite
def mutated_modules(draw, data: bytes, regions) -> bytes:
    position = st.one_of(*(st.integers(lo, hi) for lo, hi in regions))
    if draw(st.booleans()):
        return data[: draw(position)]
    out = bytearray(data)
    for pos in draw(st.lists(position, min_size=1, max_size=8)):
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


@st.composite
def mutated_tables(draw, table):
    """A table with one value outside 64 bits, or a flipped blob of it."""
    kind = draw(st.sampled_from(["record", "base-index", "blob"]))
    if kind == "blob":
        blob = bytearray(serialize_list(table))
        for pos in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8)):
            blob[pos] ^= draw(st.integers(1, 255))
        return bytes(blob)
    value = draw(st.sampled_from(OUT_OF_RANGE))
    if kind == "base-index":
        indices = list(table.base_indices)
        indices[draw(st.integers(0, len(indices) - 1))] = value
        return dataclasses.replace(table, base_indices=tuple(indices))
    entries = list(table.entries)
    i = draw(st.integers(0, len(entries) - 1))
    entries[i] = dataclasses.replace(entries[i], **{draw(st.sampled_from(RECORD_FIELDS)): value})
    return dataclasses.replace(table, entries=tuple(entries))


def rewrite(process, table, force):
    plan = plan_rewrite(process, assign_stub_slots(table, process.config), [("kernelbase", force)])
    return resolve_imports(apply_rewrite(process, plan), ["kernelbase"], plan.table)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_mutated_rewrite_inputs_raise_only_typed_errors(rewrite_corpus, data):
    process, table, regions = rewrite_corpus
    kernelbase = process.find("kernelbase").image
    module = data.draw(st.none() | mutated_modules(kernelbase.data, regions), label="module")
    table = data.draw(st.just(table) | mutated_tables(table), label="table")
    near_top = st.integers(1, 0x200).map(lambda d: 2**64 - d)
    stub_base = data.draw(st.none() | near_top, label="stub base")
    force = data.draw(st.booleans(), label="force")
    try:
        if module is not None:
            image = parse_image(module, Layout.LOADED, kernelbase.image_base)
            process = dataclasses.replace(
                process, modules=(process.ntdll(), ModuleEntry("kernelbase", image))
            )
        if stub_base is not None:
            config = dataclasses.replace(process.config, stub_base=stub_base)
            process = dataclasses.replace(process, config=config)
        if isinstance(table, bytes):
            table = deserialize_list(table)
        rewrite(process, table, force)
    except HookscopeError:
        pass
