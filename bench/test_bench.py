"""Tests of the benchmark itself, in its sub-second smoke mode.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import struct
from pathlib import Path

import click
import pytest

import run

run.require_source()

import corpus  # noqa: E402  (needs the source tree on sys.path)
import oracle  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_CLASSES = {"triage": run.Triage, "rewrite": run.Rewrite, "hostile": run.Hostile}

# End-to-end figures each workload prints on top of BENCHMARK.json's list.
REPORTED = {
    "triage": ("item_ms_p50", "scan_ms_p50", "ssn_ms_p50", "table_ms_p50", "failed_share"),
    "rewrite": ("item_ms_p50", "calls_per_s", "simulate_ms_p50", "failed_share"),
    "hostile": ("item_ms_p50", "cases_per_s", "failed_share", "known_defect"),
}


def smoke(workload: str, trace: int, seed: int = 1):
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"]
    )
    out = io.StringIO()
    result = run.run_benchmark(args, out)
    return result, out.getvalue()


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CLASSES))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result, report = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        assert got["value"] != 0, m["name"]  # no listed metric is 0 on any workload
    if not trace:
        for name in REPORTED[workload]:
            assert f"\n{name} " in report, name
        assert "CLI operations" in report  # failed_share states its base


def corpus_digest(workload: str, seed: int, workdir: Path) -> str:
    _, files = WORKLOAD_CLASSES[workload](seed, workdir, corpus.SMOKE).make_batch(0)
    corpus.write_files(files)
    digest = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(workdir)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CLASSES))
def test_same_seed_regenerates_identical_inputs(workload, tmp_path):
    first = corpus_digest(workload, 7, tmp_path / "a")
    again = corpus_digest(workload, 7, tmp_path / "b")
    other = corpus_digest(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.fixture()
def triage(tmp_path):
    """A 10 %-hooked smoke dump with tampered slots, and its CLI outputs."""
    files = {}
    item = corpus.make_triage_item(3, 5, tmp_path, corpus.SMOKE, files)
    corpus.write_files(files)
    assert item.ntdll.hooks and any(m.tamper for m in item.modules)
    cli = run.Cli()
    base = f"{item.ntdll.base:x}"
    outputs = {}
    for name, args in (
        ("scan", ["scan", str(item.spec_path), "--format", "json"]),
        ("ssn", ["ssn", str(item.ntdll_path), "--method", "halos", "--base", base,
                 "--format", "json"]),
        ("table", ["table", str(item.ntdll_path), "--base", base, "--out",
                   str(item.blob_path), "--format", "json"]),
    ):
        result, _, crashed = cli(args)
        assert not crashed
        outputs[name] = result
    return item, outputs, item.blob_path.read_bytes()


def _swap_positions(ntdll, a: str, b: str):
    names = list(ntdll.names)
    i, j = names.index(a), names.index(b)
    names[i], names[j] = names[j], names[i]
    return dataclasses.replace(ntdll, names=tuple(names))


def test_oracle_accepts_the_real_outputs(triage):
    item, out, blob = triage
    assert not oracle.check_scan(out["scan"].exit_code, out["scan"].stdout, item.ntdll,
                                 item.modules)
    assert not oracle.check_ssn(out["ssn"].exit_code, out["ssn"].stdout, "halos", item.ntdll)
    assert not oracle.check_table(out["table"].exit_code, out["table"].stdout, blob, item.ntdll)


def test_oracle_flags_a_wrong_expected_value(triage):
    item, out, blob = triage
    scan, ssn, table = out["scan"], out["ssn"], out["table"]
    truth = item.ntdll
    hooked = sorted(truth.hooks)

    # A wrong SSN: two table entries trade positions in the expected layout.
    wrong = _swap_positions(truth, *corpus.BASE_FUNCTIONS[:2])
    assert oracle.check_ssn(ssn.exit_code, ssn.stdout, "halos", wrong)
    assert oracle.check_table(table.exit_code, table.stdout, blob, wrong)

    # A wrong JMP target, and a wrong hook set.
    name = hooked[0]
    moved = dict(truth.hooks)
    moved[name] = ("jmp", truth.hooks[name][1] + 16)
    assert oracle.check_scan(scan.exit_code, scan.stdout,
                             dataclasses.replace(truth, hooks=moved), item.modules)
    fewer = {k: v for k, v in truth.hooks.items() if k != name}
    assert oracle.check_ssn(ssn.exit_code, ssn.stdout, "halos",
                            dataclasses.replace(truth, hooks=fewer))

    # A wrong tamper set.
    untampered = [dataclasses.replace(m, tamper={}) for m in item.modules]
    assert oracle.check_scan(scan.exit_code, scan.stdout, truth, untampered)

    # A wrong blob byte.
    assert oracle.check_table(table.exit_code, table.stdout, blob[:-1] + b"\x01", truth)


def test_oracle_flags_a_wrong_trace(tmp_path):
    files = {}
    item = corpus.make_rewrite_item(5, 0, tmp_path, corpus.SMOKE, files)
    corpus.write_files(files)
    cli = run.Cli()
    good = run.Rewrite(5, tmp_path, corpus.SMOKE).run(cli, item)
    assert good.calls > 0 and not good.ops[0].errors
    args = ["simulate", str(item.spec_path), "--format", "json"]
    for m in item.modules:
        args += ["--force", m.name]
    if item.blob_path is not None:
        args += ["--table", str(item.blob_path)]
    result, _, _ = cli(args)
    first = item.modules[0].native_imports()[0]
    other = next(n for n in item.ntdll.names if n != corpus.canonical(first))
    wrong = _swap_positions(item.ntdll, corpus.canonical(first), other)
    assert oracle.check_simulate(result.exit_code, result.stdout, wrong, item.modules)


def test_raw_exception_is_a_failed_operation():
    @click.group()
    def group():
        pass

    @group.command()
    def crash():
        struct.pack("<Q", -1)

    @group.command()
    def typed():
        raise click.exceptions.Exit(2)

    cli = run.Cli()
    cli.main = group
    _, _, crashed = cli(["crash"])
    assert crashed
    result, _, crashed = cli(["typed"])
    assert not crashed and result.exit_code == 2
