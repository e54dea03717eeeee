"""Command-line front end: scan, ssn, table, simulate.

Every command is file-in/file-out; there is deliberately no way to attach to,
read, or modify a running process. Exit codes are the only pass/fail channel:
0 clean/pass, 1 findings or a failed verdict, 2 error.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import click

from . import __version__
from .errors import HookscopeError
from .hooks import build_report, render_report
from .image import Layout, parse_image
from .procspec import load_process_spec
from .simulate import render_calls, simulate_rewrite
from .ssn import SsnSearchParams, resolve_ssns
from .table import build_syscall_list, debug_dump, deserialize_list, serialize_list

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _parse_base(value: str | None) -> int:
    if value is None:
        return 0
    try:
        return int(value, 16)
    except ValueError:
        raise click.UsageError(f"--base {value!r} is not a hex address")


def _load_image(path: str, base: str | None, layout: str = "loaded"):
    kind = Layout.FILE if layout == "file" else Layout.LOADED
    if kind is Layout.LOADED and base is None:
        raise click.UsageError("loaded-layout input requires --base")
    data = Path(path).read_bytes()
    return parse_image(data, kind, _parse_base(base))


def _fail(exc: Exception) -> "click.exceptions.Exit":
    click.echo(f"error: {exc}", err=True)
    return click.exceptions.Exit(EXIT_ERROR)


def _prints_output(work):
    """Turn a function returning (output, exit code) into a command callback.

    A typed error or an OSError exits 2. `work` has returned before `Exit` is
    raised, and an error it raised is reported without its traceback, so a
    caller that keeps the exit's traceback and context (as CliRunner does)
    keeps no frame of `work`, and with it no image or process.
    """

    @functools.wraps(work)
    def command(**kwargs) -> None:
        try:
            output, code = work(**kwargs)
        except (HookscopeError, OSError) as exc:
            raise _fail(exc.with_traceback(None))
        click.echo(output, nl=False)
        if code != EXIT_CLEAN:
            raise click.exceptions.Exit(code)

    return command


base_option = click.option("--base", default=None, help="Image base address (hex).")
format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)


def _ssn_search_options(command):
    """Declare --stride, --max-neighbours and --scan-limit, and hand `command`
    their values as one SsnSearchParams, `params`.

    The defaults are SsnSearchParams' own, and the bounds those it enforces,
    so a bad value is a usage error.
    """
    default = SsnSearchParams()
    option = functools.partial(click.option, show_default=True)

    @option("--stride", type=click.IntRange(min=1), default=default.stride_bytes)
    @option("--max-neighbours", type=click.IntRange(min=0), default=default.max_neighbours)
    @option("--scan-limit", type=click.IntRange(min=2), default=default.syscall_scan_limit)
    @functools.wraps(command)
    def with_params(stride: int, max_neighbours: int, scan_limit: int, **kwargs):
        params = SsnSearchParams(
            max_neighbours=max_neighbours, stride_bytes=stride, syscall_scan_limit=scan_limit
        )
        return command(params=params, **kwargs)

    return with_params


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Static PE hook scanner, syscall-number resolver, and rewrite simulator."""


def _looks_like_spec(path: Path) -> bool:
    try:
        with path.open("rb") as file:
            head = file.read(2)
    except OSError:
        return False
    return head[:1] in (b"{", b" ", b"\n", b"\t")


@main.command()
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@base_option
@format_option
@_prints_output
def scan(input: str, base: str | None, fmt: str) -> tuple[str, int]:
    """Scan for inline hooks (PE image) or inline + IAT hooks (process spec)."""
    if _looks_like_spec(Path(input)):
        report = build_report(process=load_process_spec(input))
    else:
        report = build_report(ntdll=_load_image(input, base))
    findings = bool(report.ntdll_findings) or any(report.per_module.values())
    return render_report(report, fmt == "json"), EXIT_FINDINGS if findings else EXIT_CLEAN


@main.command()
@click.argument("ntdll", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    type=click.Choice(["prologue", "sort", "halos"]),
    required=True,
    help="Resolution route: direct prologue read, address-sorted Zw index, or neighbor derivation.",
)
@click.option(
    "--layout", type=click.Choice(["file", "loaded"]), default="loaded", show_default=True
)
@base_option
@format_option
@_ssn_search_options
@_prints_output
def ssn(
    ntdll: str,
    method: str,
    layout: str,
    base: str | None,
    fmt: str,
    params: SsnSearchParams,
) -> tuple[str, int]:
    """Resolve service numbers for the Nt/Zw exports of an ntdll-like image."""
    image = _load_image(ntdll, base, layout)
    mapping, derived = resolve_ssns(image, method, params)
    if fmt == "json":
        doc = {"method": method, "ssns": mapping, "derived": derived}
        return json.dumps(doc) + "\n", EXIT_CLEAN
    marked = set(derived)
    lines = []
    for name in sorted(mapping):
        suffix = " (derived)" if name in marked else ""
        lines.append(f"{name} {mapping[name]}{suffix}\n")
    return "".join(lines), EXIT_CLEAN


@main.command()
@click.argument("ntdll", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Blob output path.")
@click.option("--json-out", type=click.Path(dir_okay=False), default=None)
@click.option("--extra", multiple=True, help="Additional function names to include.")
@base_option
@format_option
@_ssn_search_options
@_prints_output
def table(
    ntdll: str,
    out: str,
    json_out: str | None,
    extra: tuple[str, ...],
    base: str | None,
    fmt: str,
    params: SsnSearchParams,
) -> tuple[str, int]:
    """Build the syscall table over an ntdll image; write blob + JSON dump."""
    json_path = Path(json_out) if json_out else Path(out).with_suffix(".json")
    if os.path.realpath(json_path) == os.path.realpath(out):
        raise click.UsageError(f"JSON dump path {json_path} is the blob path")
    for path in (out, json_path):
        if os.path.realpath(path) == os.path.realpath(ntdll):
            raise click.UsageError(f"output path {path} is the input {ntdll}")
    image = _load_image(ntdll, base)
    built = build_syscall_list(image, params, extra_names=extra)
    blob = serialize_list(built)
    Path(out).write_bytes(blob)
    rows = debug_dump(built, image)
    dump = {
        "count": built.count,
        "entries": rows,
        "base_indices": list(built.base_indices),
    }
    json_text = json.dumps(dump) + "\n"
    json_path.write_text(json_text)
    if fmt == "json":
        return json_text, EXIT_CLEAN
    lines = [f"e[{row['index']}] {row['name']} {row['ssn']} {row['address']}" for row in rows]
    lines += [f"[+] Mapped {built.count} functions", f"[*] Blob: {out} ({len(blob)} bytes)"]
    return "\n".join(lines) + "\n", EXIT_CLEAN


@main.command()
@click.argument("process_spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--table", "table_blob", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--target", "targets", multiple=True, help="Module to rewrite (ordered).")
@click.option("--force", "forced", multiple=True, help="Target with table growth enabled.")
@format_option
@_ssn_search_options
@_prints_output
def simulate(
    process_spec: str,
    table_blob: str | None,
    targets: tuple[str, ...],
    forced: tuple[str, ...],
    fmt: str,
    params: SsnSearchParams,
) -> tuple[str, int]:
    """Plan and apply the IAT rewrite, then resolve every Nt/Zw import."""
    process = load_process_spec(process_spec)
    if table_blob is not None:
        built = deserialize_list(Path(table_blob).read_bytes())
    else:
        built = build_syscall_list(process.ntdll().image, params)
    results = simulate_rewrite(process, built, targets, forced, params)
    all_passed = all(call.verdict.passed for call in results)
    return render_calls(results, fmt == "json"), EXIT_CLEAN if all_passed else EXIT_FINDINGS

if __name__ == "__main__":
    main()
