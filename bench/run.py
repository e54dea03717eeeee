"""hookscope benchmark: drive the CLI in-process on fixed-seed inputs.

    python3 bench/run.py --workload triage|rewrite|hostile --seed N \
        --seconds S --trace 0|1 [--smoke]

Load comes from one process and one thread in a closed loop: the next item
starts when the previous one has finished. Inputs are generated in batches
from the seed (see corpus.py); generating and writing a batch is the
set-up, timed on its own. Each CLI result is checked against the fixture
ground truth (see oracle.py) outside the timed region.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json. With --trace 1 the run measures the
same items untraced for half the time and traced for the other half, and
the last line holds the per-layer metrics, including the tracing overhead.
The lines before it name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from weakref import WeakKeyDictionary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("triage", "rewrite", "hostile")

# The per-layer metrics of the result, as BENCHMARK.json lists them: those
# that every workload exercises, so that none is 0 by construction on any.
# The others (hooks on rewrite, simulate on triage, log records and typed
# errors on valid inputs, ...) are printed in the report lines only.
PER_LAYER = (
    "image.enumerate_exports.calls",
    "image.enumerate_exports.self_ms",
    "image.enumerate_imports.calls",
    "image.enumerate_imports.self_ms",
    "image.parse_image.self_ms",
    "image.self_ms",
    "ssn.derive_ssn_neighbors.calls",
    "ssn.derive_ssn_neighbors.self_ms",
    "ssn.find_syscall_instruction.calls",
    "ssn.derived_share",
    "ssn.self_ms",
    "table.serialize_list.calls",
    "table.build_syscall_list.self_ms",
    "table.entries",
    "table.self_ms",
    "simulate.self_ms",
    "procspec.load_process_spec.self_ms",
    "cli.self_ms",
    "trace.items_per_s.untraced",
    "trace.items_per_s.traced",
    "trace.overhead_share",
)


# --- one closed-loop run ----------------------------------------------------


@dataclass
class Op:
    """One CLI invocation and its verdict."""

    command: str
    seconds: float
    crashed: bool  # an exception other than a clean exit escaped the command
    errors: list[str]


@dataclass
class Item:
    index: int
    size: str
    seconds: float
    ops: list[Op]
    calls: int = 0  # resolved and verified Nt/Zw calls (rewrite)


@dataclass
class Run:
    setups: list[float] = field(default_factory=list)
    items: list[Item] = field(default_factory=list)
    batch_rates: list[float] = field(default_factory=list)  # items per second

    @property
    def measured(self) -> float:
        return sum(i.seconds for i in self.items)

    def ops(self) -> list[Op]:
        return [op for item in self.items for op in item.ops]


class Cli:
    """The real `hookscope` command group, invoked in-process."""

    def __init__(self) -> None:
        from click import _compat
        from click.testing import CliRunner
        from hookscope.cli import main

        self.main = main
        self.runner = CliRunner()
        # click caches a text wrapper per sys.stdout/sys.stderr object in a
        # WeakKeyDictionary whose values keep their keys alive. CliRunner
        # swaps in new streams on every call, so without clearing these
        # caches each call leaks its captured output, and memory and
        # garbage-collection work grow with run length.
        self.stream_caches = [
            cell.cell_contents
            for fn in (_compat._default_text_stdout, _compat._default_text_stderr)
            for cell in fn.__closure__ or ()
            if isinstance(cell.cell_contents, WeakKeyDictionary)
        ]
        # These are click internals; fail loudly if a click release moves them.
        if len(self.stream_caches) != 2:
            raise RuntimeError(
                f"expected click's 2 stream caches, found {len(self.stream_caches)}"
            )

    def __call__(self, args: list[str]):
        start = time.perf_counter()
        result = self.runner.invoke(self.main, args)
        elapsed = time.perf_counter() - start
        for cache in self.stream_caches:
            cache.clear()
        crashed = result.exception is not None and not isinstance(result.exception, SystemExit)
        return result, elapsed, crashed


def _crash_text(result) -> str:
    exc = result.exception
    return f"traceback: {type(exc).__module__}.{type(exc).__name__}: {exc}"


class Triage:
    """scan SPEC, ssn --method halos, ssn --method sort and table per dump."""

    setup_rounds = 1  # times each batch is generated, for setup_s

    def __init__(self, seed: int, workdir: Path, sizes) -> None:
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.batch_size = sizes.batch["triage"]

    def make_batch(self, batch: int):
        from corpus import make_triage_item

        first, files = batch * self.batch_size, {}
        items = [
            make_triage_item(self.seed, i, self.workdir, self.sizes, files)
            for i in range(first, first + self.batch_size)
        ]
        return items, files

    def run(self, cli: Cli, it) -> Item:
        import oracle

        base = f"{it.ntdll.base:x}"
        commands = [
            ("scan", ["scan", str(it.spec_path), "--format", "json"]),
            ("ssn", ["ssn", str(it.ntdll_path), "--method", "halos", "--base", base,
                     "--format", "json"]),
            ("ssn", ["ssn", str(it.ntdll_path), "--method", "sort", "--base", base,
                     "--format", "json"]),
            ("table", ["table", str(it.ntdll_path), "--base", base, "--out",
                       str(it.blob_path), "--format", "json"]),
        ]
        start = time.perf_counter()
        results = [(cmd, *cli(args)) for cmd, args in commands]
        elapsed = time.perf_counter() - start

        ops = []
        for k, (cmd, result, seconds, crashed) in enumerate(results):
            if crashed:
                errors = [_crash_text(result)]
            elif k == 0:
                errors = oracle.check_scan(result.exit_code, result.stdout, it.ntdll, it.modules)
            elif cmd == "ssn":
                method = "halos" if k == 1 else "sort"
                errors = oracle.check_ssn(result.exit_code, result.stdout, method, it.ntdll)
            else:
                blob = it.blob_path.read_bytes() if it.blob_path.exists() else None
                errors = oracle.check_table(result.exit_code, result.stdout, blob, it.ntdll)
            ops.append(Op(cmd, seconds, crashed, errors))
        return Item(it.index, it.size, elapsed, ops)


class Rewrite:
    """simulate SPEC --force each module, with and without a prebuilt table."""

    # A run holds only about five rewrite batches, too few set-ups for a
    # steady median, so each batch is generated three times.
    setup_rounds = 3

    def __init__(self, seed: int, workdir: Path, sizes) -> None:
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.batch_size = sizes.batch["rewrite"]

    def make_batch(self, batch: int):
        from corpus import make_rewrite_item

        first, files = batch * self.batch_size, {}
        items = [
            make_rewrite_item(self.seed, i, self.workdir, self.sizes, files)
            for i in range(first, first + self.batch_size)
        ]
        return items, files

    def run(self, cli: Cli, it) -> Item:
        import oracle

        args = ["simulate", str(it.spec_path), "--format", "json"]
        for m in it.modules:
            args += ["--force", m.name]
        if it.blob_path is not None:
            args += ["--table", str(it.blob_path)]
        result, seconds, crashed = cli(args)
        if crashed:
            errors = [_crash_text(result)]
        else:
            errors = oracle.check_simulate(result.exit_code, result.stdout, it.ntdll, it.modules)
        calls = oracle.native_call_count(it.modules)
        return Item(it.index, it.size, seconds, [Op("simulate", seconds, crashed, errors)], calls)


class Hostile:
    """Mutated dumps, prologues, SSN immediates and table blobs, one CLI call each."""

    setup_rounds = 1

    def __init__(self, seed: int, workdir: Path, sizes) -> None:
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.batch_size = sizes.batch["hostile"]

    def make_batch(self, batch: int):
        from corpus import make_hostile_batch

        files = {}
        cases = make_hostile_batch(
            self.seed, batch, batch * self.batch_size, self.batch_size, self.workdir,
            self.sizes, files,
        )
        return cases, files

    def run(self, cli: Cli, case) -> Item:
        import oracle

        result, seconds, crashed = cli(case.args)
        command = case.args[0]
        if crashed:
            errors = [_crash_text(result)]
        elif result.exit_code not in (0, 1, 2):
            errors = [f"{case.kind}: exit code {result.exit_code}"]
        elif case.exact and command == "ssn":
            errors = oracle.check_ssn(
                result.exit_code, result.stdout, "halos", case.ntdll, case.hooked
            )
        elif case.exact:
            blob = case.blob_path.read_bytes() if case.blob_path.exists() else None
            errors = oracle.check_table(
                result.exit_code, result.stdout, blob, case.ntdll, case.hooked
            )
        else:
            errors = []
        return Item(case.index, "small", seconds, [Op(command, seconds, crashed, errors)])


def probe_known_defect(cli: Cli, seed: int, workdir: Path, sizes) -> str:
    """Report line for the negative-SSN defect, run once outside the measure.

    The hostile cases avoid it (see corpus._rewrite_immediates) so that no
    measured operation fails; this probe shows whether it is still there.
    """
    from corpus import defect_probe

    result, _, crashed = cli(defect_probe(seed, workdir, sizes))
    outcome = _crash_text(result) if crashed else f"exit code {result.exit_code}"
    return (
        f"known_defect  {int(crashed)} of 1 probe: table on a neighbour-derived "
        f"SSN of -1 gave {outcome} (not counted in failed)"
    )


def closed_loop(workload, cli: Cli, seconds: float, tracer=None) -> Run:
    """Run whole batches until the measured item time reaches `seconds`.

    A set-up is the generation of one batch's inputs. Writing them to disk is
    left out of its time: on a shared disk the writes took 8-32 ms per
    hostile batch from one run to the next, against a steady 29-35 ms of
    generation.
    """
    from corpus import write_files

    run = Run()
    batch = 0
    while run.measured < seconds or not run.items:
        for _ in range(workload.setup_rounds):
            start = time.perf_counter()
            items, files = workload.make_batch(batch)
            run.setups.append(time.perf_counter() - start)
        write_files(files)
        done = []
        for it in items:
            if tracer is not None:
                tracer.item = it.index
                tracer.active = True
            try:
                done.append(workload.run(cli, it))
            finally:
                if tracer is not None:
                    tracer.active = False
        run.items += done
        run.batch_rates.append(len(done) / sum(i.seconds for i in done))
        for path in workload.workdir.iterdir():
            shutil.rmtree(path)
        batch += 1
    return run


# --- metrics ----------------------------------------------------------------


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the median for q == 50."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sustained_rate(run: Run) -> float:
    """Items per second that three batches in four reach or beat.

    The reference VM runs at one of two speeds that differ by about 1.6x,
    and the share of time at the faster one changes from minute to minute.
    The lower quartile of the batch rates tracks the slower, sustained speed;
    the median and the mean follow that share and spread twice as widely
    from run to run.
    """
    if len(run.batch_rates) == 1:
        return run.batch_rates[0]
    return statistics.quantiles(run.batch_rates, n=4, method="inclusive")[0]


def end_to_end(run: Run, workload: str) -> tuple[dict, list[str]]:
    """BENCHMARK.json's end-to-end metrics plus report lines for all of them."""
    item_ms = [i.seconds * 1e3 for i in run.items]
    n = len(item_ms)
    measured = run.measured
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(run.setups), "s"),
        "items_per_s": (sustained_rate(run), "1/s"),
        "item_ms_p90": (_p(item_ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"setup_s       {metrics['setup_s'][0]:.4f} s    median of {len(run.setups)} batch set-ups",
        f"items_per_s   {metrics['items_per_s'][0]:.3f} 1/s  lower quartile of "
        f"{len(run.batch_rates)} batch rates; {n} items in {measured:.2f} s",
        # Printed only: on the reference VM the median follows the share of
        # time spent at the faster CPU speed (see NOTES.md, "Noise").
        f"item_ms_p50   {_p(item_ms, 50):.3f} ms   n={n}",
        f"item_ms_p90   {metrics['item_ms_p90'][0]:.3f} ms   n={n}",
    ]
    for command in ("scan", "ssn", "table", "simulate"):
        ms = [op.seconds * 1e3 for op in run.ops() if op.command == command]
        if ms and workload != "hostile":
            lines.append(f"{command}_ms_p50   {_p(ms, 50):.3f} ms   n={len(ms)}")
            lines.append(f"{command}_ms_p90   {_p(ms, 90):.3f} ms   n={len(ms)}")
    if workload == "rewrite":
        calls = sum(i.calls for i in run.items)
        lines.append(f"calls_per_s   {calls / measured:.2f} 1/s  {calls} calls in {measured:.2f} s")
    if workload == "hostile":
        lines.append(
            f"cases_per_s   {metrics['items_per_s'][0]:.3f} 1/s  lower quartile of "
            f"{len(run.batch_rates)} batch rates; {n} cases in {measured:.2f} s"
        )
    ops = run.ops()
    failed = sum(1 for op in ops if op.crashed or op.errors)
    crashed = sum(1 for op in ops if op.crashed)
    lines.append(
        f"failed_share  {failed / len(ops):.5f}      {failed} failed of {len(ops)} CLI "
        f"operations ({crashed} tracebacks, {failed - crashed} wrong answers)"
    )
    lines.append(f"peak_rss_mb   {rss_mb:.2f} MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(tracer, untraced: Run, traced: Run) -> tuple[dict, list[str]]:
    """Per-item counts and self times from the traced run.

    The report lines give every metric; the result holds those of PER_LAYER.
    """
    from tracer import LAYERS

    n = len(traced.items)
    calls, own = tracer.self_times()
    obs = tracer.observed
    metrics: dict[str, tuple[float, str]] = {}

    def per_item(name: str, value: float, unit: str) -> None:
        metrics[name] = (value / n, unit)

    for fn in ("image.enumerate_exports", "image.enumerate_imports",
               "ssn.derive_ssn_neighbors"):
        per_item(f"{fn}.calls", calls[fn], "count")
        per_item(f"{fn}.self_ms", own[fn] / 1e6, "ms")
    for fn in ("image.with_patched_bytes", "table.serialize_list",
               "table.deserialize_list", "ssn.find_syscall_instruction"):
        per_item(f"{fn}.calls", calls[fn], "count")
    for fn in ("image.parse_image", "hooks.scan_inline_hooks", "hooks.scan_iat_hooks",
               "hooks.render_report", "ssn.derive_ssn_by_sort", "table.build_syscall_list",
               "simulate.plan_rewrite", "simulate.apply_rewrite", "simulate.verify_chain",
               "procspec.load_process_spec", "cli.scan", "cli.ssn", "cli.table",
               "cli.simulate"):
        per_item(f"{fn}.self_ms", own[fn] / 1e6, "ms")
    for layer in LAYERS:
        layer_ns = sum(ns for name, ns in own.items() if name.startswith(layer + "."))
        per_item(f"{layer}.self_ms", layer_ns / 1e6, "ms")
        typed = tracer.typed_exits if layer == "cli" else tracer.typed_errors[layer]
        per_item(f"{layer}.typed_errors", typed, "count")
    per_item("image.with_patched_bytes.bytes_copied", obs["image.bytes_copied"], "B")
    per_item("image.log_records", tracer.log_records["image"], "count")
    per_item("hooks.log_records", tracer.log_records["hooks"], "count")
    per_item("hooks.findings", obs["hooks.findings"], "count")
    per_item("table.entries", obs["table.entries"], "count")
    per_item("simulate.edits", obs["simulate.edits"], "count")
    neighbours = calls["ssn.derive_ssn_neighbors"]
    metrics["ssn.derived_share"] = (obs["ssn.derived"] / neighbours if neighbours else 0.0, "share")

    size = {i.index: i.size for i in traced.items}
    by_item = tracer.inclusive_by_item("simulate.resolve_call") if calls["simulate.resolve_call"] else {}
    for label in ("small", "large"):
        spans = [v for k, v in by_item.items() if size.get(k) == label]
        count = sum(c for c, _ in spans)
        ns = sum(t for _, t in spans)
        metrics[f"simulate.resolve_call.us_per_call.{label}"] = (ns / count / 1e3 if count else 0.0, "us")

    fast = sustained_rate(untraced)
    slow = sustained_rate(traced)
    metrics["trace.items_per_s.untraced"] = (fast, "1/s")
    metrics["trace.items_per_s.traced"] = (slow, "1/s")
    metrics["trace.overhead_share"] = ((fast - slow) / fast, "share")

    lines = [
        f"traced items  {n} (untraced {len(untraced.items)}); values are per item",
        f"tracing overhead: items_per_s {fast:.3f} untraced - {slow:.3f} traced = "
        f"{fast - slow:.3f} 1/s ({(fast - slow) / fast:.1%})",
    ]
    lines += [f"{name}  {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in PER_LAYER}, lines


# --- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs and a fraction of a second"
    )
    return parser.parse_args(argv)


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or fail: the benchmark
    measures the source tree it sits next to, never an installed copy."""
    if not (SRC / "hookscope" / "cli.py").is_file():
        raise SystemExit(f"error: no hookscope source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_benchmark(args, out=sys.stdout) -> dict:
    """Run one workload and return the result object printed last."""
    require_source()
    import corpus
    from tracer import Tracer

    sizes = corpus.SMOKE if args.smoke else corpus.Sizes()
    seconds = 0.05 if args.smoke else args.seconds
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cls = {"triage": Triage, "rewrite": Rewrite, "hostile": Hostile}[args.workload]
    header = (
        f"hookscope-bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
        f"loop=closed clients=1 threads=1"
    )
    print(header, file=out)
    try:
        cli = Cli()
        if args.trace:
            untraced = closed_loop(cls(args.seed, workdir, sizes), cli, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(cls(args.seed, workdir, sizes), cli, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics, lines = per_layer(tracer, untraced, traced)
            # One file per workload, replaced by each traced run.
            spans = ROOT / ".bench_out" / f"spans-{args.workload}.tsv.gz"
            tracer.write(spans, header)
            lines.append(f"spans written to {spans.relative_to(ROOT)}")
            runs = [untraced, traced]
        else:
            run = closed_loop(cls(args.seed, workdir, sizes), cli, seconds)
            metrics, lines = end_to_end(run, args.workload)
            runs = [run]
        if args.workload == "hostile":
            lines.append(probe_known_defect(cli, args.seed, workdir, sizes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line, file=out)

    ops = [op for run in runs for op in run.ops()]
    wrong = [e for op in ops if not op.crashed for e in op.errors]
    for error in wrong[:5] + [e for op in ops if op.crashed for e in op.errors][:5]:
        print(f"FAILED {error}", file=out)
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.crashed or op.errors),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
