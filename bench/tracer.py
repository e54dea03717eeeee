"""Span tracing of hookscope from outside the program.

`Tracer.install()` wraps every public module-level function of each layer
module (and the callbacks of the CLI commands) and rebinds each wrapped
name in every hookscope module that holds it, including names bound through
`from .x import y`. Nested calls therefore become child spans, for example
`hooks.enumerate_exports` under `hooks.scan_inline_hooks`.

A span is (name, start, end, parent span, item id), kept in compact arrays
in memory and written out by `write()` when the run ends. Small addressing
and decoding helpers that run once per export or import entry are timed the
same way but folded into one record per (helper, parent span), because a
record per call would hold millions of spans; their time still counts as
child time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import logging
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("image", "hooks", "ssn", "table", "simulate", "procspec", "cli")
CLI_COMMANDS = ("scan", "ssn", "table", "simulate")

# Helpers called per export, import slot, stub or table row.
FOLDED = frozenset(
    {
        "image.rva_to_offset",
        "image.offset_to_rva",
        "image.read_at_rva",
        "image.read_bytes_at_va",
        "ssn.read_clean_ssn",
        "ssn.hash_name",
        "hooks.decode_jmp_rel32",
        "hooks.finding_to_json",
        "simulate.normalize_module_name",
        "simulate.trace_to_json",
    }
)


class _LogCounter(logging.Handler):
    """Counts records per logger and passes them on as an unconfigured CLI would.

    With no handler configured, the logging module hands records to
    `logging.lastResort` (stderr, WARNING); attaching this handler would
    suppress that, so it forwards them there itself.
    """

    def __init__(self, counts: Counter) -> None:
        super().__init__(logging.NOTSET)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name.rsplit(".", 1)[-1]] += 1
        last = logging.lastResort
        if last is not None and record.levelno >= last.level:
            last.handle(record)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_item = array("i")
        # (name id, parent span, inside another folded helper)
        #   -> [calls, total ns, ns of folded helpers it called]
        self.folded: dict[tuple[int, int, bool], list[int]] = {}
        self._folded_stack: list[tuple[int, int, bool]] = []
        self.stack: list[int] = []
        self.item = -1
        self.active = False
        self.typed_errors: Counter = Counter()  # by the layer that raised
        self.typed_exits = 0  # CLI commands that exited 2 on a typed error
        self.log_records: Counter = Counter()
        self.observed: Counter = Counter()  # per-layer domain counters
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _LogCounter(self.log_records)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import click
        import hookscope
        from hookscope.cli import main
        from hookscope.errors import HookscopeError

        self._typed = HookscopeError
        self._exit = click.exceptions.Exit
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "hookscope" or name.startswith("hookscope."))
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"hookscope.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for command in CLI_COMMANDS:
            cmd = main.commands[command]
            self._patch(cmd, "callback", self._wrap(f"cli.{command}", cmd.callback))
        logging.getLogger(hookscope.__name__).addHandler(self._handler)

    def uninstall(self) -> None:
        import hookscope

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        logging.getLogger(hookscope.__name__).removeHandler(self._handler)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns
        stack = self.stack

        if name in FOLDED:

            @functools.wraps(fn)
            def folded(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                fstack = self._folded_stack
                outer = fstack[-1] if fstack else None
                key = (nid, stack[-1] if stack else -1, outer is not None)
                fstack.append(key)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    self._on_error(layer, exc)
                    raise
                finally:
                    ns = clock() - start
                    fstack.pop()
                    slot = self.folded.get(key)
                    if slot is None:
                        slot = self.folded[key] = [0, 0, 0]
                    slot[0] += 1
                    slot[1] += ns
                    if outer is not None:
                        slot = self.folded.get(outer)
                        if slot is None:
                            slot = self.folded[outer] = [0, 0, 0]
                        slot[2] += ns

            return folded

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_item.append(self.item)
            self.span_end.append(0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.span_end[idx] = clock()
                stack.pop()
                self._on_error(layer, exc)
                raise
            self.span_end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return spanned

    def _on_error(self, layer: str, exc: BaseException) -> None:
        """Tag a typed error with the innermost layer that raised it, and count
        it against that layer when a CLI command turns it into exit code 2."""
        if isinstance(exc, self._typed):
            if not hasattr(exc, "_bench_layer"):
                exc._bench_layer = layer
        elif layer == "cli" and isinstance(exc, self._exit) and exc.exit_code == 2:
            cause = exc.__context__
            if isinstance(cause, self._typed):
                self.typed_errors[getattr(cause, "_bench_layer", "cli")] += 1
                self.typed_exits += 1

    # --- results ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per function name: calls and self ns."""
        calls: Counter = Counter()
        child = [0] * len(self.span_start)
        own: Counter = Counter()
        for (nid, parent, nested), (n, ns, inner) in self.folded.items():
            name = self.names[nid]
            calls[name] += n
            own[name] += ns - inner
            if parent >= 0 and not nested:
                child[parent] += ns
        for i in range(len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        for i in range(len(self.span_start)):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            own[name] += dur - child[i]
        return calls, own

    def inclusive_by_item(self, name: str) -> dict[int, tuple[int, int]]:
        """Item id -> (calls, inclusive ns) of one spanned function."""
        nid = self.name_ids[name]
        out: dict[int, list[int]] = {}
        for i in range(len(self.span_start)):
            if self.span_name[i] == nid:
                slot = out.setdefault(self.span_item[i], [0, 0])
                slot[0] += 1
                slot[1] += self.span_end[i] - self.span_start[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path, header: str) -> None:
        """Write spans as gzipped tab-separated lines, then the folded helper totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# {header}\n# span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
            out.write("# folded\tname\tparent\tnested\tcalls\ttotal_ns\tinner_ns\n")
            for (nid, parent, nested), (n, ns, inner) in sorted(self.folded.items()):
                out.write(
                    f"folded\t{self.names[nid]}\t{parent}\t{int(nested)}\t{n}\t{ns}\t{inner}\n"
                )


# --- domain counters read from arguments and results ------------------------


_CLEAN_HEAD = b"\x4c\x8b\xd1\xb8"


def _observe_neighbors(counts: Counter, args, result) -> None:
    image, entry_va = args[0], args[1]
    off = entry_va - image.image_base
    prologue = image.data[off : off + 8]
    if prologue[:4] != _CLEAN_HEAD or prologue[6:8] != b"\x00\x00":
        counts["ssn.derived"] += 1


def _observe_patch(counts: Counter, args, result) -> None:
    counts["image.bytes_copied"] += len(result.data)


def _observe_plan(counts: Counter, args, result) -> None:
    counts["simulate.edits"] += len(result.edits)


def _observe_build(counts: Counter, args, result) -> None:
    counts["table.entries"] += result.count


def _observe_inline(counts: Counter, args, result) -> None:
    counts["hooks.findings"] += len(result)


def _observe_iat(counts: Counter, args, result) -> None:
    counts["hooks.findings"] += sum(len(f) for f in result.values())


_OBSERVERS = {
    "ssn.derive_ssn_neighbors": _observe_neighbors,
    "image.with_patched_bytes": _observe_patch,
    "simulate.plan_rewrite": _observe_plan,
    "table.build_syscall_list": _observe_build,
    "hooks.scan_inline_hooks": _observe_inline,
    "hooks.scan_iat_hooks": _observe_iat,
}
