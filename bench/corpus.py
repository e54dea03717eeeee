"""Fixed-seed benchmark inputs and their ground truth.

Every item is a function of (seed, workload, item index) alone, so the same
seed regenerates byte-identical dump, spec and blob files. Generators return
file contents in a `Files` map instead of writing them, so that generation
can be timed apart from the disk writes. Images come from
`hookscope.fixtures`; everything the oracle later expects is derived here
from the fixture specs (stub positions, injected hooks, bound and tampered
slots), never from hookscope's own analysis code.

Service numbers are positional: the stub at position i carries SSN i, so the
neighbour route and the sort route both have an exact answer.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

from hookscope.fixtures import (
    GarbageHook,
    JmpRel32Hook,
    ModuleSpec,
    NtdllSpec,
    build_synthetic_module,
    build_synthetic_ntdll,
)

# Layout constants of the fixture generator and of the table format, as the
# README states them.
STRIDE = 32
BASE_RVA = 0x1000
SYSCALL_OFFSET = 0x12
STUB_ENTRY_SIZE = 0x14
STUB_BASE = 0x00007FF7BE5D7C1C
TABLE_VA = 0x00007FF7BE63DD30
BASE_FUNCTIONS = (
    "ZwOpenProcess",
    "ZwProtectVirtualMemory",
    "ZwReadVirtualMemory",
    "ZwWriteVirtualMemory",
    "ZwAllocateVirtualMemory",
    "ZwDelayExecution",
)
_MASK64 = (1 << 64) - 1

_VERBS = (
    "Accept Adjust Alert Allocate Cancel Close Commit Compare Create Delay Delete "
    "Duplicate Enumerate Flush Free Get Impersonate Load Lock Map Notify Open Protect "
    "Query Read Register Release Remove Reset Restore Resume Save Set Signal Start "
    "Stop Suspend Terminate Trace Unload Unlock Unmap Wait Write"
).split()
_NOUNS = (
    "Apc Atom BootEntry Cache Callback Channel Context DebugObject Directory Driver "
    "Enlistment Event Execution File InformationProcess InformationThread IoCompletion "
    "Job Key Locale Mutant Object Partition Port PowerState Process Profile Registry "
    "Resource Section Semaphore Session SystemTime Thread Timer Token Transaction "
    "Value VirtualMemory Volume WorkerFactory"
).split()
_MODULE_NAMES = ("kernelbase", "user32", "advapi32", "ws2_32", "combase", "rpcrt4")
_EXTRA_NTDLL_IMPORTS = ("RtlAllocateHeap", "RtlFreeHeap")
_KERNEL32_IMPORTS = ("CreateFileW", "CloseHandle")


def hash_name(name: str) -> int:
    """Rotate-right-13 additive hash over the name bytes (README table format)."""
    h = 0
    for c in name.encode("ascii"):
        h = (((h >> 13) | (h << 51)) + c) & _MASK64
    return h


def item_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"hookscope-bench:{seed}:{workload}:{index}")


# --- ground truth -----------------------------------------------------------


@dataclass
class NtdllTruth:
    base: int
    names: tuple[str, ...]  # Zw spelling by stub position; position == SSN
    hooks: dict[str, tuple[str, int]]  # Zw name -> ("jmp", target va) | ("garbage", 0)
    position: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.position = {name: i for i, name in enumerate(self.names)}

    def entry_va(self, name: str) -> int:
        return self.base + BASE_RVA + self.position[canonical(name)] * STRIDE

    def syscall_va(self, name: str) -> int:
        return self.entry_va(name) + SYSCALL_OFFSET

    def table_names(self) -> list[str]:
        """Canonical names the table holds: base functions plus hooked stubs."""
        return sorted(set(BASE_FUNCTIONS) | set(self.hooks))


@dataclass
class ModuleTruth:
    name: str
    base: int
    imports: tuple[tuple[str, str], ...]  # (dll, function) in import order
    tamper: dict[str, int]

    def native_imports(self) -> list[str]:
        return [fn for dll, fn in self.imports if dll == "ntdll.dll" and is_native(fn)]


def is_native(name: str) -> bool:
    return name.startswith("Nt") or name.startswith("Zw")


def canonical(name: str) -> str:
    return "Zw" + name[2:]


def table_blob(ntdll: NtdllTruth, names: list[str]) -> bytes:
    """Serialized table for the given canonical names, from ground truth."""
    out = bytearray(struct.pack("<Q", len(names)))
    for name in names:
        va = ntdll.entry_va(name)
        out += struct.pack(
            "<QQQQQ", ntdll.position[name], va, va + SYSCALL_OFFSET, 0, hash_name(name)
        )
    index = {name: i for i, name in enumerate(names)}
    out += struct.pack("<6Q", *(index[name] for name in BASE_FUNCTIONS))
    return bytes(out)


# --- image generation -------------------------------------------------------


def _stub_names(rng: random.Random, count: int) -> tuple[str, ...]:
    pool = sorted(
        {f"Zw{v}{n}" for v in _VERBS for n in _NOUNS} - set(BASE_FUNCTIONS)
    )
    names = list(BASE_FUNCTIONS) + rng.sample(pool, count - len(BASE_FUNCTIONS))
    rng.shuffle(names)
    return tuple(names)


def _jmp_delta(rng: random.Random, entry_va: int, base: int) -> int:
    """A jump target whose rel32 bytes hold no syscall opcode pair."""
    while True:
        delta = 0x200000 + rng.randrange(0x100000) * 16
        rel = struct.pack("<i", (base + delta) - (entry_va + 5))
        if b"\x0f\x05" not in b"\xe9" + rel:
            return delta


def make_ntdll(rng: random.Random, stubs: int, density: float, base: int):
    """Generate an ntdll dump with Nt/Zw aliases and `density` of its stubs hooked."""
    names = _stub_names(rng, stubs)
    hooked = rng.sample(names, round(density * stubs))
    hooks, truth_hooks = {}, {}
    for name in hooked:
        if rng.random() < 0.5:
            entry_va = base + BASE_RVA + names.index(name) * STRIDE
            delta = _jmp_delta(rng, entry_va, base)
            hooks[name] = JmpRel32Hook(target_delta=delta)
            truth_hooks[name] = ("jmp", base + delta)
        else:
            hooks[name] = GarbageHook()
            truth_hooks[name] = ("garbage", 0)
    spec = NtdllSpec(
        functions=tuple((name, i) for i, name in enumerate(names)),
        hooks=hooks,
        stride=STRIDE,
        base_rva=BASE_RVA,
        syscall_offset=SYSCALL_OFFSET,
        alias_both_prefixes=True,
    )
    image = build_synthetic_ntdll(spec, image_base=base, seed=rng.getrandbits(32))
    return image.data, NtdllTruth(base=base, names=names, hooks=truth_hooks)


def make_module(
    rng: random.Random,
    name: str,
    base: int,
    ntdll: NtdllTruth,
    natives: list[str],
    tampered: int,
):
    """Generate a module dump importing `natives` (random Nt/Zw spelling)."""
    imports = [("ntdll.dll", rng.choice(("Nt", "Zw")) + fn[2:]) for fn in natives]
    imports += [("ntdll.dll", fn) for fn in _EXTRA_NTDLL_IMPORTS]
    imports += [("kernel32.dll", fn) for fn in _KERNEL32_IMPORTS]
    rng.shuffle(imports)
    resolver = {}
    for dll, fn in imports:
        if dll == "ntdll.dll" and is_native(fn):
            resolver[(dll, fn)] = ntdll.entry_va(fn)
        elif dll == "ntdll.dll":
            resolver[(dll, fn)] = ntdll.base + 0x800
        else:
            resolver[(dll, fn)] = 0x00007FFE_30000000 + 0x10 * len(resolver)
    native_spellings = [fn for dll, fn in imports if dll == "ntdll.dll" and is_native(fn)]
    tamper = {
        fn: 0x00007FF6_00000000 + rng.randrange(1 << 24) * 16
        for fn in rng.sample(native_spellings, tampered)
    }
    spec = ModuleSpec(name=name, imports=tuple(imports), tamper=tamper)
    image = build_synthetic_module(spec, resolver, image_base=base)
    return image.data, ModuleTruth(name, base, tuple(imports), tamper)


def _ntdll_base(rng: random.Random) -> int:
    return 0x00007FFE_B0000000 + rng.randrange(0x100) * 0x10000


def _module_base(ntdll_base: int, k: int) -> int:
    return ntdll_base - (k + 1) * 0x01000000


Files = dict[Path, bytes]  # the files a batch needs, not yet written


def write_files(files: Files) -> None:
    for path, data in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def spec_json(ntdll_file: str, ntdll: NtdllTruth, modules) -> bytes:
    """A path-form process spec; `modules` holds (truth, dump file name)."""
    doc = {
        "modules": [{"name": "ntdll", "base": f"0x{ntdll.base:016x}", "path": ntdll_file}]
        + [
            {"name": m.name, "base": f"0x{m.base:016x}", "path": dump}
            for m, dump in modules
        ],
        "ntdll": "ntdll",
        "config": {"stub_base": f"0x{STUB_BASE:016x}", "table_va": f"0x{TABLE_VA:016x}"},
    }
    return json.dumps(doc, indent=2).encode()


# --- workload items ---------------------------------------------------------


@dataclass
class TriageItem:
    """One fresh ntdll dump plus a path-form process spec over it."""

    index: int
    size: str
    ntdll: NtdllTruth
    modules: list[ModuleTruth]
    ntdll_path: Path
    spec_path: Path
    blob_path: Path


@dataclass
class RewriteItem:
    """A process spec whose modules are all forced rewrite targets."""

    index: int
    size: str
    ntdll: NtdllTruth
    modules: list[ModuleTruth]
    spec_path: Path
    blob_path: Path | None


@dataclass
class HostileCase:
    """One mutated input and the CLI arguments that consume it."""

    index: int
    kind: str
    args: list[str]
    ntdll: NtdllTruth
    exact: bool  # the mutation keeps an exact expected output
    hooked: frozenset[str] = frozenset()  # canonical names with a non-clean prologue
    blob_path: Path | None = None


@dataclass(frozen=True)
class Sizes:
    """Per-workload input sizes; `smoke` shrinks them for a sub-second run."""

    triage_stubs: tuple[int, ...] = (478, 1000)
    triage_imports: tuple[int, int] = (50, 200)
    rewrite_small: tuple[int, int] = (478, 200)
    rewrite_large: tuple[int, int] = (1000, 450)
    hostile_stubs: int = 478
    hostile_imports: int = 24
    batch: dict = field(default_factory=lambda: {"triage": 16, "rewrite": 8, "hostile": 70})


SMOKE = Sizes(
    triage_stubs=(64, 96),
    triage_imports=(8, 16),
    rewrite_small=(64, 20),
    rewrite_large=(96, 40),
    hostile_stubs=64,
    hostile_imports=8,
    batch={"triage": 4, "rewrite": 8, "hostile": 21},
)

TRIAGE_DENSITIES = (0.0, 0.02, 0.10, 0.30)


def make_triage_item(
    seed: int, index: int, workdir: Path, sizes: Sizes, files: Files
) -> TriageItem:
    rng = item_rng(seed, "triage", index)
    stubs = sizes.triage_stubs[index % len(sizes.triage_stubs)]
    density = TRIAGE_DENSITIES[(index // len(sizes.triage_stubs)) % len(TRIAGE_DENSITIES)]
    base = _ntdll_base(rng)
    data, ntdll = make_ntdll(rng, stubs, density, base)
    d = workdir / f"triage_{index:05d}"
    files[d / "ntdll.bin"] = data
    modules = []
    lo, hi = sizes.triage_imports
    for k, name in enumerate(rng.sample(_MODULE_NAMES, rng.randint(2, 4))):
        natives = rng.sample(ntdll.names, min(rng.randint(lo, hi), stubs))
        mdata, mtruth = make_module(
            rng, name, _module_base(base, k), ntdll, natives, tampered=rng.randint(0, 3)
        )
        files[d / f"{name}.bin"] = mdata
        modules.append((mtruth, f"{name}.bin"))
    files[d / "spec.json"] = spec_json("ntdll.bin", ntdll, modules)
    return TriageItem(
        index=index,
        size="small" if stubs == min(sizes.triage_stubs) else "large",
        ntdll=ntdll,
        modules=[m for m, _ in modules],
        ntdll_path=d / "ntdll.bin",
        spec_path=d / "spec.json",
        blob_path=d / "table.bin",
    )


# One batch of rewrite items: (size, target modules, pass a prebuilt table).
# Half the items are small and half large, and in each half two items pass a
# prebuilt table and two do not. Small items force 1 or 3 modules; large
# items always force 2. resolve_call walks the caller's import table, so
# imports per module set the per-call cost; with one module count for all
# large items, the slowest tenth of the items (item_ms_p90) lies inside one
# cluster instead of on the edge between two. Every batch has the same mix,
# so runs of different seeds and lengths do too.
REWRITE_BATCH = (
    ("small", 1, True),
    ("large", 2, False),
    ("small", 3, False),
    ("large", 2, True),
    ("small", 1, False),
    ("large", 2, True),
    ("small", 3, True),
    ("large", 2, False),
)


def make_rewrite_item(
    seed: int, index: int, workdir: Path, sizes: Sizes, files: Files
) -> RewriteItem:
    rng = item_rng(seed, "rewrite", index)
    size, count, with_blob = REWRITE_BATCH[index % len(REWRITE_BATCH)]
    stubs, imports = sizes.rewrite_small if size == "small" else sizes.rewrite_large
    base = _ntdll_base(rng)
    # Low density keeps hooked entries plus forced imports under the 512 cap.
    data, ntdll = make_ntdll(rng, stubs, 0.02, base)
    d = workdir / f"rewrite_{index:05d}"
    files[d / "ntdll.bin"] = data
    chosen = rng.sample(ntdll.names, imports)
    # An even split: resolve_call walks the caller's whole import table, so
    # module sizes set the per-call cost, and they stay the same across seeds.
    cuts = [len(chosen) * k // count for k in range(count + 1)]
    parts = [chosen[a:b] for a, b in zip(cuts, cuts[1:])]
    modules = []
    for k, (name, natives) in enumerate(zip(rng.sample(_MODULE_NAMES, count), parts)):
        mdata, mtruth = make_module(rng, name, _module_base(base, k), ntdll, natives, 0)
        files[d / f"{name}.bin"] = mdata
        modules.append((mtruth, f"{name}.bin"))
    files[d / "spec.json"] = spec_json("ntdll.bin", ntdll, modules)
    blob_path = None
    if with_blob:
        blob_path = d / "table.bin"
        files[blob_path] = table_blob(ntdll, ntdll.table_names())
    return RewriteItem(
        index=index,
        size=size,
        ntdll=ntdll,
        modules=[m for m, _ in modules],
        spec_path=d / "spec.json",
        blob_path=blob_path,
    )


HOSTILE_KINDS = (
    "ntdll_dump",  # truncation / byte flips of an ntdll dump -> scan DUMP
    "module_dump",  # truncation / byte flips of a module dump -> scan SPEC
    "prologue_ssn",  # stub-prologue rewrites -> ssn --method halos
    "prologue_table",  # stub-prologue rewrites -> table
    "immediate_ssn",  # SSN-immediate rewrites -> ssn --method halos
    "immediate_table",  # SSN-immediate rewrites -> table
    "blob",  # truncation / byte flips of a table blob -> simulate --table
)


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """Truncate, flip 1-16 bytes, or both (the criterion-10 mutation style)."""
    target = bytearray(data)
    op = rng.randrange(3)
    if op in (0, 2) and len(target) > 1:
        target = target[: rng.randrange(1, len(target))]
    if op in (1, 2):
        for _ in range(rng.randint(1, 16)):
            target[rng.randrange(len(target))] = rng.randrange(256)
    return bytes(target)


def _rewrite_prologues(rng: random.Random, data: bytes, ntdll: NtdllTruth):
    """Overwrite 1-8 clean prologues with bytes that read as hooked."""
    buf = bytearray(data)
    clean = [n for n in ntdll.names if n not in ntdll.hooks]
    victims = rng.sample(clean, min(len(clean), rng.randint(1, 8)))
    for name in victims:
        off = ntdll.entry_va(name) - ntdll.base
        head = bytes([rng.choice([b for b in range(256) if b not in (0x4C, 0x0F, 0x05)])])
        tail = bytes(rng.choice([b for b in range(256) if b not in (0x0F, 0x05)]) for _ in range(7))
        buf[off : off + 8] = head + tail
    return bytes(buf), frozenset(ntdll.hooks) | frozenset(victims)


def _rewrite_immediates(rng: random.Random, data: bytes, ntdll: NtdllTruth) -> bytes:
    """Change the SSN immediate of 1-4 clean stubs: random, nearby, or zero.

    Only stubs whose predecessor is clean are changed. Such a stub is never
    the nearest intact stub below a hooked one, so the neighbour route never
    subtracts a distance from a changed immediate, and no derived SSN goes
    negative. A negative one makes `table` raise a raw struct.error (a known
    defect); `defect_probe` reproduces it apart from the measured cases, so
    that every measured case has an outcome that does not vary with the seed.
    """
    buf = bytearray(data)
    clean = [
        n for i, n in enumerate(ntdll.names)
        if n not in ntdll.hooks and (i == 0 or ntdll.names[i - 1] not in ntdll.hooks)
    ]
    for name in rng.sample(clean, min(len(clean), rng.randint(1, 4))):
        true = ntdll.position[name]
        choice = rng.randrange(3)
        if choice == 0:
            value = rng.randrange(0x10000)
        elif choice == 1:
            value = max(0, true + rng.choice((-3, -2, -1, 1, 2, 3)))
        else:
            value = 0
        off = ntdll.entry_va(name) - ntdll.base + 4
        buf[off : off + 2] = struct.pack("<H", value)
    return bytes(buf)


def make_hostile_batch(
    seed: int, batch: int, first_index: int, count: int, workdir: Path, sizes: Sizes,
    files: Files,
) -> list[HostileCase]:
    """A valid process per batch, then `count` mutated cases derived from it."""
    rng = item_rng(seed, "hostile-base", batch)
    base = _ntdll_base(rng)
    data, ntdll = make_ntdll(rng, sizes.hostile_stubs, 0.10, base)
    natives = rng.sample(ntdll.names, sizes.hostile_imports)
    mdata, module = make_module(rng, "kernelbase", _module_base(base, 0), ntdll, natives, 2)
    d = workdir / f"hostile_{batch:05d}"
    files[d / "ntdll.bin"] = data
    files[d / "kernelbase.bin"] = mdata
    files[d / "spec.json"] = spec_json("ntdll.bin", ntdll, [(module, "kernelbase.bin")])
    blob = table_blob(ntdll, ntdll.table_names())
    base_hex = f"{base:x}"

    cases = []
    for index in range(first_index, first_index + count):
        crng = item_rng(seed, "hostile", index)
        kind = HOSTILE_KINDS[index % len(HOSTILE_KINDS)]
        path = d / f"case_{index:06d}.bin"
        exact, hooked, blob_path = False, frozenset(), None
        if kind == "ntdll_dump":
            files[path] = _mutate_bytes(crng, data)
            args = ["scan", str(path), "--base", base_hex, "--format", "json"]
        elif kind == "module_dump":
            files[path] = _mutate_bytes(crng, mdata)
            spec = d / f"case_{index:06d}.json"
            files[spec] = spec_json("ntdll.bin", ntdll, [(module, path.name)])
            args = ["scan", str(spec), "--format", "json"]
        elif kind.startswith("prologue"):
            files[path], hooked = _rewrite_prologues(crng, data, ntdll)
            exact = True
        elif kind.startswith("immediate"):
            files[path] = _rewrite_immediates(crng, data, ntdll)
        else:
            files[path] = _mutate_bytes(crng, blob)
            args = ["simulate", str(d / "spec.json"), "--table", str(path)]
            args += ["--force", "kernelbase", "--format", "json"]
        if kind.endswith("_ssn"):
            args = ["ssn", str(path), "--method", "halos", "--base", base_hex, "--format", "json"]
        elif kind.endswith("_table"):
            blob_path = d / f"case_{index:06d}.table"
            args = ["table", str(path), "--base", base_hex, "--out", str(blob_path)]
            args += ["--format", "json"]
        cases.append(HostileCase(index, kind, args, ntdll, exact, hooked, blob_path))
    return cases


def defect_probe(seed: int, workdir: Path, sizes: Sizes) -> list[str]:
    """`table` args on an ntdll whose neighbour route derives SSN -1.

    Takes the hostile base ntdll of the seed's first batch and zeroes the
    immediate of the first clean stub that follows a hooked one. The hooked
    stub's nearest intact neighbour is then one stride below it with
    immediate 0, so the neighbour route derives 0 - 1. The file is written
    here, outside any timing.
    """
    rng = item_rng(seed, "hostile-base", 0)
    base = _ntdll_base(rng)
    data, ntdll = make_ntdll(rng, sizes.hostile_stubs, 0.10, base)
    buf = bytearray(data)
    victim = next(
        n for i, n in enumerate(ntdll.names)
        if i > 0 and n not in ntdll.hooks and ntdll.names[i - 1] in ntdll.hooks
    )
    off = ntdll.entry_va(victim) - ntdll.base + 4
    buf[off : off + 2] = struct.pack("<H", 0)
    d = workdir / "defect_probe"
    write_files({d / "ntdll.bin": bytes(buf)})
    return ["table", str(d / "ntdll.bin"), "--base", f"{base:x}",
            "--out", str(d / "table.bin"), "--format", "json"]
