"""Process-spec files: a JSON description of a loaded process.

Schema:
    {
      "modules": [
        {"name": str, "base": "0x...", "path": str}            # raw dump file
        or {"name": str, "base": "0x...", "inline_fixture": {...}}
      ],
      "ntdll": str,          # name of the module that plays ntdll
      "config": {"stub_base": "0x..."},
      "seed": int            # optional, default 0; seeds garbage-hook bytes
    }

Inline fixtures make a spec fully self-contained:
    ntdll form:  {"type": "ntdll", "functions": [["ZwFoo", 7], ...],
                  "hooks": {"ZwFoo": {"kind": "jmp_rel32", "target_delta": "0x..."}
                            or {"kind": "garbage"}},
                  "stride": 32, "base_rva": "0x1000", "syscall_offset": "0x12",
                  "alias_both_prefixes": false}
    module form: {"type": "module", "imports": [["ntdll.dll", "NtFoo"], ...],
                  "tamper": {"NtFoo": "0x..."}}

A key or value of the wrong JSON type, or an address outside 64 bits, is a
`SpecInvalid` error. Other keys, in the spec or in its config, are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Union

from .errors import SpecInvalid, UnresolvedImport
from .fixtures import (
    GarbageHook,
    Hook,
    JmpRel32Hook,
    ModuleSpec,
    NtdllSpec,
    build_process_model,
    build_synthetic_module,
    build_synthetic_ntdll,
)
from .image import Layout, PeImage, _is_native_name, parse_image
from .simulate import ProcessModel, normalize_module_name
from .table import RewriteConfig


def _to_int(value: Union[int, str], what: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise SpecInvalid(f"{what} must be an integer or a hex string, got {value!r}")


def _to_address(value: Union[int, str], what: str) -> int:
    address = _to_int(value, what)
    if not 0 <= address < 1 << 64:
        raise SpecInvalid(f"{what} {address:#x} is not a 64-bit address")
    return address


def _object(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise SpecInvalid(f"{what} must be an object, got {type(value).__name__}")
    return value


def _pairs(value: Any, what: str) -> list[tuple[Any, Any]]:
    """A JSON list of two-element lists, as tuples."""
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    ):
        raise SpecInvalid(f"{what} must be a list of pairs")
    return [tuple(pair) for pair in value]


def _hook_from_json(doc: Mapping[str, Any]) -> Hook:
    kind = doc.get("kind")
    if kind == "jmp_rel32":
        return JmpRel32Hook(target_delta=_to_int(doc.get("target_delta", 0), "target_delta"))
    if kind == "garbage":
        return GarbageHook()
    raise SpecInvalid(f"unknown hook kind {kind!r}")


def ntdll_spec_from_json(doc: Mapping[str, Any]) -> NtdllSpec:
    pairs = _pairs(doc.get("functions", []), "functions")
    if not all(isinstance(name, str) for name, _ in pairs):
        raise SpecInvalid("function names must be strings")
    functions = tuple((name, _to_int(ssn, f"SSN of {name}")) for name, ssn in pairs)
    hooks = {
        name: _hook_from_json(_object(h, f"hook of {name}"))
        for name, h in _object(doc.get("hooks", {}), "hooks").items()
    }
    aliases = doc.get("alias_both_prefixes", False)
    if not isinstance(aliases, bool):
        raise SpecInvalid(f"alias_both_prefixes must be true or false, got {aliases!r}")
    return NtdllSpec(
        functions=functions,
        hooks=hooks,
        stride=_to_int(doc.get("stride", 32), "stride"),
        base_rva=_to_int(doc.get("base_rva", 0x1000), "base_rva"),
        syscall_offset=_to_int(doc.get("syscall_offset", 0x12), "syscall_offset"),
        alias_both_prefixes=aliases,
    )


def module_spec_from_json(name: str, doc: Mapping[str, Any]) -> ModuleSpec:
    imports = tuple(_pairs(doc.get("imports", []), "imports"))
    if not all(isinstance(dll, str) and isinstance(fn, (str, int)) for dll, fn in imports):
        raise SpecInvalid("each import must pair a module name with a function name or ordinal")
    tamper = {
        fn: _to_address(value, f"tamper value of {fn}")
        for fn, value in _object(doc.get("tamper", {}), "tamper").items()
    }
    return ModuleSpec(name=name, imports=imports, tamper=tamper)


def load_process_spec(path: Union[str, Path]) -> ProcessModel:
    """Materialize a process model from a spec file.

    Module images come from raw dump files (path form) or are generated on
    the spot (inline_fixture form); imports of generated modules are resolved
    against the spec's ntdll exports, which are read only when such a module
    is present.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SpecInvalid(f"cannot read process spec {path}: {exc}") from exc
    if not isinstance(doc, dict) or "modules" not in doc or "ntdll" not in doc:
        raise SpecInvalid("process spec needs 'modules' and 'ntdll' keys")

    seed = _to_int(doc.get("seed", 0), "seed")
    config_doc = _object(doc.get("config", {}), "config")
    config = RewriteConfig(stub_base=_to_address(config_doc.get("stub_base", 0), "stub_base"))

    ntdll_name = doc["ntdll"]
    if not isinstance(ntdll_name, str):
        raise SpecInvalid("'ntdll' must name a module")
    module_docs = doc["modules"]
    if not isinstance(module_docs, list):
        raise SpecInvalid("'modules' must be a list")
    for m in module_docs:
        if not isinstance(m, dict) or not isinstance(m.get("name"), str) or not m["name"]:
            raise SpecInvalid("every module must be an object with a name")
    ntdll_doc = None
    for m in module_docs:
        if normalize_module_name(m["name"]) == normalize_module_name(ntdll_name):
            ntdll_doc = m
            break
    if ntdll_doc is None:
        raise SpecInvalid(f"ntdll module {ntdll_name!r} not among the spec modules")

    def materialize(m: Mapping[str, Any]) -> PeImage:
        base = _to_address(m.get("base", 0), f"base of {m['name']}")
        if "path" in m:
            if not isinstance(m["path"], str):
                raise SpecInvalid(f"path of {m['name']} must be a string")
            dump = Path(m["path"])
            if not dump.is_absolute():
                dump = path.parent / dump
            try:
                raw = dump.read_bytes()
            except OSError as exc:
                raise SpecInvalid(f"cannot read module dump {dump}: {exc}") from exc
            return parse_image(raw, Layout.LOADED, base)
        if "inline_fixture" in m:
            fixture = _object(m["inline_fixture"], f"inline_fixture of {m['name']}")
            ftype = fixture.get("type")
            if ftype == "ntdll":
                return build_synthetic_ntdll(
                    ntdll_spec_from_json(fixture), image_base=base, seed=seed
                )
            if ftype == "module":
                if m is ntdll_doc:
                    raise SpecInvalid("module fixtures need the ntdll to resolve against")
                spec = module_spec_from_json(m["name"], fixture)
                resolver = {(dll, fn): resolve(dll, fn) for dll, fn in spec.imports}
                return build_synthetic_module(spec, resolver, image_base=base)
            raise SpecInvalid(f"unknown inline fixture type {ftype!r}")
        raise SpecInvalid(f"module {m['name']!r} has neither 'path' nor 'inline_fixture'")

    ntdll_image = materialize(ntdll_doc)

    def resolve(dll: str, fn: Union[str, int]) -> int:
        if normalize_module_name(dll) != normalize_module_name(ntdll_name):
            raise UnresolvedImport(
                f"only imports from {ntdll_name!r} can be resolved, got {dll!r}"
            )
        if isinstance(fn, str):
            # The image's own index, which scan and simulate reuse.
            index = ntdll_image.native_exports
            rva = index.resolve(fn) if _is_native_name(fn) else index.other.get(fn)
            if rva is not None:
                return ntdll_image.image_base + rva
        raise UnresolvedImport(f"{ntdll_name} does not export {fn!r}")

    modules = [(m["name"], materialize(m)) for m in module_docs if m is not ntdll_doc]
    shown = "ntdll" if normalize_module_name(ntdll_name) == "ntdll" else ntdll_doc["name"]
    return build_process_model(ntdll_image, modules, config, ntdll_name=shown)
