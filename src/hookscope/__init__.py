"""Static analysis of 64-bit PE images: export/import views, hook scanning,
syscall-number resolution, and a symbolic IAT-rewrite simulator.

Operates exclusively on files and synthetic in-memory image models; nothing
here attaches to, reads, or modifies a running process.

Each public name is imported from its home module on first use (PEP 562), so
`import hookscope` loads no layer and a caller loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "HookscopeError": "errors",
    "HookDetail": "hooks",
    "HookFinding": "hooks",
    "HookKind": "hooks",
    "ScanReport": "hooks",
    "build_report": "hooks",
    "render_report": "hooks",
    "scan_iat_hooks": "hooks",
    "scan_inline_hooks": "hooks",
    "DataDirectory": "image",
    "ExportEntry": "image",
    "IatSlot": "image",
    "ImportModule": "image",
    "Layout": "image",
    "PeImage": "image",
    "SectionView": "image",
    "enumerate_exports": "image",
    "enumerate_imports": "image",
    "parse_image": "image",
    "rva_to_offset": "image",
    "CallTrace": "simulate",
    "ChainVerdict": "simulate",
    "ModuleEntry": "simulate",
    "ProcessModel": "simulate",
    "RewritePlan": "simulate",
    "apply_rewrite": "simulate",
    "plan_rewrite": "simulate",
    "render_calls": "simulate",
    "resolve_call": "simulate",
    "resolve_imports": "simulate",
    "simulate_rewrite": "simulate",
    "verify_chain": "simulate",
    "SsnSearchParams": "ssn",
    "derive_ssn_by_sort": "ssn",
    "derive_ssn_neighbors": "ssn",
    "find_syscall_instruction": "ssn",
    "hash_name": "ssn",
    "read_clean_ssn": "ssn",
    "resolve_ssns": "ssn",
    "BASE_FUNCTIONS": "table",
    "RewriteConfig": "table",
    "SyscallInfo": "table",
    "SyscallList": "table",
    "assign_stub_slots": "table",
    "build_syscall_list": "table",
    "deserialize_list": "table",
    "serialize_list": "table",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
