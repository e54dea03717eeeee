"""The package namespace: each public name resolves from its home module on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hookscope


@pytest.mark.parametrize("name", [n for n in hookscope.__all__ if n != "__version__"])
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"hookscope.{hookscope._HOMES[name]}")
    assert getattr(hookscope, name) is getattr(home, name)


def test_dir_covers_all():
    assert set(hookscope.__all__) <= set(dir(hookscope))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hookscope.no_such_name


def test_import_loads_layers_on_first_use():
    code = (
        "import json, sys, hookscope\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hookscope.'))\n"
        "before = loaded()\n"
        "hookscope.parse_image\n"
        "print(json.dumps([before, loaded()]))\n"
    )
    src = Path(hookscope.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == [[], ["hookscope.errors", "hookscope.image"]]
