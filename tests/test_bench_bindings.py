"""The package still has every name the benchmark binds by string.

`bench/tracer.py` wraps each `module.function` in its `WRAPPED` tuple with
`getattr`, and `bench/run.py` reads `realcurve.groebner._SELF_CHECK`.  Deleting
one of those names breaks the traced benchmark run, so the tracer's list is
read here with `ast`, without importing anything from `bench/`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrapped_names() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no WRAPPED tuple")


def test_every_traced_name_resolves():
    names = _wrapped_names()
    assert names
    missing = []
    for name in names:
        module, function = name.split(".")
        if not hasattr(importlib.import_module(f"realcurve.{module}"), function):
            missing.append(name)
    assert not missing


def test_self_check_toggle_exists():
    from realcurve import groebner

    assert hasattr(groebner, "_SELF_CHECK")
