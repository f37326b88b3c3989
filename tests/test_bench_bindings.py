"""The package still has every name the benchmark binds by string or reads.

`bench/tracer.py` wraps each `module.function` in its `WRAPPED` tuple with
`getattr`, its `_observe_<module>_<function>` methods read attributes off
those functions' results, `bench/run.py` reads
`realcurve.groebner._SELF_CHECK`, and the workloads and self-tests call the
package as `rc.<name>`.  Deleting one of those names breaks the benchmark,
so its sources are read here with `ast`, without importing anything from
`bench/`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from conftest import make_ideal

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _observer_reads() -> dict[str, set[str]]:
    """module.function -> the attributes its tracer observer reads off `result`."""
    reads = {}
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_observe_"):
            module, function = node.name.removeprefix("_observe_").split("_", 1)
            reads[f"{module}.{function}"] = {
                n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == "result"
            }
    return reads


def _small_results() -> dict:
    """A real return value of each observed function, on a small input."""
    from realcurve import blowup, groebner, ideals, singular, zerodim

    node = make_ideal("x,y", "y^2 - x^2 - x^3")
    return {
        "groebner.buchberger": groebner.buchberger(list(node.generators)),
        "singular.minors_ideal": singular.minors_ideal(singular.jacobian(node), 1),
        "ideals.saturate": ideals.saturate(node, make_ideal("x,y", "x")),
        "blowup.resolve_curve": blowup.resolve_curve(node),
        "zerodim.build": zerodim.build(make_ideal("x,y", "x", "y^2")),
    }


def test_every_result_attribute_the_tracer_observes_exists():
    reads = _observer_reads()
    attributes = set().union(*reads.values())
    assert {"iterations", "depth", "charts", "dimension", "basis", "generators"} <= attributes
    results = _small_results()
    assert set(reads) <= set(results)
    missing = [
        f"{qual}: result.{attr}"
        for qual, attrs in sorted(reads.items())
        for attr in sorted(attrs)
        if not hasattr(results[qual], attr)
    ]
    assert not missing


def test_self_check_toggle_exists():
    from realcurve import groebner

    assert hasattr(groebner, "_SELF_CHECK")


def _package_reads() -> tuple[set[tuple[str, ...]], set[str]]:
    """Attribute chains bench/*.py reads off `rc` or `realcurve`, and the submodules it imports."""
    chains: set[tuple[str, ...]] = set()
    imports: set[str] = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports.update(a.name for a in node.names if a.name.startswith("realcurve."))
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in ("rc", "realcurve"):
                    chains.add(tuple(reversed(chain)))
    return chains, imports


def test_every_name_the_bench_reads_off_the_package_resolves():
    chains, imports = _package_reads()
    assert {("classify_point",), ("analyze_fourbar",), ("report", "build_report")} <= chains
    import realcurve

    for name in imports:
        importlib.import_module(name)
    missing = []
    for chain in sorted(chains):
        target = realcurve
        for attr in chain:
            if not hasattr(target, attr):
                missing.append(".".join(chain))
                break
            target = getattr(target, attr)
    assert not missing
