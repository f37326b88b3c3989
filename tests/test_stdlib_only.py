"""The package imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "realcurve"


def test_package_imports_only_stdlib():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "realcurve" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign


def _module_level_edges() -> dict[str, set[str]]:
    # `from .x import ...` statements at the top of each module; imports
    # inside functions run late and cannot form an import cycle
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    edges: dict[str, set[str]] = {name: set() for name in modules}
    for name, path in modules.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is not None:
                edges[name].add(node.module.split(".")[0])
            else:  # from . import a, b: submodules, or names of the package
                edges[name] |= {
                    alias.name if alias.name in modules else "__init__" for alias in node.names
                }
    return edges


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    done: set[str] = set()
    path: list[str] = []

    def visit(name: str) -> list[str] | None:
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(edges.get(name, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(edges):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_module_import_graph_is_acyclic():
    edges = _module_level_edges()
    # the layering the univariate layer relies on
    assert {"polynomials", "groebner"} <= edges["linalg"]
    assert _find_cycle(edges) is None, " -> ".join(_find_cycle(edges))


def test_cycle_finder_reports_a_cycle():
    edges = {"linalg": {"groebner"}, "groebner": {"polynomials"}, "polynomials": {"linalg"}}
    assert _find_cycle(edges) == ["groebner", "polynomials", "linalg", "groebner"]
    assert _find_cycle({"a": {"b"}, "b": set()}) is None


def test_only_singular_decides_the_moved_ideals_dimension():
    # the radicality certificate carries the Krull dimension; the modules
    # downstream of it read it there instead of computing it again
    for name in ("blowup", "fourbar", "decide"):
        tree = ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert "krull_dimension" not in names, name
