"""Package layering: no import cycle, and only field.py reaches into its sweeps."""

import ast
from pathlib import Path

import ss3
from ss3 import count

SRC = Path(__file__).parent.parent / "src" / "ss3"


def _relative_imports(path):
    """Sibling modules path imports, at any depth (function bodies included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import name
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_package_imports_form_no_cycle():
    graph = {path.stem: _relative_imports(path) for path in SRC.glob("*.py")}
    assert set(graph) >= {"classify", "count", "curve", "field"}
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module) :] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_census_lives_in_count():
    assert ss3.list_classes is count.list_classes
    assert ss3.ClassEntry is count.ClassEntry


# the brute-force sweep helpers and the context slots they run on
SWEEP_HELPERS = {"_digit_halves", "_picker", "_sweep_rows", "_row_layout", "_encode_row"}
PRIVATE_SLOTS = {"_mul", "_trace_weights", "_chi_table"}


def test_only_field_touches_the_sweeps():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & SWEEP_HELPERS
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & (SWEEP_HELPERS | PRIVATE_SLOTS)
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert found == []
