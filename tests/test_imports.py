"""Package layering and API: no import cycle, only field.py reaches into its
sweeps, and the public names of ss3 are pinned."""

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


# the private names each module reads from a sibling, by import or attribute
CROSS_MODULE_PRIVATE = {
    "classify": ["_representatives"],
    "cli": ["_digit_list"],
    "count": ["_census", "_check_class", "_dispatch"],
}


def _bound_names(tree):
    """Names a module binds: defs, classes, parameters, and assigned names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_cross_module_private_reads_pinned():
    # a private name a module reads but does not bind belongs to a sibling:
    # each such read couples two modules, so a new one shows up here
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        private = {name for name in read if name.startswith("_") and not name.startswith("__")}
        if private - _bound_names(tree):
            found[path.stem] = sorted(private - _bound_names(tree))
    assert found == CROSS_MODULE_PRIVATE


# the public API: every name without a leading underscore that ss3/__init__.py binds
PUBLIC_NAMES = [
    "ClassEntry", "ContextMismatch", "CountResult", "CurveClass", "CurveType",
    "DParityError", "DegreeOutOfRange", "DivisionByZero", "FieldContext",
    "FieldElement", "GeneralCurve", "InvalidArgument", "InvalidCurve",
    "IsomorphismWitness", "ModulusReducible", "NotANonSquare",
    "NotSupersingularError", "OracleTooLarge", "ParseError", "Point",
    "PointNotOnCurve", "ReductionResult", "SS3Error", "ShortCurve",
    "SingularCurve", "add", "canonicalize", "chi", "class_representative",
    "context_to_json", "count_class", "count_general", "count_supersingular",
    "decode_element", "double", "fourth_roots", "is_irreducible", "isomorphic",
    "list_classes", "make_context", "naive_count", "negate", "quadratic_twist",
    "random_point", "random_supersingular_curve", "reduce_curve", "s_brute",
    "s_closed", "scalar_mul", "smallest_nonsquare", "solve_linearized", "sqrt",
    "trace",
]


def test_public_names_pinned():
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    public = sorted(name for name in bound if not name.startswith("_"))
    assert public == PUBLIC_NAMES
    assert all(hasattr(ss3, name) for name in public)
