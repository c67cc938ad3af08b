"""The package's public surface is what the program uses.

Every eilab module reaches the others through their public names only, and
every name ``eilab/__init__.py`` exports has a caller in ``src/`` outside its
own definition, or in the benchmark under ``perfbench/``: no public API is
kept alive only by tests.  No export takes the name of a module either.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eilab"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(node):
    """Names read under ``node``: bare names and attribute names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _program_uses():
    """Names the modules of src/ read, each top-level statement not counting
    the names it defines itself, and every name or string in perfbench/."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                used |= _referenced(stmt) - _defined(stmt)
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = _parse(path)
        used |= _referenced(tree)
        used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return used


def _exports():
    names = set()
    for stmt in _parse(PACKAGE / "__init__.py").body:
        if isinstance(stmt, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in stmt.names}
    return names


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eilab")):
                offenders += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not offenders


def test_every_export_has_a_program_caller():
    assert _exports(), "no exports found"
    assert sorted(_exports() - _program_uses()) == []


def _attributes_read():
    """Attribute names loaded (``obj.name``) anywhere in src/ or perfbench/."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read |= {
            node.attr
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return read


def _exported_classes():
    exports = _exports()
    return [
        stmt
        for path in PACKAGE.glob("*.py")
        for stmt in _parse(path).body
        if isinstance(stmt, ast.ClassDef) and stmt.name in exports
    ]


def test_every_field_of_an_exported_dataclass_is_read_by_the_program():
    """Each field of an exported dataclass is read as an attribute
    (``obj.field``) somewhere in src/ or perfbench/.

    Reads are matched by attribute name alone, so a field that shares its
    name with any attribute read elsewhere passes unseen: ``EIEvaluation``
    could regain a ``moments`` field, since ``moments`` is also a method.
    """
    fields = [
        f"{cls.name}.{item.target.id}"
        for cls in _exported_classes()
        if any(ast.unparse(dec).startswith("dataclass") for dec in cls.decorator_list)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields, "no exported dataclass found"
    read = _attributes_read()
    assert sorted(f for f in fields if f.split(".")[1] not in read) == []


def test_every_class_constant_of_an_exported_class_is_read_by_the_program():
    """Each class-level constant (``name = value`` in the class body) of an
    exported class is read as an attribute somewhere in src/ or perfbench/,
    matched by name alone as the fields are."""
    constants = [
        f"{cls.name}.{target.id}"
        for cls in _exported_classes()
        for item in cls.body
        if isinstance(item, ast.Assign)
        for target in item.targets
        if isinstance(target, ast.Name)
    ]
    read = _attributes_read()
    assert sorted(c for c in constants if c.split(".")[1] not in read) == []


def test_no_export_shadows_a_module():
    # ``from .posterior import posterior`` would rebind the package
    # attribute ``eilab.posterior`` from the module to the function.
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert sorted(_exports() & modules) == []


# mpmath's quadrature entry points.  Every integral goes through
# ``quadrature.integrate``, which alone decides its precision.
_QUADRATURE_CALLS = {"quad", "quadts", "quadgl", "quadsubdiv", "quadosc"}
_QUADRATURE_ALLOWED = {("quadrature.py", "quad")}


def test_only_the_quadrature_module_runs_mpmath_quadrature():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _QUADRATURE_CALLS
                and (path.name, node.func.attr) not in _QUADRATURE_ALLOWED
            ):
                offenders.append(f"{path.name}:{node.lineno} .{node.func.attr}(")
    assert not offenders


def test_only_the_ei_module_evaluates_the_gaussian_tail():
    # The Gaussian tail closed form, EI and the improvement tail integral
    # alike, has one implementation: ``ei._ei_closed``.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "ei.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "erfc":
                offenders.append(f"{path.name}:{node.lineno} .erfc(")
    assert not offenders


def _nodes_of_method(tree, cls, method):
    """The ids of the nodes of ``cls.method`` in ``tree``."""
    return {
        id(node)
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == cls
        for fn in c.body
        if isinstance(fn, ast.FunctionDef) and fn.name == method
        for node in ast.walk(fn)
    }


def test_only_the_pivot_floor_and_the_clamp_budget_construct_the_abort():
    # The abort rule has one home: ``linalg``'s pivot floor, which the
    # Markov pivots call too, and the cancellation budget of
    # ``CandidatePosterior.working_moments``.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = _parse(path)
        allowed = _nodes_of_method(tree, "CandidatePosterior", "working_moments") if path.name == "posterior.py" else set()
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name == "NonPositivePivot" and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} NonPositivePivot(")
    assert not offenders
