"""Every public name has a caller outside the tests.

The public names are each module's ``__all__``, the names the package
imports into ``opsys`` and the public methods (and properties) of the
classes in an ``__all__``.  A name counts as used when the program (the
package and ``perfbench/``) reads it somewhere: a name or attribute load
in the syntax tree, which leaves out its own ``def``/``class`` line, its
``__all__`` entry (a string) and import lines.  A method is read only
through an attribute load (``obj.name``), so a parameter, a local or a
class-body alias of the same name does not stand in for it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opsys"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(path):
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def _public_names():
    names = {(p.stem, name) for p in sorted(PACKAGE.glob("*.py")) for name in _exports(p)}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            names.update(("__init__", a.asname or a.name) for a in node.names)
    return sorted(names)


def _public_methods():
    """(module, class, method) for each function defined in the body of a
    class in its module's ``__all__`` whose name has no leading underscore."""
    for path in sorted(PACKAGE.glob("*.py")):
        exported = set(_exports(path))
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, node.name, item.name


def _attribute_reads(tree):
    """Attributes that a syntax tree loads: ``name`` of each ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _reads(tree):
    """Names and attributes that a syntax tree loads."""
    return _attribute_reads(tree) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_program_reads_every_public_name():
    read = set().union(*(_reads(_tree(p)) for p in PROGRAM))
    unread = [f"{module}.{name}" for module, name in _public_names() if name not in read]
    assert not unread, f"public names with no caller outside the tests: {unread}"


def test_the_program_reads_every_public_method():
    read = set().union(*(_attribute_reads(_tree(p)) for p in PROGRAM))
    methods = list(_public_methods())
    # properties and classmethods count, so the guard is not vacuous
    assert {("towers", "Tower", "depth"), ("dual", "MatrixFunctional", "from_grid")} <= set(methods)
    unread = [f"{m}.{c}.{name}" for m, c, name in methods if name not in read]
    assert not unread, f"public methods with no caller outside the tests: {unread}"


@pytest.mark.parametrize("source, name", [
    ("def dead():\n    pass\n__all__ = ['dead']\n", "dead"),
    ("from x import dead\n", "dead"),
    ("class C:\n    def dead(self):\n        pass\n", "dead"),
])
def test_definitions_imports_and_exports_are_not_reads(source, name):
    # the guard must not count the lines that only declare a name
    assert name not in _reads(ast.parse(source))
    assert name in _reads(ast.parse(source + f"{name}()\n"))


def test_a_method_is_read_only_as_an_attribute():
    # a parameter, a local or an alias in the class body that shares the
    # method's name reads a name, not the method
    source = ("class C:\n    def grid(self):\n        pass\n    alias = grid\n"
              "def f(grid):\n    coords = grid\n    return coords\n")
    assert "grid" in _reads(ast.parse(source))
    assert "grid" not in _attribute_reads(ast.parse(source))
    assert "grid" in _attribute_reads(ast.parse(source + "C().grid()\n"))
