"""Every public name has a caller outside the tests.

The public names are each module's ``__all__``, the names the package
imports into ``opsys`` and the public methods (and properties) of the
classes in an ``__all__``.  A name counts as used when the program (the
package and ``perfbench/``) reads it somewhere: a name or attribute load
in the syntax tree, which leaves out its own ``def``/``class`` line, its
``__all__`` entry (a string) and import lines.  A method is read only
through an attribute load (``obj.name``), so a parameter, a local or a
class-body alias of the same name does not stand in for it, and neither
does an attribute of numpy (``np.linalg.norm`` reads no ``norm``).  That
read names no class, so a method name that more than one public class
defines is pinned with its classes in ``SHARED_METHODS``.  The optional
parameters of the public functions and methods are counted and pinned in
``OPTIONAL_PARAMETERS``.
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


def _public_functions():
    """(module, class, def node) for each function in its module's
    ``__all__`` (class ``None``) and each function defined in the body of a
    class in its module's ``__all__`` whose name has no leading underscore."""
    for path in sorted(PACKAGE.glob("*.py")):
        exported = set(_exports(path))
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                yield path.stem, None, node
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, node.name, item


def _public_methods():
    """(module, class, method) for each public method of a public class."""
    for module, cls, fn in _public_functions():
        if cls is not None:
            yield module, cls, fn.name


def _chain_root(node):
    """The object that an attribute chain ``a.b.c`` starts at: ``a``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _attribute_reads(tree):
    """Attributes that a syntax tree loads: ``name`` of each ``obj.name``
    whose chain does not start at numpy."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and getattr(_chain_root(node), "id", None) not in ("np", "numpy")}


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


#: Public method names that more than one public class defines, with the
#: classes.  The method guard matches a read by its bare name, so one read
#: of a shared name covers every class that defines it; each caller below
#: was checked by hand: ``Check.to_json`` (the CLI report),
#: ``NormReport.to_json`` (``opsys norm``) and ``FeasibilityProblem.to_json``
#: (``opsys dual check-cp --dump-problem``).
SHARED_METHODS = {"to_json": {"Check", "FeasibilityProblem", "NormReport"}}


def test_shared_method_names_are_pinned():
    # a new name that two public classes share, or a new class for a shared
    # name, fails here until each class's caller is checked and pinned above
    shared = {}
    for _, cls, name in _public_methods():
        shared.setdefault(name, set()).add(cls)
    assert {name: c for name, c in shared.items() if len(c) > 1} == SHARED_METHODS


@pytest.mark.parametrize("source, name", [
    ("def dead():\n    pass\n__all__ = ['dead']\n", "dead"),
    ("from x import dead\n", "dead"),
    ("class C:\n    def dead(self):\n        pass\n", "dead"),
    ("x = np.linalg.dead(1)\n", "dead"),
])
def test_definitions_imports_and_exports_are_not_reads(source, name):
    # the guard must not count the lines that only declare a name, nor an
    # attribute of numpy (np.linalg.norm is no read of a method named norm)
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


#: Optional parameters (those with a default, positional or keyword-only)
#: of every function in a module's ``__all__`` and every public method of a
#: class in an ``__all__``, leaving out parameters with a leading
#: underscore; constructors and record fields are not counted.  An option
#: added or removed changes it, and this pin with it.
OPTIONAL_PARAMETERS = 24


def _optional_parameters(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [name for name in names if not name.startswith("_")]


def test_optional_parameters_are_pinned():
    # the rule sees both kinds of default, and skips private parameters
    assert _optional_parameters(ast.parse("def f(a, b=1, *, c, d=2, _e=3): pass").body[0]) == ["b", "d"]
    count = sum(len(_optional_parameters(fn)) for _, _, fn in _public_functions())
    assert count == OPTIONAL_PARAMETERS
