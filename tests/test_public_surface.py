"""Every public name the library defines is read by the library, the
demos or the benchmark: a method, property or function that only the
tests read belongs in the tests (see oracle.py), not in `src/`.  Every
module-level private function, class and constant is read by the
library itself."""
import ast
import importlib
import inspect
import typing
from pathlib import Path

import mdscosets

SRC = Path(mdscosets.__file__).parent
ROOT = SRC.parent.parent
READERS = [SRC, ROOT / "demos", ROOT / "perfbench"]
NUMPY_NAMES = {"np", "numpy"}
BUILTIN_TYPES = (set, list, dict, str, tuple)
BUILTIN_CONSTRUCTORS = {t.__name__ for t in BUILTIN_TYPES}
BUILTIN_METHODS = {name for t in BUILTIN_TYPES for name in dir(t) if not name.startswith("_")}
LITERALS = (ast.Set, ast.List, ast.Dict, ast.Tuple, ast.JoinedStr,
            ast.ListComp, ast.SetComp, ast.DictComp)


def _parse_readers() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path))
            for root in READERS for path in sorted(root.rglob("*.py"))}


def _definitions(trees):
    """(label, name, node, is_member) for each public method or property
    of a class defined in src/mdscosets, and each public module-level
    function and class.  A class is read by its name or as an attribute
    (`mdscosets.GF`) outside its own class statement; an import or an
    `__all__` entry is no read."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append((f"{path.stem}.{node.name}", node.name, node, False))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = []
                    if isinstance(item, ast.FunctionDef):
                        names = [item.name]
                    elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
                          and getattr(item.value.func, "id", None) == "property"):
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                    found += [(f"{path.stem}.{node.name}.{name}", name, item, True)
                              for name in names if not name.startswith("_")]
    return found


def _private_definitions(trees):
    """(label, name, node) for each module-level private function, class
    and constant of src/mdscosets; dunder names such as `__all__` are
    Python's to read."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [(f"{path.stem}.{name}", name, node) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def _is_builtin_value(node) -> bool:
    """A literal of a set, list, dict, str or tuple, or a call of one of
    those constructors."""
    return (isinstance(node, LITERALS)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str))
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUILTIN_CONSTRUCTORS))


def _scope_nodes(scope):
    """The nodes of a module or function body, nested functions and
    classes left out."""
    for child in ast.iter_child_nodes(scope):
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            yield child
            yield from _scope_nodes(child)


def _builtin_locals(scope) -> set[str]:
    """The names a module or function binds to a builtin value."""
    names = set()
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_builtin_value(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _reads(trees):
    """{(name, via_attribute): [the definitions enclosing each read]};
    imports, strings such as the `__all__` entries, attributes of numpy
    itself (`np.nonzero` is no read of a `nonzero` method) and builtin
    methods (`drop.add` after `drop = set()` is no read of an `add`
    method) are not reads."""
    reads: dict[tuple[str, bool], list[frozenset]] = {}

    def builtin_receiver(node, bound):
        receiver = node.value
        return (node.attr in BUILTIN_METHODS and
                (_is_builtin_value(receiver) or getattr(receiver, "id", None) in bound))

    def visit(node, enclosing, bound):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) not in NUMPY_NAMES
                and not builtin_receiver(node, bound)):
            reads.setdefault((node.attr, True), []).append(enclosing)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault((node.id, False), []).append(enclosing)
        if isinstance(node, (ast.FunctionDef, ast.Assign, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.FunctionDef):
            bound = _builtin_locals(node)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, bound)

    for tree in trees.values():
        visit(tree, frozenset(), _builtin_locals(tree))
    return reads


def test_every_public_name_has_a_reader_outside_the_tests():
    trees = _parse_readers()
    reads = _reads(trees)
    unread = []
    for label, name, node, is_member in _definitions(trees):
        # a method is read as an attribute; a function also by its bare name
        keys = [(name, True)] if is_member else [(name, True), (name, False)]
        if not any(id(node) not in enclosing
                   for key in keys for enclosing in reads.get(key, [])):
            unread.append(label)
    assert not unread, f"public names only the tests read: {unread}"


def test_every_private_name_has_a_reader_in_the_library():
    # a private helper left behind for the tests alone is dead library code
    trees = {path: tree for path, tree in _parse_readers().items() if path.parent == SRC}
    reads = _reads(trees)
    unread = [label for label, name, node in _private_definitions(trees)
              if not any(id(node) not in enclosing
                         for key in ((name, True), (name, False))
                         for enclosing in reads.get(key, []))]
    assert not unread, f"private names the library never reads: {unread}"


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each string annotation in its
    # module: a name the module never imports raises NameError there
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"mdscosets.{path.stem}")
        for obj in vars(module).values():
            if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m.fget if isinstance(m, property) else getattr(m, "__func__", m)
                            for m in vars(obj).values()
                            if isinstance(m, (property, staticmethod, classmethod))
                            or inspect.isfunction(m)]
            for member in members:
                try:
                    typing.get_type_hints(member)
                except NameError as error:
                    unresolved.append(f"{member.__qualname__}: {error}")
    assert not unresolved
