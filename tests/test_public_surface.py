"""Every public name the library defines is read by the library, the
demos or the benchmark: a method, property or function that only the
tests read belongs in the tests (see oracle.py), not in `src/`."""
import ast
from pathlib import Path

import mdscosets

SRC = Path(mdscosets.__file__).parent
ROOT = SRC.parent.parent
READERS = [SRC, ROOT / "demos", ROOT / "perfbench"]
NUMPY_NAMES = {"np", "numpy"}


def _parse_readers() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path))
            for root in READERS for path in sorted(root.rglob("*.py"))}


def _definitions(trees):
    """(label, name, node, is_member) for each public method or property
    of a class defined in src/mdscosets, and each public module-level
    function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.append((f"{path.stem}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef):
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


def _reads(trees):
    """{(name, via_attribute): [the definitions enclosing each read]};
    imports, strings such as the `__all__` entries and attributes of numpy
    itself (`np.nonzero` is no read of a `nonzero` method) are not reads."""
    reads: dict[tuple[str, bool], list[frozenset]] = {}

    def visit(node, enclosing):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) not in NUMPY_NAMES):
            reads.setdefault((node.attr, True), []).append(enclosing)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault((node.id, False), []).append(enclosing)
        if isinstance(node, (ast.FunctionDef, ast.Assign)):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, frozenset())
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
