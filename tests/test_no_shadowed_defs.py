"""A module that defines a name twice keeps only the later definition, so
a test defined twice at the top level never runs in its first form."""
import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).parent


def test_no_test_module_defines_a_name_twice():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        names = Counter(node.name for node in ast.parse(path.read_text(), str(path)).body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef)))
        found += [f"{path.name}: {name}" for name, count in names.items() if count > 1]
    assert not found, f"later definitions shadow earlier ones: {found}"
