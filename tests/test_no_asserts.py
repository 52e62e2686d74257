"""Invariants in the library must survive `python -O`, so no bare assert."""
import ast
from pathlib import Path

import mdscosets

SRC = Path(mdscosets.__file__).parent


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts vanish under python -O: {found}"
