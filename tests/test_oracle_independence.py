"""The oracles share nothing with the library but a code's H: neither
tests/oracle.py nor tests/dual_census.py imports from mdscosets or reads
a library method or property other than n, r and q, so a wrong field
table or elimination in `src/` cannot reach the counts they check it
against.  Of library objects they read only a code's H (its labels), n,
r and field, an arc's points and field, and a field's p, m and poly."""
import ast
from pathlib import Path

import pytest

from test_public_surface import _definitions, _parse_readers

ORACLES = [Path(__file__).parent / name for name in ("oracle.py", "dual_census.py")]
# names of library properties the oracles may read: a code's n and r,
# and q, which the oracle's own field carries too
ALLOWED = {"n", "q", "r"}


def _own_names(tree) -> set[str]:
    """Functions, classes and methods the module defines itself."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_imports_nothing_from_the_library(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "mdscosets"]


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_calls_no_library_method(path):
    library = {name for _, name, _, is_member in _definitions(_parse_readers())
               if is_member}
    tree = ast.parse(path.read_text(), str(path))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert not (read & library) - ALLOWED - _own_names(tree)
