"""The budget rule is stated once: `codes._charge` refuses work over a
budget, and every charge (the kernel's steps, a bisecant walk's point
normalizations, formula rows' bits) calls it.  So `src/` constructs a
BudgetExceededError only there and in the int64 guard beside the
kernel's charge, and no function hands a refusal back for its caller to
raise: every check raises its own."""
import ast
import builtins
from pathlib import Path

import mdscosets

SRC = Path(mdscosets.__file__).parent
BUILDERS = {"codes._charge", "codes._check_census"}  # the rule, and the int64 guard


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _exception_names(trees) -> set[str]:
    """The builtin exceptions and every class src/ derives from one."""
    names = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    grew = True
    while grew:
        derived = {node.name for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and any(getattr(base, "id", None) in names for base in node.bases)}
        grew = not derived <= names
        names |= derived
    return names


def _functions(trees):
    """(module.function, node) for every function of src/, methods and
    nested functions included."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def test_only_the_charge_and_the_int64_guard_build_a_budget_refusal():
    trees = _trees()
    builds = {}
    for label, fn in _functions(trees):
        calls = sum(_called_name(node) == "BudgetExceededError" for node in ast.walk(fn))
        if calls:
            builds[label] = calls
    outside = sum(_called_name(node) == "BudgetExceededError"
                  for tree in trees.values() for node in ast.walk(tree)) - sum(builds.values())
    assert (builds, outside) == (dict.fromkeys(BUILDERS, 1), 0)


def test_no_function_returns_an_exception():
    trees = _trees()
    exceptions = _exception_names(trees)
    found = []
    for label, fn in _functions(trees):
        annotated = fn.returns is not None and any(
            getattr(node, "id", None) in exceptions for node in ast.walk(fn.returns))
        returned = any(isinstance(node, ast.Return) and _called_name(node.value) in exceptions
                       for node in ast.walk(fn))
        if annotated or returned:
            found.append(label)
    assert not found, f"functions that hand back a refusal: {found}"
