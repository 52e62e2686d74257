"""The work budget is fixed when a code is built, so only the code
constructors take one; every census, distance and covering call reads
the code's own."""
import importlib
import inspect
from pathlib import Path

import mdscosets
from mdscosets import LinearCode

CODE_CONSTRUCTORS = {"LinearCode", "build_code"}


def _takes_budget(obj) -> bool:
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return False  # exceptions keep the builtin (*args) signature
    return "budget" in inspect.signature(obj).parameters


def _public_methods(cls):
    return [(f"{cls.__name__}.{name}", fn) for name, fn in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(fn)]


def test_only_code_constructors_take_a_budget():
    exported = [(name, getattr(mdscosets, name)) for name in mdscosets.__all__]
    callables = [(name, obj) for name, obj in exported if callable(obj)]
    callables += _public_methods(LinearCode)
    found = sorted(name for name, obj in callables
                   if name not in CODE_CONSTRUCTORS and _takes_budget(obj))
    assert not found, f"budget belongs to the code, not to {found}"


def test_no_module_function_takes_a_budget_it_could_read_from_a_code():
    found = []
    for path in sorted(Path(mdscosets.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"mdscosets.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                candidates = [(name, obj)] + _public_methods(obj)
            elif inspect.isfunction(obj):
                candidates = [(name, obj)]
            else:
                continue
            found += [f"{module.__name__}.{n}" for n, fn in candidates
                      if n not in CODE_CONSTRUCTORS and _takes_budget(fn)]
    assert not found, f"budget belongs to the code, not to {found}"
