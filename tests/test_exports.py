import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import offdiag

MODULES = ["offdiag"] + sorted(m.name for m in pkgutil.iter_modules(offdiag.__path__, "offdiag."))
ROOT = Path(__file__).resolve().parents[1]

# public names that no verb, criterion or workload reaches, kept on purpose
UNREACHED_BY_DESIGN = {
    # writes the sequence format that load_sequence and `weights maximal` read;
    # the CLI tests build their inputs with it
    "save_sequence",
    # writes the symbol format that every --coeffs file of the CLI is read in
    "symbol_to_dict",
    # one criterion by id: pytest's entry to the battery
    "run_criterion",
}


def _exports(name: str) -> list:
    return list(getattr(importlib.import_module(name), "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A stale name in __all__ breaks `from module import *`."""
    module = importlib.import_module(name)
    missing = [n for n in _exports(name) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _reached_names() -> set:
    """Every name that code outside the tests loads, as a name or an attribute,
    and every string of ``bench/`` (the layers it traces, the functions it
    calls by ``getattr``).  An import alone reaches nothing."""
    reached = set()
    for top in ("src", "bench", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reached.add(node.attr)
                elif top == "bench" and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    reached.add(node.value)
    return reached


def test_every_export_is_reached():
    """A public name that only the tests and the package exports reach is
    surface to keep with nothing to show for it: delete it, or reach it."""
    reached = _reached_names() | UNREACHED_BY_DESIGN
    unreached = {name: [n for n in _exports(name) if n not in reached] for name in MODULES}
    unreached = {name: names for name, names in unreached.items() if names}
    assert not unreached, f"exported but reached by no verb, criterion or workload: {unreached}"


def test_allowed_names_are_exported():
    """An allowance outlives its name only as a stale entry: each one is still exported."""
    exported = {n for name in MODULES for n in _exports(name)}
    assert UNREACHED_BY_DESIGN <= exported
