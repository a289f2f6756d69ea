"""The public API stays as recorded in ``api_signatures.txt``.

The listing has one line per public callable named in a module's
``__all__``, and one per public method of each such class, its own or
inherited from a package class, as ``module.qualname(signature)``.  Any
added, removed or renamed parameter fails here with a unified diff, so a
change to the API shows up as an edit to the recorded file.  A change that alters the API on purpose
re-records it with

    PYTHONPATH=src python tests/test_api_frozen.py > tests/api_signatures.txt

and says why in CHANGES.md.

Every name in the listing must also be read by the package, its scripts
or its benchmark, not only by tests.  The package's ``__init__`` only
re-exports names, so it does not count as reading them.
"""

import ast
import difflib
import enum
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import subtag

RECORDED = Path(__file__).with_name("api_signatures.txt")
ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "scripts", "bench")


def _methods(cls):
    """Public methods of ``cls``, with those it inherits from a package class."""
    seen = set()
    for owner in cls.__mro__:
        if not owner.__module__.startswith("subtag."):
            continue
        for name, attr in vars(owner).items():
            if name.startswith("_") or name in seen:
                continue
            seen.add(name)
            if inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod)):
                yield getattr(cls, name)


def api_listing() -> list[str]:
    lines = set()
    for info in pkgutil.iter_modules(subtag.__path__):
        module = importlib.import_module(f"subtag.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            # an Enum's call signature belongs to the standard library
            if not callable(obj) or isinstance(obj, enum.EnumMeta):
                continue
            members = [obj, *_methods(obj)] if inspect.isclass(obj) else [obj]
            for fn in members:
                lines.add(f"{fn.__module__}.{fn.__qualname__}{inspect.signature(fn)}")
    return sorted(lines)


def test_public_signatures_match_the_recorded_listing():
    recorded = RECORDED.read_text().splitlines()
    current = api_listing()
    if current != recorded:
        diff = difflib.unified_diff(
            recorded, current, RECORDED.name, "current", lineterm=""
        )
        pytest.fail("public API changed:\n" + "\n".join(diff), pytrace=False)


def _names_read(path: Path) -> set[str]:
    """Names that the code in ``path`` reads: loaded names, loaded
    attributes and the names of ``from ... import`` lines.  Strings, so
    docstrings and ``__all__`` entries, are not names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each listed callable is read somewhere in src/, scripts/ or bench/,
    test files excluded.  The check goes name by name, not by binding: a
    method named like a local variable (``row``, ``rank``) always passes.
    The package's ``__init__``, which only re-exports, is not a caller."""
    reexports = ROOT / "src" / "subtag" / "__init__.py"
    read = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_") and path != reexports:
                read |= _names_read(path)
    names = (line.split("(", 1)[0] for line in api_listing())
    unread = [name for name in names if name.rsplit(".", 1)[-1] not in read]
    assert unread == [], f"public names without a caller outside the tests: {unread}"


if __name__ == "__main__":
    print("\n".join(api_listing()))
