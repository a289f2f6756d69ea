"""The public API stays as recorded in ``api_signatures.txt``.

The listing has one line per public callable named in a module's
``__all__``, and one per public method of each such class, as
``module.qualname(signature)``.  Any added, removed or renamed parameter
fails here with a unified diff, so a change to the API shows up as an
edit to the recorded file.  A change that alters the API on purpose
re-records it with

    PYTHONPATH=src python tests/test_api_frozen.py > tests/api_signatures.txt

and says why in CHANGES.md.
"""

import difflib
import enum
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import subtag

RECORDED = Path(__file__).with_name("api_signatures.txt")


def _methods(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
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


if __name__ == "__main__":
    print("\n".join(api_listing()))
