"""Published JSON Schemas for the CLI's machine-readable reports, and the
checker that validates a report before it leaves the process.

``REPORT_SCHEMAS`` is plain JSON Schema (draft 2020-12), so any JSON Schema
tool can check a saved report.  The checker here needs only the standard
library.  It supports exactly the seven keywords those schemas use:

- ``type``: one name or a list of names, ``"null"`` included;
- ``properties`` and ``required``, applied to objects only;
- ``items``: one schema that every item of an array must match;
- ``const`` and ``enum``, with string values;
- ``minimum``, applied to numbers only.

Types follow draft 2020-12 for the values JSON can hold: ``true`` is
neither an integer nor a number, ``1.0`` is an integer, a number is an
``int`` or ``float``, an array is a ``list`` and an object a ``dict``.
Each schema is compiled once, at import, into one closure per sub-schema.
Compilation refuses any other keyword, and any form of these seven that the
checker does not implement (a list under ``items``, a non-string ``const``),
with ``UnsupportedSchema``, so a new schema cannot go unchecked.  A report
that fails raises ``InvalidReport``, whose message begins with the JSON path
of the failing value, such as ``$.ec_table[3].span_agrees``; the path is
built only on failure.
"""

from __future__ import annotations

from typing import Callable

from .errors import InvalidReport, UnsupportedSchema

__all__ = ["REPORT_SCHEMAS", "validate_report"]

_VERIFIER_ROW = {
    "type": "object",
    "required": ["node", "index", "accepts", "kernel_rank"],
    "properties": {
        "node": {"type": "string"},
        "index": {"type": "integer", "minimum": 1},
        "accepts": {"type": "array", "items": {"type": "boolean"}},
        "kernel_rank": {"type": "integer", "minimum": 0},
    },
}

_SINK_ROW = {
    "type": "object",
    "required": ["node", "kernel_rank", "full_rank", "recovered"],
    "properties": {
        "node": {"type": "string"},
        "kernel_rank": {"type": "integer", "minimum": 0},
        "full_rank": {"type": "boolean"},
        "recovered": {"type": ["boolean", "null"]},
    },
}

_EC_ROW = {
    "type": "object",
    "required": ["coalition", "target", "kind", "against_target", "span_agrees"],
    "properties": {
        "coalition": {"type": "array", "items": {"type": "integer"}},
        "target": {"type": "integer"},
        "kind": {"type": "string"},
        "against_target": {"type": "boolean"},
        "span_agrees": {"type": "boolean"},
    },
}

REPORT_SCHEMAS: dict[str, dict] = {
    "setup": {
        "type": "object",
        "required": ["format", "path", "q", "l", "n", "M", "V", "kdim", "packet_symbols"],
        "properties": {
            "format": {"const": "subtag-report/setup/1"},
            "path": {"type": "string"},
            "q": {"type": "integer", "minimum": 2},
            "l": {"type": "integer", "minimum": 1},
            "n": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 1},
            "V": {"type": "integer", "minimum": 1},
            "kdim": {"type": "integer", "minimum": 1},
            "packet_symbols": {"type": "integer", "minimum": 3},
        },
    },
    "simulate": {
        "type": "object",
        "required": [
            "format",
            "seed",
            "topology",
            "packet_symbols",
            "verifiers",
            "sinks",
            "all_accepted",
            "injected_at",
        ],
        "properties": {
            "format": {"const": "subtag-report/simulate/1"},
            "seed": {"type": "integer"},
            "topology": {"type": "string"},
            "packet_symbols": {"type": "integer"},
            "verifiers": {"type": "array", "items": _VERIFIER_ROW},
            "sinks": {"type": "array", "items": _SINK_ROW},
            "all_accepted": {"type": "boolean"},
            "injected_at": {"type": ["string", "null"]},
        },
    },
    "attack": {
        "type": "object",
        "required": [
            "format",
            "seed",
            "mode",
            "coalition",
            "target",
            "r0",
            "k0",
            "predicted_keys",
            "measured_keys",
            "outcome",
        ],
        "properties": {
            "format": {"const": "subtag-report/attack/1"},
            "seed": {"type": "integer"},
            "mode": {"enum": ["deterministic", "guess", "histogram"]},
            "coalition": {"type": "array", "items": {"type": "integer"}},
            "target": {"type": "integer"},
            "r0": {"type": "integer", "minimum": 0},
            "k0": {"type": "integer", "minimum": 0},
            "predicted_keys": {"type": "integer", "minimum": 1},
            "measured_keys": {"type": "integer", "minimum": 1},
            "outcome": {"type": "string"},
            "payload": {"type": "array", "items": {"type": "integer"}},
            "target_accepts": {"type": ["boolean", "null"]},
            "others_accept": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["index", "accepts"],
                    "properties": {
                        "index": {"type": "integer"},
                        "accepts": {"type": "boolean"},
                    },
                },
            },
            "acceptance": {
                "type": "object",
                "required": ["trials", "accepted", "rate", "expected_rate"],
                "properties": {
                    "trials": {"type": "integer", "minimum": 1},
                    "accepted": {"type": "integer", "minimum": 0},
                    "rate": {"type": "number"},
                    "expected_rate": {"type": "number"},
                },
            },
            "histogram": {
                "type": "object",
                "required": ["labels", "min_count", "max_count", "uniform"],
                "properties": {
                    "labels": {"type": "integer"},
                    "min_count": {"type": "integer"},
                    "max_count": {"type": "integer"},
                    "uniform": {"type": "boolean"},
                    "counts": {"type": "object"},
                },
            },
            "ec_classification": {
                "type": "object",
                "required": ["kind", "against_target"],
                "properties": {
                    "kind": {"type": "string"},
                    "against_target": {"type": "boolean"},
                    "complement_sum": {"type": ["array", "string"]},
                },
            },
        },
    },
    "analyze": {
        "type": "object",
        "required": [
            "format",
            "length",
            "kdim",
            "dual_distance",
            "mds",
            "target",
            "access_structure",
        ],
        "properties": {
            "format": {"const": "subtag-report/analyze/1"},
            "length": {"type": "integer"},
            "kdim": {"type": "integer"},
            "dual_distance": {"type": "integer"},
            "mds": {"type": "boolean"},
            "target": {"type": "integer"},
            "minimal_dual_codewords": {"type": "array"},
            "access_structure": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}},
            },
            "ec_table": {"type": "array", "items": _EC_ROW},
        },
    },
    "ec-code": {
        "type": "object",
        "required": ["format", "path", "num_points", "degree", "length", "kdim"],
        "properties": {
            "format": {"const": "subtag-report/ec-code/1"},
            "path": {"type": "string"},
            "num_points": {"type": "integer"},
            "degree": {"type": "integer"},
            "length": {"type": "integer"},
            "kdim": {"type": "integer"},
            "curve_points": {"type": "integer"},
        },
    },
}


Check = Callable[[object], None]

_KEYWORDS = frozenset({"type", "properties", "required", "items", "const", "enum", "minimum"})


class _Mismatch(Exception):
    """A value fails its sub-schema; container checks add their key or index
    to ``path`` (innermost first) as the exception passes through them."""

    def __init__(self, message: str, *path: object):
        super().__init__(message)
        self.message = message
        self.path = list(path)


def _is_integer(v: object) -> bool:
    if type(v) is int:
        return True
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES: dict[str, Callable[[object], bool]] = {
    "null": lambda v: v is None,
    "boolean": lambda v: v is True or v is False,
    "integer": _is_integer,
    "number": _is_number,
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _type_check(names: object) -> Check:
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names or any(n not in _TYPES for n in names):
        raise UnsupportedSchema(f"type must name one or more of {sorted(_TYPES)}, not {names!r}")
    tests = tuple(_TYPES[n] for n in names)
    expected = " or ".join(names)

    def check(v: object) -> None:
        for test in tests:
            if test(v):
                return
        raise _Mismatch(f"expected {expected}, got {v!r}")

    return check


def _strings(keyword: str, values: object) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise UnsupportedSchema(f"{keyword} values must be strings, not {values!r}")
    return tuple(values)


def _enum_check(keyword: str, allowed: tuple[str, ...]) -> Check:
    # only strings are allowed, so == agrees with JSON Schema equality
    # (which tells true from 1) for every value
    def check(v: object) -> None:
        if v not in allowed:
            want = repr(allowed[0]) if keyword == "const" else f"one of {list(allowed)!r}"
            raise _Mismatch(f"expected {want}, got {v!r}")

    return check


def _minimum_check(low: object) -> Check:
    if not _is_number(low):
        raise UnsupportedSchema(f"minimum must be a number, not {low!r}")

    def check(v: object) -> None:
        if _is_number(v) and v < low:
            raise _Mismatch(f"{v!r} is less than the minimum {low!r}")

    return check


def _required_check(names: tuple[str, ...]) -> Check:
    def check(v: object) -> None:
        if isinstance(v, dict):
            for name in names:
                if name not in v:
                    raise _Mismatch("required key is missing", name)

    return check


def _properties_check(properties: object) -> Check:
    if not isinstance(properties, dict):
        raise UnsupportedSchema(f"properties must be an object, not {properties!r}")
    subs = tuple((name, _compile(sub)) for name, sub in properties.items())

    def check(v: object) -> None:
        if isinstance(v, dict):
            try:
                for name, sub in subs:
                    if name in v:
                        sub(v[name])
            except _Mismatch as exc:
                exc.path.append(name)
                raise

    return check


def _items_check(items: object) -> Check:
    sub = _compile(items)

    def check(v: object) -> None:
        if isinstance(v, list):
            index = 0
            try:
                for index, item in enumerate(v):
                    sub(item)
            except _Mismatch as exc:
                exc.path.append(index)
                raise

    return check


def _compile(schema: object) -> Check:
    """One check for ``schema``; refuses anything the checker cannot check."""
    if not isinstance(schema, dict):
        raise UnsupportedSchema(f"a schema must be an object, not {schema!r}")
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise UnsupportedSchema(f"the report checker does not support {', '.join(unknown)}")
    checks = []
    if "type" in schema:
        checks.append(_type_check(schema["type"]))
    if "const" in schema:
        checks.append(_enum_check("const", _strings("const", [schema["const"]])))
    if "enum" in schema:
        checks.append(_enum_check("enum", _strings("enum", schema["enum"])))
    if "minimum" in schema:
        checks.append(_minimum_check(schema["minimum"]))
    if "required" in schema:
        checks.append(_required_check(_strings("required", schema["required"])))
    if "properties" in schema:
        checks.append(_properties_check(schema["properties"]))
    if "items" in schema:
        checks.append(_items_check(schema["items"]))
    if len(checks) == 1:
        return checks[0]
    checks = tuple(checks)

    def check(v: object) -> None:
        for c in checks:
            c(v)

    return check


_CHECKS: dict[str, Check] = {kind: _compile(schema) for kind, schema in REPORT_SCHEMAS.items()}


def _json_path(path: list) -> str:
    return "$" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in reversed(path)
    )


def validate_report(kind: str, report: dict) -> None:
    """Check ``report`` against ``REPORT_SCHEMAS[kind]``; raise InvalidReport
    naming the path of the first value that fails."""
    try:
        _CHECKS[kind](report)
    except _Mismatch as exc:
        raise InvalidReport(f"{_json_path(exc.path)}: {exc.message} ({kind} report)") from None
