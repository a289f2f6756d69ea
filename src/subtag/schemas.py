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
Each schema is compiled once, at import, into one generated Python
function: straight-line checks for every keyword of every sub-schema, in
the order type, const, enum, minimum, required, properties (in schema
order), items, with a loop only for ``items``.  Keys, messages and allowed
values enter the source as bound constants, never as text.  Compilation
refuses any other keyword, and any form of these seven that the checker
does not implement (a list under ``items``, a non-string ``const``), with
``UnsupportedSchema``, so a new schema cannot go unchecked.  A report that
fails raises ``InvalidReport``, whose message begins with the JSON path of
the failing value, such as ``$.ec_table[3].span_agrees``; the path, item
indices included, is built only on failure.
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
    """A value fails its sub-schema; ``path`` holds the keys and indices
    that lead to it from the report, innermost first."""

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


def _first_missing(v: dict, names: tuple[str, ...]) -> str:
    return next(name for name in names if name not in v)


def _index_of(items: list, item: object) -> int:
    # a check depends only on the value it checks, so an earlier item that
    # is the same object would have failed first: the first one is it
    return next(k for k, other in enumerate(items) if other is item)


# the test of each type on the value named {v}
_TYPES: dict[str, str] = {
    "null": "{v} is None",
    "boolean": "{v} is True or {v} is False",
    "integer": "type({v}) is int or is_integer({v})",
    "number": "is_number({v})",
    "string": "isinstance({v}, str)",
    "array": "isinstance({v}, list)",
    "object": "isinstance({v}, dict)",
}

# what the generated source names besides its constants
_HELPERS = {
    "Mismatch": _Mismatch,
    "is_integer": _is_integer,
    "is_number": _is_number,
    "first_missing": _first_missing,
    "index_of": _index_of,
}


def _strings(keyword: str, values: object) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise UnsupportedSchema(f"{keyword} values must be strings, not {values!r}")
    return tuple(values)


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class _Source:
    """The constants and variable names of one generated check.

    Every key, message and allowed value enters the source as a name
    ``c<n>`` bound to its value, never as a literal, so no text in a schema
    can change the code.  A path is a list of source expressions, outermost
    first: key constants, and ``index_of`` calls that find an item's index
    only when a check fails.
    """

    def __init__(self):
        self.consts: list[object] = []
        self.vars = 0

    def const(self, value: object) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def var(self) -> str:
        self.vars += 1
        return f"x{self.vars}"


def _fail(message: str, path: list[str], *inner: str) -> str:
    """The indented line that raises ``message`` (a source expression) at
    ``path``, below the steps ``inner``."""
    return f"    raise Mismatch({', '.join([message, *inner, *reversed(path)])})"


def _checks(src: _Source, schema: object, v: str, path: list[str]) -> list[str]:
    """The lines that check the value named ``v`` against ``schema``, in
    the order type, const, enum, minimum, required, properties, items."""
    if not isinstance(schema, dict):
        raise UnsupportedSchema(f"a schema must be an object, not {schema!r}")
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise UnsupportedSchema(f"the report checker does not support {', '.join(unknown)}")
    lines = []
    names = schema.get("type", [])
    if "type" in schema:
        if isinstance(names, str):
            names = [names]
        if not isinstance(names, list) or not names or any(n not in _TYPES for n in names):
            raise UnsupportedSchema(
                f"type must name one or more of {sorted(_TYPES)}, not {schema['type']!r}"
            )
        expected = src.const(f"expected {' or '.join(names)}, got ")
        lines += [
            f"if not ({' or '.join(_TYPES[n].format(v=v) for n in names)}):",
            _fail(f"{expected} + repr({v})", path),
        ]
    for keyword in ("const", "enum"):
        if keyword in schema:
            values = [schema[keyword]] if keyword == "const" else schema[keyword]
            allowed = _strings(keyword, values)
            # only strings are allowed, so == agrees with JSON Schema
            # equality (which tells true from 1) for every value
            want = repr(allowed[0]) if keyword == "const" else f"one of {list(allowed)!r}"
            expected = src.const(f"expected {want}, got ")
            lines += [
                f"if {v} not in {src.const(allowed)}:",
                _fail(f"{expected} + repr({v})", path),
            ]
    if "minimum" in schema:
        low = schema["minimum"]
        if not _is_number(low):
            raise UnsupportedSchema(f"minimum must be a number, not {low!r}")
        less = src.const(f" is less than the minimum {low!r}")
        lines += [
            f"if (type({v}) is int or is_number({v})) and {v} < {src.const(low)}:",
            _fail(f"repr({v}) + {less}", path),
        ]
    # a type of exactly "object" or "array" spares the test of the container
    for kind, body in (
        ("object", _object_checks(src, schema, v, path)),
        ("array", _items_checks(src, schema, v, path)),
    ):
        if body and names != [kind]:
            lines += [f"if isinstance({v}, {'dict' if kind == 'object' else 'list'}):"]
            body = _indented(body)
        lines += body
    return lines


def _object_checks(src: _Source, schema: dict, v: str, path: list[str]) -> list[str]:
    lines = []
    required = _strings("required", schema.get("required", []))
    if required:
        keys, missing = src.const(frozenset(required)), src.const("required key is missing")
        lines += [
            f"if not {v}.keys() >= {keys}:",
            _fail(missing, path, f"first_missing({v}, {src.const(required)})"),
        ]
    properties = schema.get("properties", {})
    if not isinstance(properties, dict):
        raise UnsupportedSchema(f"properties must be an object, not {properties!r}")
    for name, sub in properties.items():
        key, x = src.const(name), src.var()
        body = _checks(src, sub, x, path + [key])
        if not body:
            continue
        if name in required:
            # the required check has made sure it is there
            lines += [f"{x} = {v}[{key}]", *body]
        else:
            lines += [f"if {key} in {v}:", f"    {x} = {v}[{key}]", *_indented(body)]
    return lines


def _items_checks(src: _Source, schema: dict, v: str, path: list[str]) -> list[str]:
    if "items" not in schema:
        return []
    x = src.var()
    body = _checks(src, schema["items"], x, path + [f"index_of({v}, {x})"])
    return [f"for {x} in {v}:", *_indented(body)] if body else []


def _compile(schema: object) -> Check:
    """One generated check for ``schema``; refuses anything the checker
    cannot check."""
    src = _Source()
    body = _checks(src, schema, "v", [])
    params = [*_HELPERS, *(f"c{k}" for k in range(len(src.consts)))]
    lines = [
        f"def make({', '.join(params)}):",
        "    def check(v):",
        *("        " + line for line in body),
        "        return None",
        "    return check",
    ]
    namespace: dict = {}
    try:
        code = compile("\n".join(lines), "<report schema>", "exec")
    except SyntaxError:
        raise UnsupportedSchema("the schema nests too deeply to compile") from None
    exec(code, namespace)
    return namespace["make"](*_HELPERS.values(), *src.consts)


_CHECKS: dict[str, Check] = {kind: _compile(schema) for kind, schema in REPORT_SCHEMAS.items()}


def _json_path(path: list) -> str:
    return "$" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in reversed(path)
    )


def validate_report(kind: str, report: dict) -> None:
    """Check ``report`` against ``REPORT_SCHEMAS[kind]``; raise InvalidReport
    naming the path of the first value that fails, or UnsupportedSchema if
    no schema has that kind."""
    check = _CHECKS.get(kind)
    if check is None:
        raise UnsupportedSchema(
            f"no report schema has kind {kind!r}; the kinds are {', '.join(_CHECKS)}"
        )
    try:
        check(report)
    except _Mismatch as exc:
        raise InvalidReport(f"{_json_path(exc.path)}: {exc.message} ({kind} report)") from None
