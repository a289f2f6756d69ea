"""Reading and writing parameter files.

Parameter files are JSON with every field element spelled out as a
little-endian coordinate list of decimal integers, so a set of published
parameters can be audited with nothing but a text editor.

Params files and CLI reports are written as canonical JSON by
``dump_json``: the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline.  With ``indent`` set, ``json.dumps`` drops from the C
encoder to the stdlib's generator-based one, so ``dump_json`` is a small
recursive writer of its own: it writes the scalar values of a dict
inline (strings escaped by the C ``encode_basestring_ascii``), joins a
list of plain ints in one call and hands every other leaf, floats among
them, to the C encoder through ``json.dumps(v)``.  A list of dict rows
whose first row holds only str keys and ints, strings, bools, None or
non-empty lists of ints (the ``ec_table`` of an ``analyze`` report) is
written by a loop generated for that row shape, one f-string per row; at
the first row of another shape the list takes the recursive writer.
"""

from __future__ import annotations

import functools
import json
from typing import Optional

from .codes import LinearCode
from .ec import AGCodeSpec, ECPoint, EllipticCurve, residue_code
from .errors import InvalidParams
from .fields import BaseField, ExtField, FieldElement
from .linalg import Matrix
from .scheme import PublicParams

__all__ = [
    "PARAMS_FORMAT",
    "params_to_dict",
    "params_from_dict",
    "write_params",
    "read_params",
    "dump_json",
]

PARAMS_FORMAT = "subtag-params/1"
# how an element of F_{q^l} is spelled as l coordinates: little-endian in
# the polynomial basis of the extension modulus, the only convention
ISO_CONVENTION = "poly-basis-le"


_escape = json.encoder.encode_basestring_ascii
_STR, _INT = frozenset({str}), frozenset({int})


def dump_json(obj) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline.

    The text is that of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    written without the stdlib's pure-Python indent encoder.  Unlike
    ``json.dumps``, a dict key that is not a str (an int, float, bool or
    None, which json would turn into a string) raises ``TypeError``.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], nl: str) -> None:
    """Append the pieces of ``value``; ``nl`` is a newline and its line's indent."""
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if set(map(type, value)) != _STR:
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {key!r}")
        sep = "{" + inner
        for key in sorted(value):
            v = value[key]
            out.append(f"{sep}{_escape(key)}: ")
            sep = "," + inner
            kind = type(v)
            if kind is int:
                out.append(int.__repr__(v))
            elif kind is str:
                out.append(_escape(v))
            elif kind is bool:
                out.append("true" if v else "false")
            elif v is None:
                out.append("null")
            else:
                _write(v, out, inner)
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if type(value[0]) is dict:
            shape = _row_shape(value[0])
            text = None if shape is None else _row_writer(shape)(value, nl)
            if text is not None:
                out.append(text)
                return
        if set(map(type, value)) == _INT:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{nl}]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                sep = "," + inner
                _write(item, out, inner)
            out.append(nl + "]")
    else:
        # a leaf outside a dict, floats (NaN and the infinities too) and
        # what json refuses all take the C encoder
        out.append(json.dumps(value))


_LEAVES = frozenset({int, str, bool, type(None)})


def _row_shape(row: dict) -> Optional[tuple]:
    """The sorted keys of ``row`` with the type of each value, if its keys
    are str and its values leaves the row writer knows: an int, str, bool,
    None or a non-empty list of exact ints.  None for any other row."""
    if not row or set(map(type, row)) != _STR:
        return None
    shape = []
    for key in sorted(row):
        v = row[key]
        kind = type(v)
        if kind is list:
            if not v or set(map(type, v)) != _INT:
                return None
        elif kind not in _LEAVES:
            return None
        shape.append((key, kind))
    return tuple(shape)


# how the row writer spells a value of each type, given its variable
_ROW_FIELDS = {int: "v{k}", str: "esc(v{k})", bool: "tf[v{k}]", list: "s{k}"}


@functools.lru_cache(maxsize=64)
def _row_writer(shape: tuple):
    """``write(rows, nl)``: the text of a list of dict rows of ``shape``
    (from ``_row_shape``) on the line ``nl``, as ``_write`` spells it, or
    None at the first row of another shape.

    The generated loop tests each row with ``type(...) is`` checks and
    writes it with one f-string.  A list equal to the same key's list in
    the row before reuses that row's text; the equality test runs after
    the type checks, so a list holding a float or a bool that equals the
    previous one is still refused.  Its literal parts, the escaped keys
    with their separators and indents, are built once per call.  Keys
    enter the source only as the parameters ``k<n>``, and escaped as
    ``e<n>``, of ``make``, never as text.
    """
    n = len(shape)
    tests, lists, parts, fields = [], [], [], []
    literal = ['"{"']  # the source of the text before the next value
    for k, (_, kind) in enumerate(shape):
        if k:
            literal.append('","')
        literal += ["i2", f"e{k}", '": "']
        if kind is type(None):
            tests.append(f"v{k} is not None")
            literal.append('"null"')
            continue
        if kind is list:
            tests.append(f"type(v{k}) is not list or not v{k}")
            lists.append(k)
            literal += ['"["', "i3"]
        else:
            tests.append(f"type(v{k}) is not {kind.__name__}")
        parts.append(f"p{k} = {' + '.join(literal)}")
        fields += [f"{{p{k}}}", "{" + _ROW_FIELDS[kind].format(k=k) + "}"]
        literal = ["i2", '"]"'] if kind is list else []
    literal += ["i1", '"}"']
    parts.append(f"end = {' + '.join(literal)}")
    fields.append("{end}")
    loop = [
        "for row in rows:",
        f"    if type(row) is not dict or len(row) != {n}:",
        "        return None",
        *(f"    v{k} = row[k{k}]" for k in range(n)),
        f"    if {' or '.join(tests)}:",
        "        return None",
    ]
    for k in lists:
        loop += [f"    for item in v{k}:", "        if type(item) is not int:", "            return None"]
    for k in lists:
        # consecutive rows often repeat a list: reuse the previous row's text
        loop += [f"    if v{k} != l{k}:", f"        l{k} = v{k}", f'        s{k} = j3.join(map(str, v{k}))']
    row_text = "".join(fields)
    loop.append(f'    out.append(f"{row_text}")')
    lines = [
        "def make(esc, tf, " + ", ".join(f"k{k}, e{k}" for k in range(n)) + "):",
        "    def write(rows, nl):",
        '        i1 = nl + "  "',
        '        i2 = i1 + "  "',
        '        i3 = i2 + "  "',
        '        j3 = "," + i3',
        *(f"        {part}" for part in parts),
        "        out = []",
        *(f"        l{k} = None" for k in lists),
        "        try:",
        *(f"            {line}" for line in loop),
        "        except KeyError:  # a row of n keys without one of these",
        "            return None",
        '        return "[" + i1 + ("," + i1).join(out) + nl + "]"',
        "    return write",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<row writer>", "exec"), namespace)
    keys = [(key, _escape(key)) for key, _ in shape]
    return namespace["make"](_escape, ("false", "true"), *(x for pair in keys for x in pair))


def _coords(e: FieldElement) -> list[int]:
    return list(e.coords)


def _point_to_json(p: ECPoint):
    if p.is_infinity:
        return "O"
    return [_coords(p.x), _coords(p.y)]


def params_to_dict(pp: PublicParams, curve_spec: Optional[AGCodeSpec] = None) -> dict:
    coords = pp.ext.coords_of
    gen = [[list(coords(v)) for v in row] for row in pp.code.generator.to_index_rows()]
    doc = {
        "format": PARAMS_FORMAT,
        "base": {"p": pp.base.p, "m": pp.base.m, "modulus": list(pp.base.modulus)},
        "ext": {"l": pp.ext.l, "modulus": list(pp.ext.modulus)},
        "scheme": {"n": pp.n, "M": pp.M, "iso": ISO_CONVENTION},
        "code": {"length": pp.V, "kdim": pp.kdim, "generator": gen},
    }
    if curve_spec is not None:
        doc["curve"] = {
            "a": _coords(curve_spec.curve.a),
            "b": _coords(curve_spec.curve.b),
            "degree": curve_spec.degree,
            "points": [_point_to_json(p) for p in curve_spec.points],
        }
    return doc


def _object(doc, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise InvalidParams(f"params field {key!r} must be a JSON object")
    return value


def _int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise InvalidParams(f"params field {key!r} must be an integer, got {value!r}")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InvalidParams(f"{what} must be a list of integers, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidParams(f"{what} must be a list, got {value!r}")
    return value


def params_from_dict(doc: dict) -> tuple[PublicParams, Optional[AGCodeSpec]]:
    if not isinstance(doc, dict):
        raise InvalidParams("params file must hold a JSON object")
    try:
        if doc["format"] != PARAMS_FORMAT:
            raise InvalidParams(f"unknown params format {doc.get('format')!r}")
        base_doc, ext_doc = _object(doc, "base"), _object(doc, "ext")
        scheme_doc, code_doc = _object(doc, "scheme"), _object(doc, "code")
        iso = scheme_doc.get("iso", ISO_CONVENTION)
        if iso != ISO_CONVENTION:
            raise InvalidParams(f"unknown coordinate convention {iso!r}")
        base = BaseField(
            _int(base_doc, "p"),
            _int(base_doc, "m"),
            _int_list(base_doc["modulus"], "base modulus"),
        )
        ext = ExtField(base, _int(ext_doc, "l"), _int_list(ext_doc["modulus"], "ext modulus"))
        rows = [
            tuple(
                ext.from_coords(_int_list(entry, "generator entry"))
                for entry in _list(row, "generator row")
            )
            for row in _list(code_doc["generator"], "generator")
        ]
        gen = Matrix(ext, rows, ncols=_int(code_doc, "length"))
        if gen.nrows != _int(code_doc, "kdim"):
            raise InvalidParams("generator row count disagrees with kdim")
        code = LinearCode(gen)
        pp = PublicParams(
            base=base,
            ext=ext,
            n=_int(scheme_doc, "n"),
            M=_int(scheme_doc, "M"),
            code=code,
        )
        curve_spec = None
        if "curve" in doc:
            cdoc = _object(doc, "curve")
            curve = EllipticCurve(
                ext,
                ext.from_coords(_int_list(cdoc["a"], "curve coefficient a")),
                ext.from_coords(_int_list(cdoc["b"], "curve coefficient b")),
            )
            points = []
            for pt in _list(cdoc["points"], "curve points"):
                if pt == "O":
                    raise InvalidParams("the pole point cannot be in the support")
                if not isinstance(pt, list) or len(pt) != 2:
                    raise InvalidParams(f"curve point must be an [x, y] pair, got {pt!r}")
                x, y = (ext.from_coords(_int_list(c, "curve point coordinate")) for c in pt)
                points.append(ECPoint(curve, x, y))
            curve_spec = AGCodeSpec(curve, tuple(points), _int(cdoc, "degree"))
            if residue_code(curve_spec).generator != code.generator:
                raise InvalidParams(
                    "stored generator is not the residue code of the stored curve"
                )
        return pp, curve_spec
    except KeyError as missing:
        raise InvalidParams(f"params file is missing {missing}") from None


def write_params(path: str, pp: PublicParams, curve_spec: Optional[AGCodeSpec] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(params_to_dict(pp, curve_spec)))


def read_params(path: str) -> tuple[PublicParams, Optional[AGCodeSpec]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise InvalidParams(f"{path} nests too deeply") from None
        except UnicodeDecodeError:
            raise InvalidParams(f"{path} is not UTF-8 text") from None
    return params_from_dict(doc)

