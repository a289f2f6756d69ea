"""The stdlib report checker in ``subtag.schemas``.

``jsonschema`` (a test dependency only) is the reference: the checker must
accept or reject exactly what ``jsonschema.validate`` does, on every report
the commands of ``test_reports_frozen`` write and on mutated copies of them.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from subtag import cli
from subtag.errors import InvalidReport, UnsupportedSchema
from subtag.schemas import REPORT_SCHEMAS, _compile, validate_report

from test_reports_frozen import COMMANDS

ROOT = Path(__file__).resolve().parent.parent

_DROP = object()


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """(kind, report) for every report the frozen commands emit."""
    seen = []

    def record(kind, report):
        seen.append((kind, copy.deepcopy(report)))
        validate_report(kind, report)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("reports"))
        mp.setattr(cli, "validate_report", record)
        for name, argv, _ in COMMANDS:
            if cli.main(argv) != 0:
                raise RuntimeError(f"{name} failed")
    return seen


def _reference(kind):
    schema = REPORT_SCHEMAS[kind]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema).is_valid


def _accepts(kind, report):
    try:
        validate_report(kind, report)
    except InvalidReport:
        return False
    return True


def _trimmed(value):
    """``value`` with every array cut to its first two items: every schema
    location stays present, and the reference checks it quickly."""
    if isinstance(value, dict):
        return {k: _trimmed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_trimmed(v) for v in value[:2]]
    return value


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _with(value, path, new):
    """A copy of ``value`` with the node at ``path`` replaced by ``new``
    (deleted if ``new`` is _DROP)."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    out = copy.copy(value)
    if not rest and new is _DROP:
        del out[head]
    else:
        out[head] = _with(value[head], rest, new)
    return out


def _mutations(report):
    """Mutated copies of ``report``: at every node, a value of each JSON type
    (``null``, ``true`` as an integer, ``1.0`` and ``1.5``, a tuple for an
    array); integers one below their value (and so below any ``minimum``
    they meet); strings that miss their ``const`` or ``enum``; and objects
    with each key dropped."""
    for path, value in _nodes(report):
        news = [None, True, False, 0, -1, 1.0, 1.5, "x", [], {}, ()]
        if isinstance(value, int) and not isinstance(value, bool):
            news += [value - 1, float(value)]
        if isinstance(value, str):
            news.append(value + "x")
        for new in news:
            yield path, _with(report, path, new)
        if isinstance(value, dict):
            for key in value:
                yield path + (key,), _with(report, path + (key,), _DROP)


def test_every_report_schema_compiles():
    for kind, schema in REPORT_SCHEMAS.items():
        assert callable(_compile(schema)), kind


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "additionalProperties": False},
        {"type": "string", "pattern": "^subtag-"},
        {"$ref": "#/$defs/row"},
        # nested under each keyword that holds sub-schemas
        {"properties": {"a": {"type": "integer", "pattern": "x"}}},
        {"items": {"type": "object", "additionalProperties": {"type": "string"}}},
        # forms of the seven keywords that the checker does not implement
        {"items": [{"type": "integer"}]},
        {"type": "float"},
        {"const": 1},
        {"enum": ["a", None]},
        {"minimum": True},
        {"required": "a"},
    ],
)
def test_unsupported_schema_is_refused_at_compile_time(schema):
    with pytest.raises(UnsupportedSchema):
        _compile(schema)


def test_checker_agrees_with_jsonschema_on_cli_reports(cli_reports):
    kinds = {kind for kind, _ in cli_reports}
    assert kinds == set(REPORT_SCHEMAS)
    for kind, report in cli_reports:
        assert _reference(kind)(report)
        assert _accepts(kind, report)


def test_checker_agrees_with_jsonschema_on_mutated_reports(cli_reports):
    accepted = rejected = 0
    for kind, report in cli_reports:
        reference = _reference(kind)
        for path, mutated in _mutations(_trimmed(report)):
            want = reference(mutated)
            if _accepts(kind, mutated) != want:
                pytest.fail(f"{kind} report mutated at {path}: jsonschema says {want}")
            accepted += want
            rejected += not want
    # both outcomes occur often, so agreement is not vacuous
    assert accepted > 500 and rejected > 1000, (accepted, rejected)


def test_failure_names_the_path_of_the_failing_value(cli_reports):
    kind, report = next((k, r) for k, r in cli_reports if k == "simulate")
    report["sinks"][1]["recovered"] = None  # ["boolean", "null"] allows it
    validate_report(kind, report)
    report["sinks"][1]["recovered"] = 1
    with pytest.raises(InvalidReport, match=r"^\$\.sinks\[1\]\.recovered: expected boolean or null"):
        validate_report(kind, report)
    report["sinks"][1]["recovered"] = 1.0
    with pytest.raises(InvalidReport, match=r"^\$\.sinks\[1\]\.recovered: "):
        validate_report(kind, report)
    del report["sinks"][0]["node"]
    with pytest.raises(InvalidReport, match=r"^\$\.sinks\[0\]\.node: required key is missing"):
        validate_report(kind, report)


def _python(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_commands_run_without_jsonschema(tmp_path):
    script = """
import sys
sys.modules["jsonschema"] = None  # any import of it now fails
from subtag.cli import main
for argv in (
    ["setup", "--q", "5", "--l", "3", "--n", "2", "--M", "2", "--V", "6",
     "--kdim", "3", "--out", "rs.json"],
    ["simulate", "--params", "rs.json", "--seed", "7"],
    ["attack", "--params", "rs.json", "--seed", "3", "--coalition", "1,2,3",
     "--target", "4"],
    ["analyze", "--params", "rs.json", "--target", "1"],
):
    rc = main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
"""
    proc = _python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr


def test_checks_hold_under_optimize_flag(tmp_path):
    script = """
import sys
from subtag.errors import InvalidReport, UnsupportedSchema
from subtag.schemas import _compile, validate_report
try:
    _compile({"type": "string", "pattern": "x"})
    sys.exit("pattern was compiled")
except UnsupportedSchema:
    pass
try:
    validate_report("setup", {"format": "subtag-report/setup/1"})
    sys.exit("a setup report without its keys passed")
except InvalidReport:
    pass
"""
    proc = _python(tmp_path, "-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
