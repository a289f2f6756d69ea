import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtag import adversary, cli, network
from subtag.cli import main
from subtag.codes import rs_code
from subtag.ec import AGCodeSpec, EllipticCurve, ec_points, residue_code
from subtag.errors import InvalidParams, InvalidReport
from subtag.fields import BaseField, ExtField
from subtag.params import (
    dump_json,
    params_from_dict,
    params_to_dict,
    read_params,
    write_params,
)
from subtag.scheme import PublicParams, keygen, tag_basis
from subtag.schemas import validate_report

ROOT = Path(__file__).resolve().parent.parent


def test_params_round_trip(rs_pp, tmp_path):
    path = tmp_path / "params.json"
    write_params(str(path), rs_pp)
    pp, spec = read_params(str(path))
    assert spec is None
    assert (pp.base.p, pp.base.m, pp.ext.l) == (5, 1, 3)
    assert (pp.n, pp.M, pp.V, pp.kdim) == (rs_pp.n, rs_pp.M, rs_pp.V, rs_pp.kdim)
    assert pp.code.generator.to_index_rows() == rs_pp.code.generator.to_index_rows()
    # the file is audit-friendly JSON, nothing else
    doc = json.loads(path.read_text())
    assert doc["format"] == "subtag-params/1"


def _f25_curve_params():
    from subtag.fields import BaseField, ExtField

    base = BaseField(5)
    ext = ExtField(base, 2)
    curve = EllipticCurve(ext, ext.element(1), ext.element(1))
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    spec = AGCodeSpec(curve, tuple(affine[:6]), 2)
    code = residue_code(spec)
    pp = PublicParams(base=base, ext=ext, n=2, M=2, code=code)
    return pp, spec


def test_params_round_trip_with_curve(tmp_path):
    pp, spec = _f25_curve_params()
    path = tmp_path / "curve.json"
    write_params(str(path), pp, spec)
    pp2, spec2 = read_params(str(path))
    assert spec2 is not None
    assert spec2.degree == spec.degree
    assert spec2.curve.a == spec.curve.a and spec2.curve.b == spec.curve.b
    assert spec2.points == spec.points
    assert pp2.code.generator.to_index_rows() == pp.code.generator.to_index_rows()


def test_params_from_dict_rejects_tampering(rs_pp):
    good = params_to_dict(rs_pp)
    bad = dict(good, format="subtag-params/2")
    with pytest.raises(InvalidParams):
        params_from_dict(bad)
    missing = dict(good)
    del missing["scheme"]
    with pytest.raises(InvalidParams):
        params_from_dict(missing)
    short = json.loads(dump_json(good))
    short["code"]["kdim"] = 2  # generator still has 3 rows
    with pytest.raises(InvalidParams):
        params_from_dict(short)


def test_params_from_dict_checks_the_coordinate_convention(rs_pp):
    doc = json.loads(dump_json(params_to_dict(rs_pp)))
    assert doc["scheme"]["iso"] == "poly-basis-le"
    doc["scheme"]["iso"] = "normal-basis"
    with pytest.raises(InvalidParams, match="unknown coordinate convention 'normal-basis'"):
        params_from_dict(doc)
    # files without the field read with the one convention
    del doc["scheme"]["iso"]
    pp, _ = params_from_dict(doc)
    assert params_to_dict(pp) == params_to_dict(rs_pp)


def test_params_curve_generator_cross_check(tmp_path):
    pp, spec = _f25_curve_params()
    doc = params_to_dict(pp, spec)
    doc = json.loads(dump_json(doc))
    # swap two generator entries: the stored matrix no longer matches the curve
    g = doc["code"]["generator"]
    g[0][0], g[0][1] = g[0][1], g[0][0]
    with pytest.raises(InvalidParams):
        params_from_dict(doc)
    doc2 = json.loads(dump_json(params_to_dict(pp, spec)))
    doc2["curve"]["points"][0] = "O"
    with pytest.raises(InvalidParams):
        params_from_dict(doc2)


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def _stdlib_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# keys and strings with quotes, backslashes, control characters, non-ASCII
# letters, astral characters and lone surrogates.  Containers hold at most
# four items and strings at most eight characters, so few drawn documents
# pass max_leaves or repeat a dict key and have to be drawn again.
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\u2028\ud800\U0001f600 aZ') | st.characters(),
    max_size=8,
)
_LEAVES = (
    st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.booleans()
    | st.none()
    | _TEXT
    # lists of plain ints, and of ints mixed with bools, which are not ints here
    | st.lists(st.integers(), max_size=4)
    | st.lists(st.integers() | st.booleans(), max_size=4)
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_dump_json_matches_the_stdlib_encoder(doc):
    assert dump_json(doc) == _stdlib_canonical(doc)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({1: "a"}, "1"),
        ({"a": {None: 0}}, "None"),
        ({"a": [{True: 0}]}, "True"),
        ({2.5: 0, "b": 1}, "2.5"),
        ({"b": 1, 3: 0}, "3"),
    ],
    ids=["int", "none", "bool", "float", "mixed"],
)
def test_dump_json_refuses_keys_that_are_not_str(doc, key):
    # json.dumps would turn these keys into strings; no report or params key is one
    with pytest.raises(TypeError, match=f"keys must be str, not {key}$"):
        dump_json(doc)


def test_dump_json_never_reaches_the_python_indent_encoder(tiny_pp, rs_pp, monkeypatch):
    reports = [
        cli.build_analyze_report(rs_pp, None, 1),
        # guess reports hold floats
        cli.build_attack_report(tiny_pp, None, 11, (1,), 3, "guess", 64),
        cli.build_simulate_report(rs_pp, network.butterfly(), 7, "butterfly"),
    ]
    assert any(isinstance(v, float) for v in reports[1]["acceptance"].values())
    expected = [_stdlib_canonical(r) for r in reports]

    def refuse(*args, **kwargs):
        raise AssertionError("dump_json reached json.encoder._make_iterencode")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [dump_json(r) for r in reports] == expected


def test_validate_report_rejects_malformed():
    good = {
        "format": "subtag-report/setup/1",
        "path": "x",
        "q": 5,
        "l": 3,
        "n": 2,
        "M": 2,
        "V": 6,
        "kdim": 3,
        "packet_symbols": 13,
    }
    validate_report("setup", good)
    bad = dict(good)
    del bad["packet_symbols"]
    with pytest.raises(InvalidReport, match=r"^\$\.packet_symbols: required key"):
        validate_report("setup", bad)
    with pytest.raises(InvalidReport, match=r"^\$\.format: expected 'subtag-report/setup/1'"):
        validate_report("setup", dict(good, format="subtag-report/setup/2"))
    # a nested failure names its path
    row = {"coalition": [2, 3], "target": 1, "kind": "none",
           "against_target": False, "span_agrees": True}
    report = {"format": "subtag-report/analyze/1", "length": 4, "kdim": 2,
              "dual_distance": 3, "mds": True, "target": 1,
              "access_structure": [[2, 3]], "ec_table": [row] * 4}
    validate_report("analyze", report)
    report["ec_table"] = [row, row, row, dict(row, span_agrees="yes")]
    with pytest.raises(InvalidReport, match=r"^\$\.ec_table\[3\]\.span_agrees: expected boolean"):
        validate_report("analyze", report)


# -- the command line ---------------------------------------------------------


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _setup_rs(capsys, tmp_path, name="rs.json"):
    path = tmp_path / name
    rc, out, err = _run(
        capsys,
        [
            "setup", "--q", "5", "--l", "3", "--n", "2", "--M", "2",
            "--V", "6", "--kdim", "3", "--out", str(path),
        ],
    )
    assert rc == 0, err
    return path, json.loads(out)


def _setup_tiny(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    rc, out, err = _run(
        capsys,
        [
            "setup", "--q", "2", "--l", "2", "--n", "1", "--M", "1",
            "--V", "3", "--kdim", "2", "--out", str(path),
        ],
    )
    assert rc == 0, err
    return path


def test_cli_setup(capsys, tmp_path):
    path, report = _setup_rs(capsys, tmp_path)
    assert report["format"] == "subtag-report/setup/1"
    assert report["q"] == 5 and report["V"] == 6
    assert report["packet_symbols"] == 1 + 3 + 3 * 3
    pp, spec = read_params(str(path))
    assert (pp.V, pp.kdim) == (6, 3)
    assert spec is None


def test_cli_simulate_honest(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    rc, out, err = _run(
        capsys, ["simulate", "--params", str(path), "--seed", "7"]
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["all_accepted"] is True
    assert report["injected_at"] is None
    assert [v["node"] for v in report["verifiers"]] == ["a", "b", "c", "d"]
    assert all(s["full_rank"] and s["recovered"] for s in report["sinks"])


def test_cli_simulate_injection(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    rc, out, err = _run(
        capsys,
        ["simulate", "--params", str(path), "--seed", "7", "--inject-at", "b"],
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["injected_at"] == "b"
    assert report["all_accepted"] is False
    by_node = {v["node"]: v for v in report["verifiers"]}
    # upstream of the injection everything still checks out
    assert all(by_node["a"]["accepts"])
    assert not all(by_node["c"]["accepts"])


def test_cli_attack_deterministic(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    rc, out, err = _run(
        capsys,
        [
            "attack", "--params", str(path), "--seed", "3",
            "--coalition", "1,2,3", "--target", "4",
        ],
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["outcome"] == "forged"
    assert report["target_accepts"] is True
    assert all(row["accepts"] is False for row in report["others_accept"])
    assert report["predicted_keys"] == report["measured_keys"] == 1


def test_cli_attack_below_threshold(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    rc, out, err = _run(
        capsys,
        [
            "attack", "--params", str(path), "--seed", "3",
            "--coalition", "1,2", "--target", "4",
        ],
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["outcome"] == "not_qualified"
    assert report["target_accepts"] is None
    assert report["measured_keys"] == 125


def test_cli_attack_guess(capsys, tmp_path):
    path = _setup_tiny(capsys, tmp_path)
    argv = [
        "attack", "--params", str(path), "--seed", "11",
        "--coalition", "1", "--target", "3",
        "--mode", "guess", "--trials", "64",
    ]
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    report = json.loads(out)
    acc = report["acceptance"]
    assert acc["trials"] == 64
    assert acc["expected_rate"] == 0.25
    assert acc["rate"] == acc["accepted"] / 64
    # a fresh run of the same command is byte-identical
    rc2, out2, _ = _run(capsys, argv)
    assert rc2 == 0 and out2 == out


def test_cli_attack_histogram(capsys, tmp_path, monkeypatch):
    path = _setup_tiny(capsys, tmp_path)
    # the key count and the histogram share one assembly and one solve
    calls = []
    for name in ("AttackSystem", "solve_all"):
        original = getattr(adversary, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(adversary, name, counting)
    rc, out, err = _run(
        capsys,
        [
            "attack", "--params", str(path), "--seed", "11",
            "--coalition", "1", "--target", "3", "--mode", "histogram",
        ],
    )
    assert rc == 0, err
    report = json.loads(out)
    hist = report["histogram"]
    assert hist["labels"] == 4
    assert hist["uniform"] is True
    assert hist["min_count"] == hist["max_count"] == 1
    assert sum(int(c) for c in hist["counts"].values()) == 4
    assert sorted(calls) == ["AttackSystem", "solve_all"]


def test_cli_attack_histogram_refuses_above_the_guard(capsys, tmp_path, monkeypatch):
    # an outsider's view of a q=2, l=9 instance leaves 512^3 master keys,
    # above the one enumeration bound of 2^24; the histogram enumerates no
    # key, so only its 512 labels meet the guard
    path = tmp_path / "wide.json"
    rc, _, err = _run(
        capsys,
        [
            "setup", "--q", "2", "--l", "9", "--n", "2", "--M", "2",
            "--V", "6", "--kdim", "3", "--out", str(path),
        ],
    )
    assert rc == 0, err
    argv = ["attack", "--params", str(path), "--target", "1", "--mode", "histogram"]
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    report = json.loads(out)
    assert report["measured_keys"] == 512**3
    assert report["histogram"] == {
        "labels": 512, "min_count": 262144, "max_count": 262144, "uniform": True,
    }
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 511)
    rc, out, err = _run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == "subtag: 512 labels exceed the guard 511\n"


def test_cli_analyze(capsys, tmp_path):
    # RS[5,2]: an MDS code whose report is small enough to check in full
    path = tmp_path / "rs52.json"
    rc, out, err = _run(
        capsys,
        [
            "setup", "--q", "5", "--l", "2", "--n", "1", "--M", "1",
            "--V", "5", "--kdim", "2", "--out", str(path),
        ],
    )
    assert rc == 0, err
    rc, out, err = _run(
        capsys, ["analyze", "--params", str(path), "--target", "1"]
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["mds"] is True
    assert report["dual_distance"] == 3
    assert sorted(map(tuple, report["access_structure"])) == sorted(
        (a, b) for a in range(2, 6) for b in range(a + 1, 6)
    )
    assert "ec_table" not in report


def test_cli_ec_code_and_attack(capsys, tmp_path):
    path = tmp_path / "ec.json"
    rc, out, err = _run(
        capsys,
        [
            "ec-code", "--q", "5", "--l", "2", "--a", "1", "--b", "1",
            "--degree", "2", "--num-points", "6", "--n", "1", "--M", "1",
            "--out", str(path),
        ],
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["curve_points"] == 27
    assert (report["length"], report["kdim"]) == (6, 4)

    rc, out, err = _run(
        capsys,
        [
            "attack", "--params", str(path), "--seed", "5",
            "--coalition", "1,2,3,4", "--target", "6",
        ],
    )
    assert rc == 0, err
    attack = json.loads(out)
    cls = attack["ec_classification"]
    assert cls["kind"] in {"none", "single-target", "all-targets"}
    # the point-sum verdict and the span route must name the same outcome
    want = "forged" if cls["against_target"] else "not_qualified"
    assert attack["outcome"] == want

    rc, out, err = _run(
        capsys, ["analyze", "--params", str(path), "--target", "1"]
    )
    assert rc == 0, err
    table = json.loads(out)["ec_table"]
    assert table and all(row["span_agrees"] for row in table)


def test_generator_indices_are_the_codes_columns(rs_pp, capsys, tmp_path):
    path = tmp_path / "ec.json"
    argv = ["ec-code", "--q", "5", "--l", "2", "--a", "1", "--b", "1", "--degree", "2",
            "--num-points", "5", "--n", "1", "--M", "1", "--out", str(path)]
    assert _run(capsys, argv)[0] == 0
    ec_pp, _ = read_params(str(path))
    for pp in (rs_pp, ec_pp):
        rows = pp.code.generator.to_index_rows()
        assert pp.code.columns == tuple(tuple(r[j] for r in rows) for j in range(pp.V))
        for i in range(1, pp.V + 1):
            assert pp.generator_indices(i) is pp.code.columns[i - 1]


def test_default_attack_payload_tests_at_most_l_unit_vectors(monkeypatch):
    # n = l over GF(256)^2: the observed payloads span everything, and the
    # search used to try all 65 536 extension indices before saying so
    base = BaseField(2, 8)
    ext = ExtField(base, 2)
    pp = PublicParams(base=base, ext=ext, n=2, M=2, code=rs_code(ext, range(3), 2))
    mk = keygen(pp, 1)
    view = adversary.CoalitionView.build(pp, {}, tag_basis(pp, mk, ((1, 0), (0, 1))))
    calls = []
    spans = adversary.CoalitionView.spans

    def counting(self, payload):
        calls.append(tuple(payload))
        return spans(self, payload)

    monkeypatch.setattr(adversary.CoalitionView, "spans", counting)
    with pytest.raises(InvalidParams, match="already span the whole space"):
        cli._payload_outside(view)
    assert calls == [(1, 0), (0, 1)]
    # with one payload observed, the default is the first unit vector outside
    calls.clear()
    half = adversary.CoalitionView.build(pp, {}, tag_basis(pp, mk, ((7, 0), (0, 1)))[:1])
    assert cli._payload_outside(half) == (0, 1)
    assert calls == [(1, 0), (0, 1)]


def test_cli_out_flag_writes_file(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    report_path = tmp_path / "sim.json"
    rc, out, err = _run(
        capsys,
        [
            "simulate", "--params", str(path), "--seed", "7",
            "--out", str(report_path),
        ],
    )
    assert rc == 0, err
    assert out == ""
    on_disk = json.loads(report_path.read_text())
    assert on_disk["all_accepted"] is True


def test_cli_determinism_across_runs(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    argv = ["simulate", "--params", str(path), "--seed", "42"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    _, other, _ = _run(capsys, ["simulate", "--params", str(path), "--seed", "43"])
    assert other != first


def test_cli_errors_exit_one(capsys, tmp_path):
    rc, out, err = _run(
        capsys, ["simulate", "--params", str(tmp_path / "nope.json")]
    )
    assert rc == 1
    assert err.startswith("subtag:")
    # library-level validation surfaces the same way
    rc, out, err = _run(
        capsys,
        [
            "setup", "--q", "6", "--l", "2", "--n", "1", "--M", "1",
            "--V", "3", "--kdim", "2", "--out", str(tmp_path / "p.json"),
        ],
    )
    assert rc == 1
    assert "prime power" in err


def test_cli_report_failing_its_schema_exits_one(capsys, tmp_path, monkeypatch):
    path, _ = _setup_rs(capsys, tmp_path)
    build = cli.build_analyze_report
    monkeypatch.setattr(
        cli, "build_analyze_report", lambda *args: dict(build(*args), dual_distance="x")
    )
    rc, out, err = _run(capsys, ["analyze", "--params", str(path), "--target", "1"])
    assert rc == 1
    assert out == ""
    assert err == "subtag: $.dual_distance: expected integer, got 'x' (analyze report)\n"


def test_cli_rejects_unknown_mode(capsys, tmp_path):
    path = _setup_tiny(capsys, tmp_path)
    with pytest.raises(SystemExit):
        main(["attack", "--params", str(path), "--target", "3", "--mode", "lucky"])


EC_ARGS = ["--q", "5", "--l", "2", "--degree", "2", "--n", "1", "--M", "1"]


def _string_for_int(doc):
    doc["scheme"]["n"] = "2"
    return json.dumps(doc)


def _unreduced_modulus(doc):
    # 6 is not an index of GF(5): refused, not read as 1
    doc["base"] = {"p": 5, "m": 1, "modulus": [6, 1]}
    return json.dumps(doc)


def _prime_modulus_not_x(doc):
    # x + 3 is irreducible, but it would give GF(5) a second name
    doc["base"]["modulus"] = [3, 1]
    return json.dumps(doc)


def _topology_file(tmp_path):
    path = tmp_path / "net.topo"
    path.write_text("node s source\nnode a verifier\nedge s a\nkernel a x\n")
    return str(path)


def _directory(tmp_path):
    return str(tmp_path)


NOT_UTF8 = b"\xff\xfe\x00 not text"


def _binary_file(tmp_path):
    path = tmp_path / "binary.topo"
    path.write_bytes(NOT_UTF8)
    return str(path)


@pytest.mark.parametrize(
    "argv, params_text",
    [
        (["attack", "--coalition", "1,9", "--target", "4"], None),
        (["attack", "--coalition", "1", "--target", "9"], None),
        (["attack", "--coalition", "1,2", "--target", "4", "--mode", "guess", "--trials", "0"], None),
        (["attack", "--coalition", "x", "--target", "4"], None),
        (["analyze", "--target", "4"], '{"format": "subtag-params/1", '),
        (["analyze", "--target", "4"], "[]"),
        (["analyze", "--target", "4"], _string_for_int),
        (["analyze", "--target", "4"], _unreduced_modulus),
        (["analyze", "--target", "4"], _prime_modulus_not_x),
        (["ec-code", "--a", "1", "--b", "1", "--points", "0,0;1,1", *EC_ARGS], None),
        (["ec-code", "--a", "x", "--b", "1", "--num-points", "6", *EC_ARGS], None),
        (["simulate", "--topology", _topology_file], None),
        (["simulate", "--topology", _directory], None),
        (["analyze", "--target", "1"], NOT_UTF8),
        (["simulate", "--topology", _binary_file], None),
        (
            ["setup", "--q", "1000000007", "--l", "2", "--n", "1", "--M", "1", "--V", "3",
             "--kdim", "2"],
            None,
        ),
        (["ec-code", "--a", "1", "--b", "1", "--num-points", "-3", *EC_ARGS], None),
        (["attack", "--coalition", "1,1,2", "--target", "4"], None),
        (["analyze", "--target", "1"], "[" * 100_000 + "]" * 100_000),
    ],
    ids=[
        "member-out-of-range",
        "target-out-of-range",
        "zero-trials",
        "non-integer-member",
        "malformed-json",
        "params-not-an-object",
        "params-string-for-int",
        "params-modulus-not-reduced",
        "prime-modulus-not-x",
        "ec-point-not-on-curve",
        "ec-non-integer-coefficient",
        "topology-non-integer-kernel",
        "topology-is-a-directory",
        "params-not-utf8",
        "topology-not-utf8",
        "base-order-too-large",
        "ec-negative-point-count",
        "repeated-member",
        "params-too-deep",
    ],
)
def test_cli_bad_input_is_a_subtag_error(capsys, tmp_path, argv, params_text):
    path, _ = _setup_rs(capsys, tmp_path)
    if callable(params_text):
        params_text = params_text(json.loads(path.read_text()))
    if isinstance(params_text, bytes):
        path.write_bytes(params_text)
    elif params_text is not None:
        path.write_text(params_text)
    flag = "--out" if argv[0] in ("setup", "ec-code") else "--params"
    rest = [a(tmp_path) if callable(a) else a for a in argv[1:]]
    rc, out, err = _run(capsys, [argv[0], flag, str(path), *rest])
    assert rc == 1
    assert out == ""
    assert err.startswith("subtag:")
    # a file that is not text is named in the message
    named = [str(path)] if isinstance(params_text, bytes) else []
    named += [r for a, r in zip(argv[1:], rest) if a is _binary_file]
    for name in named:
        assert f"{name} is not UTF-8 text" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_off_curve_params_point_is_a_subtag_error(capsys, tmp_path, flags):
    path = tmp_path / "ec.json"
    rc, _, _ = _run(capsys, ["ec-code", "--out", str(path), "--a", "1", "--b", "1",
                             "--num-points", "5", *EC_ARGS])
    assert rc == 0
    doc = json.loads(path.read_text())
    # (x, 2y) lies on the curve only if 2y = y or 2y = -y, that is y = 0
    x, y = next(point for point in doc["curve"]["points"] if any(point[1]))
    y[:] = [2 * c % 5 for c in y]
    path.write_text(json.dumps(doc))
    proc = _analyze_in_subprocess(path, "2", flags, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("subtag:")
    assert "is not on the curve" in proc.stderr


def _analyze_in_subprocess(path, target, flags=(), timeout=10):
    script = (
        "import sys\n"
        "from subtag.cli import main\n"
        f"sys.exit(main(['analyze', '--params', {str(path)!r}, '--target', {target!r}]))\n"
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize(
    "base",
    [
        {"p": 1000000000000000009, "m": 1, "modulus": [0, 1]},
        {"p": 5, "m": 100000000, "modulus": [0, 1]},
        {"p": 5, "m": 1000000, "modulus": [0, 1]},
    ],
    ids=["characteristic-past-the-bound", "degree-past-the-bound", "order-too-long-to-print"],
)
def test_oversized_base_field_params_fail_fast(capsys, tmp_path, base):
    # unbounded, these would factor p by trial division up to 10^9, compute
    # 5^(10^8), or fail to print the 700 000-digit order 5^(10^6)
    path, _ = _setup_rs(capsys, tmp_path)
    doc = json.loads(path.read_text())
    doc["base"] = base
    path.write_text(json.dumps(doc))
    proc = _analyze_in_subprocess(path, "4")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("subtag:")
    assert "exceeds 65536" in proc.stderr


def test_cli_unknown_inject_node_is_named(capsys, tmp_path):
    path, _ = _setup_rs(capsys, tmp_path)
    rc, out, err = _run(capsys, ["simulate", "--params", str(path), "--inject-at", "zz"])
    assert rc == 1
    assert out == ""
    assert "unknown node" in err
    assert err == "subtag: unknown node 'zz'\n"
