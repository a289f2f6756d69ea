import functools
import itertools

import pytest

from subtag import cli
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtag.codes import CoalitionSpec, LinearCode
from subtag.ec import (
    AGCodeSpec,
    CoalitionClass,
    ECPoint,
    EllipticCurve,
    Forgeability,
    Monomial,
    classify_coalition,
    ec_add,
    ec_points,
    ec_sum,
    eval_code,
    residue_code,
    rr_basis,
)
from subtag.errors import (
    DuplicatePoint,
    InvalidParams,
    SingularCurve,
    TargetInCoalition,
)
from subtag.fields import BaseField, ExtField, FieldElement
from subtag.linalg import Matrix, _span_witness
from subtag.params import params_from_dict, params_to_dict
from subtag.scheme import PublicParams

from oracles import (
    brute_dual_words,
    dual_support_forges,
    ec_mul,
    ec_neg,
    reference_classify,
    reference_ec_add,
)


@pytest.fixture(scope="module")
def e5():
    return ExtField(BaseField(5), 1)


@pytest.fixture(scope="module")
def curve(e5):
    # y^2 = x^3 + x + 1 over F_5: nine rational points, cyclic of order 9
    return EllipticCurve(e5, e5.one, e5.one)


def pt(curve, x, y):
    f = curve.field
    return ECPoint(curve, f.element(x), f.element(y))


def test_curve_validation(e5, e4, f3):
    with pytest.raises(SingularCurve):
        EllipticCurve(e5, e5.zero, e5.zero)  # disc = 0
    with pytest.raises(InvalidParams):
        EllipticCurve(e4, e4.one, e4.one)  # char 2
    e3 = ExtField(f3, 1)
    with pytest.raises(InvalidParams):
        EllipticCurve(e3, e3.one, e3.one)  # char 3


@pytest.mark.parametrize("p, l", [(5, 1), (5, 2), (7, 2), (5, 3)])
def test_discriminant_over_the_tower(p, l):
    # 4a^3 + 27b^2 vanishes for a = -3, b = 2 in every characteristic
    ext = ExtField(BaseField(p), l)
    with pytest.raises(SingularCurve):
        EllipticCurve(ext, ext.element(p - 3), ext.element(2))
    EllipticCurve(ext, ext.element(p - 3), ext.element(1))


def test_point_membership(curve):
    with pytest.raises(InvalidParams):
        pt(curve, 0, 2)  # 4 != 1
    p = pt(curve, 0, 1)
    assert not p.is_infinity
    assert ECPoint.infinity(curve).is_infinity


def test_point_enumeration_frozen(curve):
    pts = ec_points(curve)
    assert len(pts) == 9
    assert pts[0].is_infinity
    coords = [(p.x.index, p.y.index) for p in pts[1:]]
    assert coords == [(0, 1), (0, 4), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]


def test_group_law_frozen(curve):
    a, b = pt(curve, 0, 1), pt(curve, 2, 1)
    assert ec_add(a, b) == pt(curve, 3, 4)
    assert ec_mul(2, a) == pt(curve, 4, 2)
    assert ec_mul(3, a) == pt(curve, 2, 1)
    assert ec_mul(9, a).is_infinity
    assert ec_add(pt(curve, 2, 1), pt(curve, 2, 4)).is_infinity
    assert ec_neg(pt(curve, 3, 1)) == pt(curve, 3, 4)
    o = ECPoint.infinity(curve)
    assert ec_add(o, a) == a and ec_add(a, o) == a


def test_group_axioms_exhaustive(curve):
    pts = ec_points(curve)
    for p in pts:
        assert ec_add(p, ec_neg(p)).is_infinity
        for q in pts:
            r = ec_add(p, q)
            assert r in pts  # closure
            assert r == ec_add(q, p)
    # associativity on a grid of triples
    for p, q, r in itertools.product(pts[::2], pts[::3], pts[::2]):
        assert ec_add(ec_add(p, q), r) == ec_add(p, ec_add(q, r))


def test_group_is_cyclic_of_order_nine(curve):
    pts = ec_points(curve)

    def order(p):
        k, acc = 1, p
        while not acc.is_infinity:
            acc = ec_add(acc, p)
            k += 1
        return k

    orders = sorted(order(p) for p in pts)
    assert orders == [1, 3, 3, 9, 9, 9, 9, 9, 9]


@functools.lru_cache(maxsize=None)
def _law_field(p, l):
    return BaseField(p) if l == 1 else ExtField(BaseField(p), l)


@functools.lru_cache(maxsize=None)
def _law_curve(p, l, a, b):
    field = _law_field(p, l)
    curve = EllipticCurve(field, field.element(a), field.element(b))
    return curve, ec_points(curve)


@st.composite
def curve_points(draw):
    """A nonsingular curve over GF(5), GF(7), GF(11), GF(13), GF(5^2) or
    GF(7^2), with all its points."""
    p, l = draw(st.sampled_from(((5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2))))
    a, b = (draw(st.integers(0, p**l - 1)) for _ in range(2))
    try:
        return _law_curve(p, l, a, b)
    except SingularCurve:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_group_law_matches_the_reference(data):
    curve, pts = data.draw(curve_points())
    p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
    o = ECPoint.infinity(curve)
    for u, v in ((p, q), (p, p), (p, ec_neg(p)), (o, p), (p, o), (o, o)):
        assert ec_add(u, v) == reference_ec_add(u, v), (curve, u, v)
    assert ec_sum((p, q, p), curve) == reference_ec_add(reference_ec_add(p, q), p)


def _script_spec(degree):
    # the six-point codes of scripts/ec_access_table.py
    base = BaseField(5)
    curve = EllipticCurve(base, base.element(1), base.element(1))
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    return AGCodeSpec(curve, tuple(affine[:6]), degree)


def test_rr_basis_sizes_and_pole_orders(curve):
    assert [m.pole_order for m in rr_basis(curve, 0)] == [0]
    for m in range(1, 8):
        basis = rr_basis(curve, m)
        assert len(basis) == m
        assert all(mono.pole_order <= m for mono in basis)
        assert [mono.pole_order for mono in basis] == sorted(
            mono.pole_order for mono in basis
        )
    # explicit shape at m = 5: 1, x, y, x^2, xy
    assert [(m.xexp, m.yexp) for m in rr_basis(curve, 5)] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
    ]


def test_monomial_evaluation(curve):
    p = pt(curve, 3, 4)
    f, x, y = curve.field, p.x.index, p.y.index
    assert Monomial(0, 0)._at(f, x, y) == 1
    assert Monomial(1, 0)._at(f, x, y) == 3
    assert Monomial(2, 1)._at(f, x, y) == (3 * 3 * 4) % 5


@pytest.fixture(scope="module")
def support(curve):
    # the three +/- pairs: x in {0, 2, 3}; their group sum is O
    return tuple(p for p in ec_points(curve) if not p.is_infinity)[:6]


def test_agspec_validation(curve, support):
    with pytest.raises(InvalidParams):
        AGCodeSpec(curve, support, 0)
    with pytest.raises(InvalidParams):
        AGCodeSpec(curve, support, 6)  # degree must stay below n
    with pytest.raises(DuplicatePoint):
        AGCodeSpec(curve, support + (support[0],), 3)
    with pytest.raises(InvalidParams):
        AGCodeSpec(curve, support + (ECPoint.infinity(curve),), 3)


def test_eval_and_residue_shapes(curve, support):
    for deg in (2, 3, 4):
        spec = AGCodeSpec(curve, support, deg)
        ev = eval_code(spec)
        assert (ev.length, ev.kdim) == (6, deg)
        res = residue_code(spec)
        assert (res.length, res.kdim) == (6, 6 - deg)
        # residue really is the dual: every pairing vanishes
        f = curve.field
        for ew in ev.generator.to_index_rows():
            for rw in res.generator.to_index_rows():
                acc = f.zero
                for a, b in zip(ew, rw):
                    acc = acc + FieldElement(f, a) * FieldElement(f, b)
                assert not acc


def test_eval_code_rows_are_point_evaluations(curve, support):
    spec = AGCodeSpec(curve, support, 3)
    rows = eval_code(spec).generator.to_index_rows()
    basis = rr_basis(curve, 3)
    for mono, row in zip(basis, rows):
        assert list(row) == [
            mono._at(curve.field, p.x.index, p.y.index) for p in support
        ]


def test_classifier_rejects_bad_indices(curve, support):
    spec = AGCodeSpec(curve, support, 3)
    with pytest.raises(TargetInCoalition):
        classify_coalition(spec, [1, 2], 2)
    with pytest.raises(InvalidParams):
        classify_coalition(spec, [0], 3)
    with pytest.raises(InvalidParams):
        classify_coalition(spec, [1], 7)


def test_classifier_frozen_cases(curve, support):
    spec = AGCodeSpec(curve, support, 3)
    # size n-k-2 = 1: never forgeable
    c = classify_coalition(spec, [4], 1)
    assert c.kind is Forgeability.NOT_FORGEABLE and not c.against(1)

    # size n-k-1 = 2, coalition {1,2}: complement {3,4,5,6} holds both
    # +/- pairs of x=2 and x=3, summing to O, which is off-support
    c = classify_coalition(spec, [1, 2], 3)
    assert c.kind is Forgeability.NOT_FORGEABLE
    assert c.complement_sum.is_infinity

    # size 2, coalition {1,3}: complement {2,4,5,6} = (0,4)+(2,4)+(3,1)+(3,4)
    # = (0,4)+(2,4) = -((0,1)+(2,1)) = -(3,4) = (3,1) = support point 5
    c = classify_coalition(spec, [1, 3], 5)
    assert c.kind is Forgeability.SINGLE_TARGET
    assert c.single_target == 5
    assert c.against(5) and not c.against(2)

    # size n-k = 3, coalition {1,2,3}: complement (2,4)+(3,1)+(3,4) = (2,4)
    c = classify_coalition(spec, [1, 2, 3], 5)
    assert c.kind is Forgeability.ALL_TARGETS and c.against(5)
    assert (c.complement_sum.x.index, c.complement_sum.y.index) == (2, 4)

    # size 3, coalition {2,4,6}: complement (0,1)+(2,1)+(3,1)
    # = (3,4)+(3,1) = O: forges against nobody
    c = classify_coalition(spec, [2, 4, 6], 1)
    assert c.kind is Forgeability.NOT_FORGEABLE
    assert c.complement_sum.is_infinity

    # size n-k+1 = 4: always
    c = classify_coalition(spec, [1, 2, 3, 4], 5)
    assert c.kind is Forgeability.ALL_TARGETS


@pytest.mark.parametrize("deg", [2, 3, 4])
def test_classifier_agrees_with_span_oracle(curve, support, deg):
    """Group-law verdicts vs direct dual-support enumeration, all sizes."""
    spec = AGCodeSpec(curve, support, deg)
    res = residue_code(spec)
    rows = [list(r) for r in res.generator.to_index_rows()]
    n = 6
    words = brute_dual_words(curve.field, rows, n)
    for size in range(0, n):
        for combo in itertools.combinations(range(1, n + 1), size):
            for tgt in range(1, n + 1):
                if tgt in combo:
                    continue
                verdict = classify_coalition(spec, combo, tgt).against(tgt)
                assert verdict == dual_support_forges(words, combo, tgt), (
                    deg,
                    combo,
                    tgt,
                )


def test_residue_code_with_smaller_support(curve):
    # a support whose sum is NOT the identity: drop one pair, keep 5 points
    pts = [p for p in ec_points(curve) if not p.is_infinity]
    support = tuple(pts[:5])
    spec = AGCodeSpec(curve, support, 2)
    res = residue_code(spec)
    assert (res.length, res.kdim) == (5, 3)
    rows = [list(r) for r in res.generator.to_index_rows()]
    words = brute_dual_words(curve.field, rows, 5)
    for size in (2, 3):
        for combo in itertools.combinations(range(1, 6), size):
            for tgt in range(1, 6):
                if tgt in combo:
                    continue
                verdict = classify_coalition(spec, combo, tgt).against(tgt)
                assert verdict == dual_support_forges(words, combo, tgt)


# -- the analyze report's ec_table ----------------------------------------------

# (extension degree over GF(5), support size, degree) of y^2 = x^3 + x + 1 on
# its first affine points: the three codes of the access benchmark, then the
# six-point codes of scripts/ec_access_table.py
EC_TABLE_CODES = ((1, 8, 2), (1, 8, 3), (2, 6, 3), (1, 6, 2), (1, 6, 3))


def _curve_code(l, size, degree):
    base = BaseField(5)
    ext = ExtField(base, l)
    curve = EllipticCurve(ext, ext.one, ext.one)
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    spec = AGCodeSpec(curve, tuple(affine[:size]), degree)
    return PublicParams(base=base, ext=ext, n=l, M=l, code=residue_code(spec)), spec


def _mask_circuits(code, i):
    """The circuit search that skips every superset of a spanning set
    already found, with columns read straight from the generator."""
    column = dict(enumerate(zip(*code.generator.to_index_rows()), start=1))
    others = [j for j in range(1, code.length + 1) if j != i]
    found, masks = [], []
    for size in range(code.kdim + 1):
        for members in itertools.combinations(others, size):
            mask = sum(1 << j for j in members)
            if any(m & mask == m for m in masks):
                continue
            witness = _span_witness(code.field, [column[j] for j in members], column[i])
            if witness is not None:
                found.append((members, witness))
                masks.append(mask)
    return tuple(found)


@pytest.mark.parametrize("shape", EC_TABLE_CODES[:3])
def test_circuits_match_the_superset_mask_search(shape):
    pp, _ = _curve_code(*shape)
    for code in (pp.code, pp.code.dual()):
        for i in range(1, code.length + 1):
            assert code._circuits(i) == _mask_circuits(code, i), (shape, code.kdim, i)


def _reference_ec_table(pp, spec):
    """The table pair by pair: one classification and one span test each."""
    n, k = spec.n, spec.degree
    rows = []
    for size in (n - k - 1, n - k):
        for combo in itertools.combinations(range(1, n + 1), size):
            for tgt in range(1, n + 1):
                if tgt in combo:
                    continue
                cls = classify_coalition(spec, combo, tgt)
                span = pp.code.forgeable(CoalitionSpec(frozenset(combo), tgt))[0]
                rows.append({
                    "coalition": list(combo),
                    "target": tgt,
                    "kind": cls.kind.value,
                    "against_target": cls.against(tgt),
                    "span_agrees": cls.against(tgt) == span,
                })
    return rows


@pytest.mark.parametrize("shape", EC_TABLE_CODES)
def test_ec_table_matches_the_per_pair_reference(shape):
    pp, spec = _curve_code(*shape)
    table = cli.build_analyze_report(pp, spec, 1)["ec_table"]
    assert table == _reference_ec_table(pp, spec)
    assert all(row["span_agrees"] for row in table)


@pytest.mark.parametrize("code", ["script-2", "script-3", *EC_TABLE_CODES[:3]], ids=str)
def test_classifier_matches_the_reference(code):
    if isinstance(code, str):
        spec = _script_spec(int(code[-1]))
    else:
        spec = _curve_code(*code)[1]
    n = spec.n
    for size in range(n):
        for combo in itertools.combinations(range(1, n + 1), size):
            for tgt in range(1, n + 1):
                if tgt not in combo:
                    assert classify_coalition(spec, combo, tgt) == reference_classify(
                        spec, combo, tgt
                    ), (code, combo, tgt)


def test_ec_table_makes_no_element_arithmetic(monkeypatch):
    pp, spec = _curve_code(1, 8, 3)

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic below the API edge")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
        monkeypatch.setattr(FieldElement, name, refuse)
    table = cli.build_analyze_report(pp, spec, 1)["ec_table"]
    assert len(table) == 448
    assert all(row["span_agrees"] for row in table)


@pytest.mark.parametrize("shape, zero_sum", [((2, 6, 3), False), ((1, 6, 3), True)])
def test_ec_table_tests_spans_only_for_dependent_coalitions(monkeypatch, shape, zero_sum):
    """A coalition of n-k columns is dependent exactly when its complement
    sums to O; every other verdict is read off the walk's ranks."""
    pp, spec = _curve_code(*shape)
    n, k = spec.n, spec.degree
    assert zero_sum == any(
        classify_coalition(spec, combo, min(set(range(1, n + 1)) - set(combo)))
        .complement_sum.is_infinity
        for combo in itertools.combinations(range(1, n + 1), n - k)
    )
    calls = []
    in_span = cli._in_span
    monkeypatch.setattr(cli, "_in_span", lambda *args: calls.append(args) or in_span(*args))
    table = cli.build_analyze_report(pp, spec, 1)["ec_table"]
    assert bool(calls) == zero_sum
    assert all(row["span_agrees"] for row in table)


def _counting_rref(monkeypatch):
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append((self.nrows, self.ncols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    return calls


def test_ec_table_asks_each_coalition_once(monkeypatch):
    pp, spec = _curve_code(2, 6, 3)
    classified, forgeable = [], []
    classify = cli.classify_coalition

    def counting_classify(spec, coalition, target):
        classified.append(tuple(coalition))
        return classify(spec, coalition, target)

    monkeypatch.setattr(cli, "classify_coalition", counting_classify)
    monkeypatch.setattr(LinearCode, "forgeable", lambda *args: forgeable.append(args))
    # a residue code is built as a dual, so it already holds its own dual
    eliminations = _counting_rref(monkeypatch)
    table = cli.build_analyze_report(pp, spec, 1)["ec_table"]
    coalitions = [c for size in (2, 3) for c in itertools.combinations(range(1, 7), size)]
    assert classified == coalitions
    # the walk shares each prefix's reduction: no coalition is eliminated afresh
    assert eliminations == []
    assert forgeable == []
    assert len(table) == 120


def test_analyze_eliminates_only_for_the_dual(monkeypatch):
    # the [8,5] access code as the access benchmark reads it, from a params
    # document; building PublicParams already eliminated once for the dual
    pp, spec = params_from_dict(params_to_dict(*_curve_code(1, 8, 3)))
    eliminations = _counting_rref(monkeypatch)
    report = cli.build_analyze_report(pp, spec, 1)
    assert eliminations == []
    assert (report["dual_distance"], len(report["ec_table"])) == (5, 448)


def test_group_law_points_skip_the_curve_check(monkeypatch):
    # points from the curve equation or the group law are on the curve by
    # construction; only ECPoint(...) on outside input checks membership
    calls = []
    contains = EllipticCurve.contains
    monkeypatch.setattr(
        EllipticCurve, "contains", lambda *args: calls.append(args) or contains(*args)
    )
    _, spec = _curve_code(1, 8, 3)
    n, k = spec.n, spec.degree
    affine = [p for p in ec_points(spec.curve) if not p.is_infinity]
    assert ec_sum(affine, spec.curve) == ec_sum(affine[::-1], spec.curve)
    for size in (n - k - 1, n - k):
        for combo in itertools.combinations(range(1, n + 1), size):
            target = min(set(range(1, n + 1)) - set(combo))
            classify_coalition(spec, combo, target)
    assert calls == []
    pt(spec.curve, *spec._pairs[0])
    assert len(calls) == 1
