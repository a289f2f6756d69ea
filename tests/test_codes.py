import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtag import codes, linalg
from subtag.adversary import CoalitionView, label_distribution
from subtag.cli import build_analyze_report
from subtag.codes import CoalitionSpec, LinearCode, rs_code
from subtag.ec import AGCodeSpec, EllipticCurve, classify_coalition, ec_points, residue_code
from subtag.errors import (
    DuplicatePoint,
    FieldMismatch,
    InvalidParams,
    RankDeficient,
    TargetInCoalition,
    TooLargeToEnumerate,
    TooLong,
)
from subtag.fields import BaseField, ExtField, FieldElement
from subtag.linalg import Matrix, _span_witness, solve_all
from subtag.scheme import PublicParams, distribute, keygen

from conftest import count_eliminations, random_full_rank
from oracles import (
    brute_codewords,
    brute_dual_words,
    brute_forgeable,
    brute_min_distance,
    brute_minimal_qualified,
    brute_minimal_words,
    reference_field,
)


def make_code(field, rows):
    return LinearCode(Matrix.from_indices(field, rows, ncols=len(rows[0])))


@pytest.fixture(scope="module")
def even_weight(f2):
    # [3,2] binary even-weight code; its dual is the repetition code
    return make_code(f2, [[1, 1, 0], [1, 0, 1]])


def test_coalition_spec_validation():
    with pytest.raises(TargetInCoalition):
        CoalitionSpec(frozenset({1, 2}), 2)
    spec = CoalitionSpec(frozenset({3, 1}), 2)
    assert spec.sorted_members == (1, 3)


@pytest.mark.parametrize(
    "members, target",
    [
        ({1.7}, 8),
        ({1.0, 2}, 8),
        ({"1"}, 8),
        ({True}, 8),
        ({1}, 8.0),
        ({1}, False),
        ([2, 1.5], 3),
    ],
)
def test_coalition_spec_refuses_coordinates_that_are_not_ints(members, target):
    # an int() conversion would store member 1 for 1.7 and answer for a
    # coalition nobody asked about
    with pytest.raises(InvalidParams, match="is not an int"):
        CoalitionSpec(frozenset(members), target)


@pytest.mark.parametrize("coordinate", [1.5, 3.0, True, "1"], ids=repr)
def test_coordinates_that_are_not_ints_are_refused(coordinate, f5, rs_pp):
    # True would answer for coordinate 1, and a float would reach an index
    code = rs_code(f5, range(4), 2)
    with pytest.raises(InvalidParams, match="is not an int"):
        code.access_structure(coordinate)
    with pytest.raises(InvalidParams, match="is not an int"):
        code.minimal_codewords_wrt(coordinate)
    with pytest.raises(InvalidParams, match="is not an int"):
        rs_pp.generator_indices(coordinate)
    vks = distribute(rs_pp, keygen(rs_pp, 3))
    view = CoalitionView.build(rs_pp, {2: vks[1]})
    with pytest.raises(InvalidParams, match="is not an int"):
        label_distribution(view, coordinate, (0, 0, 1))


def test_dimensions_that_are_not_ints_are_refused(f5):
    # True would build a [4,1] code, and 2.0 would reach a range()
    for kdim in (2.0, True):
        with pytest.raises(InvalidParams, match="is not an int"):
            rs_code(f5, range(4), kdim)
    spec = _residue_spec(1, 0, 6, 2)
    for degree in (2.0, True):
        with pytest.raises(InvalidParams, match="is not an int"):
            AGCodeSpec(spec.curve, spec.points, degree)


def test_rank_deficient_generator_rejected(f2):
    with pytest.raises(RankDeficient):
        make_code(f2, [[1, 1, 0], [1, 1, 0]])


def test_even_weight_code_frozen(even_weight):
    c = even_weight
    assert (c.length, c.kdim) == (3, 2)
    assert c.min_distance() == 2
    assert sorted(c.codewords()) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    d = c.dual()
    assert (d.length, d.kdim) == (3, 1)
    assert sorted(d.codewords()) == [(0, 0, 0), (1, 1, 1)]
    assert d.min_distance() == 3


def test_minimal_codewords_frozen(even_weight):
    words = even_weight.minimal_codewords_wrt(1)
    assert words == ((1, 0, 1), (1, 1, 0))
    # every codeword through coordinate 2 is minimal too
    words2 = even_weight.minimal_codewords_wrt(2)
    assert words2 == ((0, 1, 1), (1, 1, 0))


def test_access_structure_frozen(even_weight):
    # dual is the repetition code: the only access set for 1 is {2,3}
    assert even_weight.access_structure(1) == ((2, 3),)
    # the repetition code itself: every single other coordinate suffices
    rep = even_weight.dual()
    assert rep.access_structure(1) == ((2,), (3,))
    assert rep.access_structure(3) == ((1,), (2,))


def test_forgeable_follows_column_span(even_weight):
    # columns of the even-weight generator: g1=(1,1), g2=(1,0), g3=(0,1)
    ok, witness = even_weight.forgeable(CoalitionSpec(frozenset({2, 3}), 1))
    assert ok
    assert witness == (1, 1)
    ok2, w2 = even_weight.forgeable(CoalitionSpec(frozenset({2}), 1))
    assert not ok2 and w2 is None
    # empty coalition never forges in a code with nonzero columns
    ok3, _ = even_weight.forgeable(CoalitionSpec(frozenset(), 1))
    assert not ok3


def test_rs_generator_frozen(f5):
    e5 = ExtField(f5, 1)
    code = rs_code(e5, [0, 1, 2, 3], 3)
    # rows are point^(t-1) with 0^0 = 1
    assert code.generator.to_index_rows() == (
        (1, 1, 1, 1),
        (0, 1, 2, 3),
        (0, 1, 4, 4),
    )


def test_rs_code_is_mds(e4, e25):
    for ext, V, k in ((e4, 4, 2), (e25, 6, 3)):
        code = rs_code(ext, list(range(V)), k)
        assert code.min_distance() == V - k + 1
        assert code.dual().min_distance() == k + 1


def test_rs_code_input_checks(e4):
    with pytest.raises(TooLong):
        rs_code(e4, [0, 1, 2, 3, 0], 2)
    with pytest.raises(DuplicatePoint):
        rs_code(e4, [0, 1, 1], 2)
    with pytest.raises(InvalidParams):
        rs_code(e4, [0, 1, 2], 0)
    with pytest.raises(InvalidParams):
        rs_code(e4, [0, 1, 2], 4)
    # points are indices of the code's field, not its elements
    for points, error in (
        ([0, 4], InvalidParams),
        ([0, -1], InvalidParams),
        ([0, 1.0], FieldMismatch),
        ([e4.zero, e4.one], FieldMismatch),
    ):
        with pytest.raises(error):
            rs_code(e4, points, 2)


def test_mds_access_structure_is_threshold(e25):
    # RS [6,3]: any 3 of the other 5 columns reconstruct, never fewer
    code = rs_code(e25, list(range(6)), 3)
    expect = tuple(sorted(itertools.combinations((2, 3, 4, 5, 6), 3)))
    assert code.access_structure(1) == expect


def test_enumeration_guard(e125, monkeypatch):
    code = rs_code(e125, list(range(5)), 4)  # 125^4 codewords
    with pytest.raises(TooLargeToEnumerate):
        list(code.codewords())
    # distances come from column subsets, not words: 5 singletons suffice
    assert code.min_distance() == 2
    assert code.dual().min_distance() == 5
    # RS[60,30] over F_61: the distance search could visit about 2^59
    # column subsets, so it refuses before testing any of them
    big = rs_code(BaseField(61), range(60), 30)
    with pytest.raises(TooLargeToEnumerate, match=r"column subsets exceed the guard 16777216$"):
        big.min_distance()
    with pytest.raises(TooLargeToEnumerate):
        big.access_structure(1)
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 14)
    # access at 1 on the dual of RS[5,4]: subsets of size <= 1 of the 4 others
    assert len(code.dual().access_structure(1)) == 4
    with pytest.raises(TooLargeToEnumerate, match=r"^16 column subsets exceed the guard 14$"):
        code.access_structure(1)  # sizes 0..4 of the 4 others


def test_min_distance_memo_still_honors_the_guard(f5, monkeypatch):
    code = rs_code(f5, range(4), 2)  # sizes 1..2 of 4 parity-check columns
    assert code.min_distance() == 3
    # a memoized answer must not bypass a guard that a fresh code enforces
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 9)
    with pytest.raises(TooLargeToEnumerate, match=r"^10 column subsets"):
        code.min_distance()
    with pytest.raises(TooLargeToEnumerate):
        rs_code(f5, range(4), 2).min_distance()
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 10)
    assert code.min_distance() == 3


def test_zero_dual_of_full_code(f3):
    full = make_code(f3, [[1, 0], [0, 1]])
    assert full.dual().is_zero
    assert full.columns == ((1, 0), (0, 1))
    assert full.dual().columns == ((), ())
    # circuits are defined on both sides: no column spans another, and the
    # empty set spans the zero code's (empty) columns
    assert full.access_structure(1) == ()
    assert full.minimal_codewords_wrt(1) == ((1, 0),)
    assert full.dual().access_structure(1) == ((),)
    # the survey behind the first answer leaves the zero code's distance refused
    with pytest.raises(InvalidParams):
        full.dual().min_distance()


def test_min_distance_matches_enumeration():
    rng = random.Random(23)
    f = BaseField(3)
    for _ in range(15):
        while True:
            rows = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
            if Matrix.from_indices(f, rows, ncols=4).rank() == 2:
                break
        code = make_code(f, rows)
        assert code.min_distance() == brute_min_distance(f, rows, 4)


def test_dual_words_match_enumeration(f2):
    rows = [[1, 1, 0, 1], [0, 1, 1, 1]]
    code = make_code(f2, rows)
    assert sorted(code.dual().codewords()) == sorted(brute_dual_words(f2, rows, 4))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_forgeability_both_routes_and_monotone(seed):
    rng = random.Random(seed)
    q = rng.choice((2, 3))
    f = BaseField(q)
    V = rng.randrange(3, 6)
    k = rng.randrange(1, min(V, 4))
    while True:
        rows = [[rng.randrange(q) for _ in range(V)] for _ in range(k)]
        if Matrix.from_indices(f, rows, ncols=V).rank() == k:
            break
    code = make_code(f, rows)
    target = rng.randrange(1, V + 1)
    others = [i for i in range(1, V + 1) if i != target]
    verdicts = {}
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            spec = CoalitionSpec(frozenset(combo), target)
            ok, witness = code.forgeable(spec)
            assert ok == brute_forgeable(f, rows, V, combo, target)
            verdicts[frozenset(combo)] = ok
            if ok and witness is not None:
                recon = [0] * k
                for lam, j in zip(witness, spec.sorted_members):
                    col = [rows[r][j - 1] for r in range(k)]
                    for r in range(k):
                        recon[r] = f.add_idx(recon[r], f.mul_idx(lam, col[r]))
                assert recon == [rows[r][target - 1] for r in range(k)]
    # forging power only grows with the coalition
    for a, ok_a in verdicts.items():
        if ok_a:
            for b, ok_b in verdicts.items():
                if a <= b:
                    assert ok_b


def test_access_structure_matches_enumeration():
    rng = random.Random(31)
    for q, V, k in ((2, 5, 2), (3, 4, 2), (2, 5, 3)):
        f = BaseField(q)
        while True:
            rows = [[rng.randrange(q) for _ in range(V)] for _ in range(k)]
            if Matrix.from_indices(f, rows, ncols=V).rank() == k:
                break
        code = make_code(f, rows)
        for target in range(1, V + 1):
            got = {frozenset(s) for s in code.access_structure(target)}
            want = set(brute_minimal_qualified(f, rows, V, target))
            assert got == want, (q, V, k, target, rows)


def _weight(words) -> int:
    return min(sum(1 for x in w if x) for w in words if any(w))


def test_circuits_match_brute_force_on_random_codes():
    # (field, longest code): each brute-force dual has at most ~6561 words
    fields = [
        (BaseField(2), 7),
        (BaseField(3), 5),
        (BaseField(5), 4),
        (BaseField(2, 2), 5),
        (BaseField(3, 2), 4),
    ]
    rng = random.Random(1201)
    pairs = 0
    while pairs < 1000:
        f, longest = fields[rng.randrange(len(fields))]
        V = rng.randint(2, longest)
        rows = random_full_rank(rng.randint(1, V), V, f, rng).to_index_rows()
        code = make_code(f, rows)
        # a second copy whose dual is found by elimination, not by the link
        fresh = make_code(f, rows)
        dual_words = brute_dual_words(f, rows, V)
        words = brute_codewords(f, rows, V)
        assert code.min_distance() == _weight(words)
        if len(rows) < V:
            assert code.dual().min_distance() == _weight(dual_words)
        for i in range(1, V + 1):
            qualified = brute_minimal_qualified(f, rows, V, i, dual_words)
            want = tuple(sorted(tuple(sorted(s)) for s in qualified))
            assert code.access_structure(i) == want, (f, rows, i)
            assert list(code.dual().minimal_codewords_wrt(i)) == brute_minimal_words(dual_words, i)
            assert list(fresh.minimal_codewords_wrt(i)) == brute_minimal_words(words, i)
            pairs += 1


# -- the depth-first subset walk against one elimination per subset ---------------


def _per_subset_min_distance(code):
    """Smallest dependent set of parity-check columns, one span test per
    subset in increasing size."""
    top = code.length - code.kdim
    dependent = (
        len(combo)
        for size in range(1, top + 1)
        for combo in itertools.combinations(code.dual().columns, size)
        if _span_witness(code.field, combo[:-1], combo[-1]) is not None
    )
    return next(dependent, top + 1)


def _per_subset_circuits(code, i):
    """Circuits through i, one span witness per subset of the other
    coordinates in increasing size: a set is kept when its witness has no
    zero entry."""
    cols = code.columns
    others = [j for j in range(1, code.length + 1) if j != i]
    found = []
    for size in range(code.kdim + 1):
        for members in itertools.combinations(others, size):
            witness = _span_witness(code.field, [cols[j - 1] for j in members], cols[i - 1])
            if witness is not None and all(witness):
                found.append((members, witness))
    return tuple(found)


def _assert_walk_matches_per_subset(code):
    for c in (code, code.dual()):
        if not c.is_zero:
            assert c.min_distance() == _per_subset_min_distance(c), c
        for i in range(1, c.length + 1):
            assert c._circuits(i) == _per_subset_circuits(c, i), (c, i)


SMALL_FIELDS = (BaseField(2), BaseField(3), BaseField(5), BaseField(2, 2), BaseField(3, 2))


@st.composite
def small_codes(draw):
    """Full-rank codes whose columns are often zero or repeat an earlier
    column up to a scalar, so dependent and rank-deficient subsets abound."""
    f = draw(st.sampled_from(SMALL_FIELDS))
    kdim = draw(st.integers(1, 3))
    length = draw(st.integers(kdim, 7))
    entry = st.integers(0, f.order - 1)
    columns = []
    for _ in range(length):
        kind = draw(st.sampled_from(("zero", "copy", "fresh")))
        if kind == "zero":
            columns.append((0,) * kdim)
        elif kind == "copy" and columns:
            c = draw(st.integers(1, f.order - 1))
            columns.append(tuple(f.mul_idx(c, x) for x in draw(st.sampled_from(columns))))
        else:
            columns.append(tuple(draw(entry) for _ in range(kdim)))
    rows = tuple(zip(*columns))
    assume(Matrix.from_indices(f, rows, ncols=length).rank() == kdim)
    return make_code(f, rows)


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_walk_matches_the_per_subset_searches(code):
    _assert_walk_matches_per_subset(code)


@pytest.mark.parametrize("shape", ((1, 8, 2), (1, 8, 3), (2, 6, 3)))
def test_walk_matches_the_per_subset_searches_on_the_access_codes(shape):
    l, size, degree = shape
    ext = ExtField(BaseField(5), l)
    curve = EllipticCurve(ext, ext.one, ext.one)
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    _assert_walk_matches_per_subset(residue_code(AGCodeSpec(curve, tuple(affine[:size]), degree)))


# -- the one survey walk against the per-subset searches and brute force ----------


def _random_columns(rng, f, kdim, length):
    """A full-rank generator whose columns are zero about a fifth of the time."""
    while True:
        columns = [
            (0,) * kdim if rng.random() < 0.2 else tuple(rng.randrange(f.order) for _ in range(kdim))
            for _ in range(length)
        ]
        rows = tuple(zip(*columns))
        if Matrix.from_indices(f, rows, ncols=length).rank() == kdim:
            return rows


def test_survey_matches_the_per_subset_searches_and_brute_force():
    fields = [(BaseField(2), 7), (BaseField(3), 5), (BaseField(5), 4), (BaseField(2, 2), 5)]
    rng = random.Random(3407)
    pairs = zero_columns = zero_duals = 0
    while pairs < 400:
        f, longest = fields[rng.randrange(len(fields))]
        V = rng.randint(2, longest)
        rows = _random_columns(rng, f, rng.randint(1, V), V)
        zero_columns += any(not any(c) for c in zip(*rows))
        if len(rows) == V:
            # a zero dual: the survey finds the circuits, none here, and the
            # dual's distance stays refused
            full = make_code(f, rows)
            for i in range(1, V + 1):
                assert full._survey(i) == {}
                assert full._circuit_memo[i] == _per_subset_circuits(full, i) == ()
            with pytest.raises(InvalidParams, match="zero code is undefined"):
                full.dual().min_distance()
            zero_duals += 1
            continue
        words = brute_codewords(f, rows, V)
        dual_words = brute_dual_words(f, rows, V)
        for i in range(1, V + 1):
            # fresh objects: no answer comes from another survey's memo
            surveyed, unpruned = make_code(f, rows), make_code(f, rows)
            assert surveyed._survey(i) == {}
            kept = unpruned._survey(i, 0)
            dual = surveyed.dual()
            want = brute_min_distance(f, dual.generator.to_index_rows(), V)
            assert dual._dmin == unpruned.dual()._dmin == _per_subset_min_distance(dual) == want
            circuits = _per_subset_circuits(surveyed, i)
            assert surveyed._circuit_memo[i] == unpruned._circuit_memo[i] == circuits
            assert list(dual.minimal_codewords_wrt(i)) == brute_minimal_words(dual_words, i)
            # with keep, every subset of at most kdim columns, with its rank
            cols = surveyed.columns
            # (a tuple sort is the depth-first order: each subset before its supersets)
            assert list(kept) == sorted(
                m for size in range(len(rows) + 1) for m in itertools.combinations(range(V), size)
            )
            for members, (basis_rows, _) in kept.items():
                if members:
                    gens = Matrix.from_indices(f, [cols[j] for j in members], ncols=len(rows))
                    assert len(basis_rows) == gens.rank(), (rows, members)
            # the survey leaves the dual's own circuit search to its dual
            assert list(surveyed.minimal_codewords_wrt(i)) == brute_minimal_words(list(words), i)
            pairs += 1
    assert zero_columns and zero_duals


def _residue_spec(l, start, size, degree):
    ext = ExtField(BaseField(5), l)
    curve = EllipticCurve(ext, ext.one, ext.one)
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    return AGCodeSpec(curve, tuple(affine[start:start + size]), degree)


# (extension degree over GF(5), first support point, support size, degree)
RESIDUE_SHAPES = (
    (1, 0, 5, 1), (1, 3, 5, 2), (1, 0, 6, 3), (1, 2, 6, 4), (1, 0, 7, 2),
    (1, 1, 7, 5), (1, 0, 8, 1), (2, 0, 5, 2), (2, 7, 6, 2), (2, 13, 7, 3), (2, 19, 7, 4),
)


@pytest.mark.parametrize("shape", RESIDUE_SHAPES, ids=str)
def test_ec_table_rows_match_the_classifier_and_the_span(shape):
    spec = _residue_spec(*shape)
    n, k = spec.n, spec.degree
    pp = PublicParams(base=BaseField(5), ext=spec.curve.field, n=shape[0], M=shape[0],
                      code=residue_code(spec))
    for target in (1, n):
        table = build_analyze_report(pp, spec, target)["ec_table"]
        want = []
        for size in (n - k - 1, n - k):
            for combo in itertools.combinations(range(1, n + 1), size):
                for tgt in (t for t in range(1, n + 1) if t not in combo):
                    cls = classify_coalition(spec, combo, tgt)
                    span = pp.code.forgeable(CoalitionSpec(frozenset(combo), tgt))[0]
                    assert cls.against(tgt) == span, (shape, combo, tgt)
                    want.append([list(combo), tgt, cls.kind.value, span, True])
        assert [list(row.values()) for row in table] == want


def test_analyze_walks_once_per_report(monkeypatch, f5):
    walks = []
    walk = codes._walk
    monkeypatch.setattr(codes, "_walk", lambda *args: walks.append(args) or walk(*args))
    spec = _residue_spec(1, 0, 8, 3)
    for curve_spec in (None, spec):
        for target in (1, 8):
            pp = PublicParams(base=f5, ext=spec.curve.field, n=1, M=1, code=residue_code(spec))
            walks.clear()
            report = build_analyze_report(pp, curve_spec, target)
            assert len(walks) == 1, (curve_spec, target)
            assert ("ec_table" in report) == (curve_spec is not None)
    ext = ExtField(f5, 1)
    pp = PublicParams(base=f5, ext=ext, n=1, M=1, code=rs_code(ext, range(5), 2))
    walks.clear()
    build_analyze_report(pp, None, 3)
    assert len(walks) == 1
    # a second report on the same code and target reads the memos
    build_analyze_report(pp, None, 3)
    assert len(walks) == 1


def test_a_standalone_question_walks_once(monkeypatch, f5):
    walks = []
    walk = codes._walk
    monkeypatch.setattr(codes, "_walk", lambda *args: walks.append(args) or walk(*args))
    code, fresh = rs_code(f5, range(5), 2), rs_code(f5, range(5), 2)
    # RS[5,2]: any 2 of the 4 other columns reconstruct column 3
    access = tuple(itertools.combinations((1, 2, 4, 5), 2))
    assert code.access_structure(3) == access
    assert len(walks) == 1
    # the same walk found the dual's distance, and a repeat reads the memo
    assert code.dual().min_distance() == 3
    assert code.access_structure(3) == access
    assert len(walks) == 1
    walks.clear()
    assert fresh.dual().min_distance() == 3
    assert len(walks) == 1
    assert fresh.dual().min_distance() == 3
    assert len(walks) == 1


def test_analyze_reports_past_the_codeword_guard():
    # RS[12,4] over GF(2^8)^3 has 2^192 codewords; its report needs only
    # column subsets of size at most 4
    base = BaseField(2, 8)
    ext = ExtField(base, 3)
    pp = PublicParams(base=base, ext=ext, n=2, M=3, code=rs_code(ext, range(12), 4))
    report = build_analyze_report(pp, None, 1)
    assert (report["dual_distance"], report["mds"]) == (5, True)
    # any 4 of the 11 other columns, C(11, 4) = 330 sets
    assert report["access_structure"] == [list(s) for s in itertools.combinations(range(2, 13), 4)]
    assert len(report["minimal_dual_codewords"]) == 330


def test_forgeable_enumerates_no_codewords(monkeypatch, f5):
    # RS[4,2] over F_5: a 25-word dual, small enough that a dual-support
    # cross-check could afford to enumerate it on every call
    code = rs_code(f5, range(4), 2)
    seen = []
    original = LinearCode.codewords

    def counting(self, *args, **kwargs):
        for word in original(self, *args, **kwargs):
            seen.append(word)
            yield word

    monkeypatch.setattr(LinearCode, "codewords", counting)
    verdicts = [
        code.forgeable(CoalitionSpec(frozenset(members), 4))[0]
        for members in ([1], [1, 2], [2, 3])
    ]
    assert verdicts == [False, True, True]
    assert seen == []
    assert len(list(code.dual().codewords())) == len(seen) == 25


def _product_order_words(field, rows, ncols):
    """Codewords in itertools.product order, from the reference arithmetic."""
    ref = reference_field(field)
    words = []
    for msg in itertools.product(range(field.order), repeat=len(rows)):
        word = [0] * ncols
        for m, row in zip(msg, rows):
            for c, g in enumerate(row):
                word[c] = ref.add(word[c], ref.mul(m, g))
        words.append(tuple(word))
    return words


def test_codewords_order_matches_reference(f5, e25, f4, monkeypatch):
    e16 = ExtField(f4, 2)
    codes = [
        rs_code(f5, range(4), 1),  # kdim 1; its dual has kdim 3
        rs_code(f5, range(4), 2),
        make_code(f5, [[1, 0, 2, 0, 4], [0, 3, 0, 1, 1], [2, 2, 0, 0, 1]]),
        rs_code(e25, range(4), 2),
        rs_code(BaseField(2, 3), range(6), 3),
        rs_code(e16, range(4), 2),
    ]
    for code in codes:
        for c in (code, code.dual()):
            want = _product_order_words(c.field, c.generator.to_index_rows(), c.length)
            assert list(c.codewords()) == want, c
    # the dual of a full-rank code has kdim 0 and exactly one word
    zero = make_code(f5, [[1, 0], [0, 1]]).dual()
    assert zero.kdim == 0
    assert list(zero.codewords()) == [(0, 0)] == _product_order_words(f5, [], 2)
    small = rs_code(e25, range(4), 2)
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 624)
    with pytest.raises(TooLargeToEnumerate):
        list(small.codewords())
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 625)
    assert len(list(small.codewords())) == 625


def test_analyze_enumerates_no_codewords(monkeypatch, f5):
    ext = ExtField(f5, 1)
    curve = EllipticCurve(ext, ext.one, ext.one)
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    spec = AGCodeSpec(curve, tuple(affine[:8]), 2)
    pp = PublicParams(base=f5, ext=ext, n=1, M=1, code=residue_code(spec))
    words, searches = [], []
    original = LinearCode.codewords
    circuits = LinearCode._circuits

    def counting(self, *args, **kwargs):
        words.append(self)
        return original(self, *args, **kwargs)

    def searching(self, i):
        searches.append((self is pp.code, i, i not in self._circuit_memo))
        return circuits(self, i)

    walks = []
    walk = codes._walk
    monkeypatch.setattr(codes, "_walk", lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(LinearCode, "codewords", counting)
    monkeypatch.setattr(LinearCode, "_circuits", searching)
    report = build_analyze_report(pp, spec, 1)
    assert words == []
    # the survey's one walk fills the memo that both circuit reads hit
    assert len(walks) == 1
    assert searches == [(True, 1, False), (True, 1, False)]
    supports = {
        tuple(c + 1 for c, v in enumerate(w) if any(v) and c != 0)
        for w in report["minimal_dual_codewords"]
    }
    assert sorted(map(tuple, report["access_structure"])) == sorted(supports)


def test_forgeable_computes_no_null_space(monkeypatch, f5):
    code = rs_code(f5, range(4), 2)
    calls = []
    original = Matrix.null_space

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "null_space", counting)
    verdicts = [
        code.forgeable(CoalitionSpec(frozenset(members), 4))[0]
        for members in ([1], [1, 2], [2, 3], [])
    ]
    assert verdicts == [False, True, True, False]
    assert calls == []


def test_dual_runs_one_elimination(monkeypatch):
    code = rs_code(ExtField(BaseField(5), 3), range(6), 3)
    again = rs_code(code.field, range(6), 3)
    calls = count_eliminations(monkeypatch)
    dual = code.dual()
    # the code's rank check eliminated its generator, and the dual reads
    # that cached elimination; the null basis is independent by
    # construction: no rank check
    assert calls == []
    # a generator not eliminated yet is eliminated exactly once
    linalg._echelon.cache_clear()  # as if its rank check had not run
    assert again.dual().generator == dual.generator
    assert calls == [(3, 6)]
    assert (dual.length, dual.kdim, dual.generator.rank()) == (6, 3, 3)
    f = code.field
    rows = code.generator.to_index_rows()
    assert all(f.dot(g, h) == 0 for g in rows for h in dual.generator.to_index_rows())


def test_minimal_codewords_memo_keeps_the_checks(f5, monkeypatch):
    code = rs_code(f5, range(4), 2)
    first = code.minimal_codewords_wrt(1)
    spans = []
    original = codes._walk

    def counting(*args):
        spans.append(args)
        return original(*args)

    monkeypatch.setattr(codes, "_walk", counting)
    # the circuits through 1 are memoized: no subset search runs again
    assert code.minimal_codewords_wrt(1) == first
    assert spans == []
    with monkeypatch.context() as m:
        # circuits of the [4,2] dual: sizes 0..2 of 3 other columns, 7 subsets
        m.setattr("subtag.codes.ENUM_GUARD", 6)
        with pytest.raises(TooLargeToEnumerate):
            code.minimal_codewords_wrt(1)
    with pytest.raises(InvalidParams):
        code.minimal_codewords_wrt(5)
    assert code.minimal_codewords_wrt(2) != first
    assert spans


def test_index_results_build_no_elements(monkeypatch, f5):
    # duals, solutions, witnesses and minimal words are index tuples
    code = rs_code(f5, range(5), 2)
    a = Matrix.from_indices(f5, [[1, 2, 0, 3], [0, 1, 1, 2], [1, 3, 1, 0]], ncols=4)
    b = Matrix.from_indices(f5, [[1], [2], [3]], ncols=1)
    created = []
    original = FieldElement.__init__

    def counting(self, field, index):
        created.append(index)
        original(self, field, index)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    dual = code.dual()
    sol = solve_all(a, b)
    ok, witness = code.forgeable(CoalitionSpec(frozenset({1, 2}), 3))
    words = dual.minimal_codewords_wrt(1)
    assert created == []
    assert (dual.length, dual.kdim, sol.nullity, ok) == (5, 3, 2, True)
    assert all(type(v) is int for vec in (*sol.null_basis, witness, *words) for v in vec)
