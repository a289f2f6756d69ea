import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtag import codes
from subtag.cli import build_analyze_report
from subtag.codes import CoalitionSpec, LinearCode, rs_code
from subtag.ec import AGCodeSpec, EllipticCurve, ec_points, residue_code
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
from subtag.scheme import PublicParams

from conftest import random_full_rank
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

    monkeypatch.setattr(LinearCode, "codewords", counting)
    monkeypatch.setattr(LinearCode, "_circuits", searching)
    report = build_analyze_report(pp, spec, 1)
    assert words == []
    # one circuit search for the target, which the access structure reuses
    assert searches == [(True, 1, True), (True, 1, False)]
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
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append((self.nrows, self.ncols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    dual = code.dual()
    # the null basis is independent by construction: no rank check
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
