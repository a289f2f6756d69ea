import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtag.codes import CoalitionSpec, LinearCode, rs_code
from subtag.errors import (
    DuplicatePoint,
    InvalidParams,
    RankDeficient,
    TargetInCoalition,
    TooLargeToEnumerate,
    TooLong,
)
from subtag.fields import BaseField, ExtField
from subtag.linalg import Matrix

from oracles import (
    brute_dual_words,
    brute_forgeable,
    brute_min_distance,
    brute_minimal_qualified,
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
    assert [[e.index for e in w] for w in words] == [[1, 0, 1], [1, 1, 0]]
    # every codeword through coordinate 2 is minimal too
    words2 = even_weight.minimal_codewords_wrt(2)
    assert [[e.index for e in w] for w in words2] == [[0, 1, 1], [1, 1, 0]]


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
    assert [e.index for e in witness] == [1, 1]
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


def test_mds_access_structure_is_threshold(e25):
    # RS [6,3]: any 3 of the other 5 columns reconstruct, never fewer
    code = rs_code(e25, list(range(6)), 3)
    expect = tuple(sorted(itertools.combinations((2, 3, 4, 5, 6), 3)))
    assert code.access_structure(1) == expect


def test_enumeration_guard(e125):
    code = rs_code(e125, list(range(5)), 4)  # 125^4 codewords
    with pytest.raises(TooLargeToEnumerate):
        list(code.codewords())
    with pytest.raises(TooLargeToEnumerate):
        code.min_distance()
    # explicit generous guard overrides are honored for the small dual
    assert code.dual().min_distance(guard=1 << 10) == 5


def test_zero_dual_of_full_code(f3):
    full = make_code(f3, [[1, 0], [0, 1]])
    assert full.dual().is_zero
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
                        recon[r] = f.add_idx(recon[r], f.mul_idx(lam.index, col[r]))
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
