import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtag.errors import DimensionMismatch, FieldMismatch, InvalidParams
from subtag.fields import BaseField, ExtField, FieldElement
from subtag.linalg import Matrix, _echelon, _in_span, _span_witness, _walk, solve_all

from conftest import random_full_rank
from oracles import brute_dual_words, brute_solutions, matvec_idx, spanned_vectors
from test_api_frozen import ROOT, _names_read


def M5(rows, ncols=None):
    return Matrix.from_indices(BaseField(5), rows, ncols=ncols)


def test_matmul_frozen():
    a = M5([[1, 2], [3, 4]])
    b = M5([[0, 1], [2, 3]])
    assert (a @ b).to_index_rows() == ((4, 2), (3, 0))


def test_shape_errors():
    a = M5([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(FieldMismatch):
        a @ Matrix.from_indices(BaseField(3), [[1, 0], [0, 1]], ncols=2)


def test_element_and_index_matrices_agree():
    f = BaseField(5)
    rows = [[1, 2, 0], [4, 0, 3]]
    by_index = Matrix.from_indices(f, rows)
    by_element = Matrix(f, [[f.element(x) for x in r] for r in rows])
    assert by_index == by_element
    assert hash(by_index) == hash(by_element)
    assert by_index.to_index_rows() == by_element.to_index_rows() == ((1, 2, 0), (4, 0, 3))
    assert all(type(i) is int for r in by_element.to_index_rows() for i in r)
    assert by_index.to_index_rows()[1] == by_element.to_index_rows()[1] == (4, 0, 3)
    assert [r[2] for r in by_element.to_index_rows()] == [0, 3]
    assert by_index != Matrix.from_indices(BaseField(7), rows)
    assert by_index != Matrix.from_indices(f, [[1, 2, 0], [4, 0, 4]])


def test_constructor_checks_still_fire():
    f5, f3 = BaseField(5), BaseField(3)
    with pytest.raises(FieldMismatch):
        Matrix(f5, [[f5.one, f3.one]])
    with pytest.raises(FieldMismatch):
        Matrix(f5, [[1, 2]])  # indices are not elements
    for build in (Matrix.from_indices, lambda f, rows, **kw: Matrix(
        f, [[f.element(x) for x in r] for r in rows], **kw
    )):
        with pytest.raises(DimensionMismatch):
            build(f5, [[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            build(f5, [[1, 2]], ncols=3)
        with pytest.raises(DimensionMismatch):
            build(f5, [])
        assert build(f5, [], ncols=2).ncols == 2
    a = M5([[1, 2]])
    # the right-hand side must match a's row count and field
    with pytest.raises(DimensionMismatch):
        solve_all(a, M5([[1], [2]]))
    with pytest.raises(DimensionMismatch):
        solve_all(a, Matrix.from_indices(BaseField(3), [[1]]))


@pytest.mark.parametrize(
    "row, error",
    [([2.7, 1], FieldMismatch), (["3", 1], FieldMismatch), ([7, 1], InvalidParams)],
    ids=["float", "str", "out-of-range"],
)
def test_from_indices_checks_its_entries(row, error):
    # over GF(5) an entry is an int in 0..4: none is coerced or read past a table
    with pytest.raises(error):
        M5([[1, 0], row])


def test_linalg_does_no_vector_arithmetic_of_its_own():
    # every vector update is a Field.combine; only scalar pivot work reads
    # the field's index ops
    read = _names_read(ROOT / "src" / "subtag" / "linalg.py")
    assert "combine" in read
    assert read & {"add_idx", "sub_idx"} == set()


def test_index_rref_builds_no_elements(monkeypatch):
    a = M5([[0, 2, 1], [0, 4, 2], [1, 1, 1]])
    created = []
    original = FieldElement.__init__

    def counting(self, field, index):
        created.append(index)
        original(self, field, index)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    red, rank, _ = a.rref()
    solve_all(a @ a, a)
    assert rank == 2 and red.rank() == 2
    assert created == []
    # the rows come back as indices, still without an element
    assert red.to_index_rows() == ((1, 0, 3), (0, 1, 3), (0, 0, 0))
    assert created == []


def test_solve_all_runs_one_elimination(monkeypatch):
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append((self.nrows, self.ncols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    a = M5([[1, 2, 0, 3], [0, 1, 1, 2], [1, 3, 1, 0]])
    b = M5([[1, 0], [2, 1], [3, 1]])
    sol = solve_all(a, b)
    assert calls == [(3, 6)]
    # the null basis read off [a | b] is the one null_space gives for a
    assert sol.null_basis == a.null_space()
    assert solve_all(M5([[1, 1], [1, 1]]), M5([[0], [1]])) is None
    assert len(calls) == 3


def test_rref_frozen():
    a = M5([[0, 2, 1], [0, 4, 2], [1, 1, 1]])
    red, rank, pivots = a.rref()
    assert rank == 2
    assert pivots == (0, 1)
    # row order: (1,1,1) pivots first, then (0,2,1) scaled by 2^-1 = 3,
    # back-substituted into the first row
    assert red.to_index_rows() == ((1, 0, 3), (0, 1, 3), (0, 0, 0))


def test_rref_idempotent_and_span_preserving():
    rng = random.Random(11)
    f = BaseField(3)
    for _ in range(25):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        a = Matrix.from_indices(f, rows, ncols=4)
        red, rank, pivots = a.rref()
        again, rank2, pivots2 = red.rref()
        assert (again.to_index_rows(), rank2, pivots2) == (
            red.to_index_rows(),
            rank,
            pivots,
        )
        assert list(pivots) == sorted(pivots)
        # same row span, checked against full enumeration
        assert spanned_vectors(f, rows, 4) == spanned_vectors(
            f, [list(r) for r in red.to_index_rows()], 4
        )


def test_null_space_annihilates_and_counts():
    f = BaseField(3)
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        a = Matrix.from_indices(f, rows, ncols=4)
        basis = a.null_space()
        assert len(basis) == 4 - a.rank()
        for v in basis:
            col = Matrix.from_indices(f, ((x,) for x in v), ncols=1)
            assert not any(x for (x,) in (a @ col).to_index_rows())
        # dimension count agrees with direct enumeration of G v = 0
        assert 3 ** len(basis) == len(brute_dual_words(f, rows, 4))


def test_solve_all_against_enumeration():
    f = BaseField(3)
    rng = random.Random(17)
    for _ in range(30):
        arows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        bcol = [rng.randrange(3) for _ in range(3)]
        a = Matrix.from_indices(f, arows, ncols=3)
        b = Matrix.from_indices(f, [[x] for x in bcol], ncols=1)
        sol = solve_all(a, b)
        brute = brute_solutions(f, arows, bcol)
        if sol is None:
            assert brute == []
            continue
        assert f.order ** sol.nullity == len(brute)
        particular = [r[0] for r in sol.particular.to_index_rows()]
        got = {tuple(particular)}
        for coeffs in itertools.product(range(3), repeat=sol.nullity):
            vec = list(particular)
            for c, nb in zip(coeffs, sol.null_basis):
                for i in range(3):
                    vec[i] = f.add_idx(vec[i], f.mul_idx(c, nb[i]))
            got.add(tuple(vec))
        assert got == set(brute)


def test_solve_all_inconsistent():
    f = BaseField(2)
    a = Matrix.from_indices(f, [[1, 1], [1, 1]], ncols=2)
    b = Matrix.from_indices(f, [[0], [1]], ncols=1)
    assert solve_all(a, b) is None


def test_solve_all_null_basis_frozen_on_rank_deficient_system():
    # row 3 = row 1 + row 2, so rank 2 and two free unknowns
    a = M5([[1, 2, 0, 3], [0, 1, 1, 2], [1, 3, 1, 0]])
    b = M5([[1, 0], [2, 1], [3, 1]])
    sol = solve_all(a, b)
    assert sol.particular.to_index_rows() == ((2, 3), (2, 1), (0, 0), (0, 0))
    assert sol.null_basis == ((2, 4, 1, 0), (1, 3, 0, 1))


def test_span_witness_frozen():
    f = BaseField(5)
    gens = ((1, 2, 0), (0, 1, 1))
    # 2*(1,2,0) + 1*(0,1,1) = (2,4+1,1) = (2,0,1)
    assert _span_witness(f, gens, (2, 0, 1)) == (2, 1)
    assert _span_witness(f, gens, (0, 0, 1)) is None


def test_span_witness_empty_generators():
    f = BaseField(5)
    assert _span_witness(f, (), (0, 0)) == ()
    assert _span_witness(f, (), (1, 0)) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=4))
def test_span_witness_matches_enumeration(rows):
    f = BaseField(3)
    spanned = spanned_vectors(f, rows, 3)
    for vec in itertools.product(range(3), repeat=3):
        lam = _span_witness(f, rows, vec)
        assert (lam is not None) == (vec in spanned)
        if lam is not None:
            recon = [0, 0, 0]
            for c, g in zip(lam, rows):
                for i in range(3):
                    recon[i] = f.add_idx(recon[i], f.mul_idx(c, g[i]))
            assert tuple(recon) == vec


# one field per Field.combine path: byte lanes (GF(13) reduces after every
# term), the prime symbol loop, tabulated XOR, tabulated products with
# compiled digit sums, and the untabulated compiled products of
# characteristic 2 and of odd p
ECHELON_FIELDS = (
    BaseField(2),
    BaseField(13),
    BaseField(17),
    BaseField(2, 2),
    BaseField(3, 2),
    ExtField(BaseField(2, 8), 3),
    ExtField(BaseField(5), 7),
)


def combination(f, coeffs, vectors, width):
    """sum_k coeffs[k] * vectors[k] by the scalar oracle, not by
    Field.combine, which the code under test calls."""
    return matvec_idx(f, tuple(zip(*vectors)), coeffs) if vectors else (0,) * width


@st.composite
def rows_and_vectors(draw):
    """A field, a width, 0..4 rows (zero rows and zero entries likely) and
    three vectors: a random one, the zero vector, and a combination of the
    rows."""
    f = draw(st.sampled_from(ECHELON_FIELDS))
    width = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(0, f.order - 1))
    vector = st.lists(entry, min_size=width, max_size=width).map(tuple)
    rows = draw(st.lists(vector, max_size=4))
    coeffs = draw(st.lists(st.integers(0, f.order - 1), min_size=len(rows), max_size=len(rows)))
    combo = combination(f, coeffs, rows, width)
    return f, width, rows, (draw(vector), (0,) * width, combo)


@settings(max_examples=150, deadline=None)
@given(rows_and_vectors())
def test_echelon_is_rref_and_in_span_is_span_witness(case):
    f, width, rows, vectors = case
    reduced, _, pivots = Matrix.from_indices(f, rows, ncols=width).rref()
    basis = _echelon(f, tuple(rows), width)
    assert basis == (tuple(r for r in reduced.to_index_rows() if any(r)), pivots)
    rows_b = basis[0]
    for row, p in zip(rows_b, pivots):
        # reduced: 1 at its pivot, zero before it and at the other pivots, and
        # inside the rows' span by a witness the oracle checks
        assert not any(row[:p]) and [row[q] for q in pivots] == [int(q == p) for q in pivots]
        lam = _span_witness(f, rows, row)
        assert lam is not None and combination(f, lam, rows, width) == row

    def inside(v):
        # a reduced basis spans v exactly when v's pivot entries weight it to v
        return combination(f, [v[p] for p in pivots], rows_b, width) == tuple(v)

    assert all(inside(r) for r in rows)
    for v in vectors:
        assert _in_span(f, basis, v) == inside(v)
        lam = _span_witness(f, rows, v)
        assert (lam is not None) == inside(v)
        assert lam is None or combination(f, lam, rows, width) == tuple(v)
    assert _in_span(f, basis, (0,) * width)
    assert _in_span(f, basis, vectors[2])


@settings(max_examples=100, deadline=None)
@given(rows_and_vectors(), st.integers(0, 2))
def test_walk_visits_each_subset_with_its_span(case, which):
    f, width, columns, vectors = case
    target = vectors[which]
    seen = []

    def visit(members, basis, witness):
        seen.append(members)
        cols = [columns[j] for j in members]
        rank = Matrix.from_indices(f, cols, ncols=width).rank() if cols else 0
        assert len(basis[1]) == rank
        for v in (*columns, *vectors):
            assert _in_span(f, basis, v) == (_span_witness(f, cols, v) is not None)
        assert (witness is None) == (_span_witness(f, cols, target) is None)
        if witness is not None:
            assert combination(f, witness, cols, width) == tuple(target)
        return True

    _walk(f, columns, len(columns), visit, target)
    # every subset once, supersets after subsets, each size in combinations order
    by_size = [c for size in range(len(columns) + 1)
               for c in itertools.combinations(range(len(columns)), size)]
    assert sorted(seen, key=lambda c: (len(c), c)) == by_size
    assert seen == sorted(seen)


def test_walk_skips_the_supersets_visit_refuses():
    f = BaseField(5)
    columns = ((1, 0), (0, 1), (1, 1), (2, 3))
    seen = []

    def visit(members, basis, witness):
        seen.append(members)
        return 1 not in members

    _walk(f, columns, 3, visit)
    assert seen == [(), (0,), (0, 1), (0, 2), (0, 2, 3), (0, 3), (1,), (2,), (2, 3), (3,)]


def test_echelon_of_no_rows_spans_only_zero():
    f = BaseField(5)
    assert _echelon(f, (), 3) == ((), ())
    assert _in_span(f, ((), ()), (0, 0, 0))
    assert not _in_span(f, ((), ()), (0, 1, 0))


def test_random_full_rank_deterministic():
    f = BaseField(5)
    a = random_full_rank(3, 4, f, 99)
    b = random_full_rank(3, 4, f, 99)
    assert a.to_index_rows() == b.to_index_rows()
    assert a.rank() == 3
    assert random_full_rank(4, 2, f, 1).rank() == 2
