"""Exact linear algebra over the package's finite fields.

Everything here is small and dense: verification keys have a handful of
rows and attack systems a few dozen, so plain Gaussian elimination with
first-nonzero pivoting is both fast enough and, importantly for
reproducibility, deterministic.

A Matrix stores rows of field indices, read with ``to_index_rows``.
Products and elimination never build FieldElement, and every vector this
module hands back (null bases, span witnesses) is a tuple of indices;
only the ``Matrix(...)`` constructor takes FieldElement.  The module does
no vector arithmetic of its own: a product is one ``Field._mix`` call
over the rows of its left factor, every row operation of elimination,
span tests and subset walks is one ``Field.combine``, and only scalar
pivot work (inverses, quotients, negation, pivot factors) calls the
field's index ops.  A matrix keeps its elimination, so ``rank`` and
``null_space`` eliminate it at most once.  Each question
is answered by one elimination: a system a @ X = b is solved by reducing
the rows of a joined to the rows of b, and ``solve_all`` reads the
particular solution and the null basis off that one reduced [A | b].

A span asked about many times is reduced once, by ``_echelon``, and
``_in_span`` tests vectors against that basis: views and sinks reduce
against a stored basis only through these two.  ``_echelon`` keeps its
bases by value, so the same rows, from any caller, are eliminated once:
a rank check and the basis it checked, or one source basis compared at
every sink.  Searches over column
subsets (distances, circuits, the ``analyze`` table) use ``_walk``: a
depth-first walk in which each subset's semi-echelon basis extends its
prefix's by one reduced column, which ``_in_span`` also reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

from .errors import DimensionMismatch, FieldMismatch
from .fields import BaseField, ExtField, FieldElement

__all__ = [
    "Matrix",
    "LinearSolution",
    "solve_all",
]

AnyField = Union[BaseField, ExtField]
IndexRows = tuple[tuple[int, ...], ...]


class Matrix:
    """Immutable dense matrix over one field, stored as rows of indices;
    products and elimination read and write index rows only."""

    __slots__ = ("field", "_rows", "nrows", "ncols", "_rref")

    def __init__(self, field: AnyField, rows, ncols: int | None = None):
        idx_rows = []
        for r in rows:
            out = []
            for e in r:
                if not isinstance(e, FieldElement) or (
                    e.field is not field and e.field != field
                ):
                    raise FieldMismatch("entry does not belong to the matrix field")
                out.append(e.index)
            idx_rows.append(tuple(out))
        self._set(field, tuple(idx_rows), ncols)

    def _set(self, field: AnyField, rows: IndexRows, ncols: int | None) -> None:
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatch(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.field = field
        self._rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._rref = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_indices(cls, field: AnyField, idx_rows, ncols: int | None = None) -> "Matrix":
        """Rows of indices of ``field``; a non-int entry raises
        FieldMismatch and one out of range InvalidParams."""
        m = cls.__new__(cls)
        m._set(field, tuple(map(field._symbols, idx_rows)), ncols)
        return m

    @classmethod
    def _of(cls, field: AnyField, rows: IndexRows, ncols: int) -> "Matrix":
        """Wrap index rows the package built itself, a tuple of equal-width
        tuples of reduced indices; no checks, no copy."""
        m = cls.__new__(cls)
        m.field, m._rows, m.nrows, m.ncols, m._rref = field, rows, len(rows), ncols, None
        return m

    def to_index_rows(self) -> IndexRows:
        return self._rows

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if other.field != self.field:
            raise FieldMismatch("matrix product across different fields")
        if other.nrows != self.ncols:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        # row i of the product is row i of self weighting the rows of other
        rows = self.field._mix(self._rows, other._rows, other.ncols)
        return Matrix._of(self.field, rows, other.ncols)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form.

        Pivoting is "first nonzero": in each column the topmost unused row
        with a nonzero entry becomes the pivot, which makes the output a
        canonical form for the row space.  The matrix keeps the result for
        ``_reduced``.
        """
        f = self.field
        combine, neg, inv = f.combine, f.neg_idx, f.inv_idx
        work = list(self._rows)
        ncols = self.ncols
        pivots = []
        rank = 0
        for col in range(ncols):
            piv = next((r for r in range(rank, self.nrows) if work[r][col]), None)
            if piv is None:
                continue
            prow = combine((inv(work[piv][col]),), (work[piv],), ncols)
            work[piv], work[rank] = work[rank], prow
            for r in range(self.nrows):
                c = work[r][col]
                if c and r != rank:
                    work[r] = combine((1, neg(c)), (work[r], prow), ncols)
            pivots.append(col)
            rank += 1
            if rank == self.nrows:
                break
        self._rref = (Matrix._of(f, tuple(work), ncols), rank, tuple(pivots))
        return self._rref

    def _reduced(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """``rref()``, from the elimination the matrix kept if it has one.
        A matrix is immutable, so ``rank`` and ``null_space`` eliminate it
        at most once: a code's rank check, its dual and the params'
        dual-column check share one elimination of the generator."""
        return self._rref or self.rref()

    def rank(self) -> int:
        return self._reduced()[1]

    def null_space(self) -> IndexRows:
        """Basis of {x : self @ x = 0} as index tuples, one per free column."""
        reduced, _, pivots = self._reduced()
        return _null_basis(self.field, reduced.to_index_rows(), pivots, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.ncols == self.ncols
            and other._rows == self._rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self):
        body = "; ".join("[" + " ".join(map(str, r)) + "]" for r in self._rows)
        return f"Matrix<{self.nrows}x{self.ncols} over {self.field.name}>({body})"


@dataclass(frozen=True)
class LinearSolution:
    """Full affine solution set of a @ X = b, described column by column.

    Every solution of column j is column j of ``particular`` plus a linear
    combination of ``null_basis``; the set has size order**nullity per
    column.  The null basis vectors are index tuples.
    """

    particular: Matrix
    null_basis: IndexRows

    @property
    def nullity(self) -> int:
        return len(self.null_basis)


def _null_basis(
    field: AnyField, red: IndexRows, pivots: Sequence[int], width: int
) -> IndexRows:
    """Null basis of a matrix whose rref (first ``width`` columns) is ``red``."""
    neg = field.neg_idx
    pivot_set = set(pivots)
    basis = []
    for fc in range(width):
        if fc in pivot_set:
            continue
        vec = [0] * width
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = neg(red[r][fc])
        basis.append(tuple(vec))
    return tuple(basis)


def _particular(
    a: Matrix, b: Matrix
) -> tuple[list[tuple[int, ...]] | None, IndexRows, tuple[int, ...]]:
    """One elimination of [a | b].

    Returns a solution of a @ X = b with free unknowns 0 (None when the
    system is inconsistent), the reduced rows and the pivot columns.
    """
    if b.nrows != a.nrows or b.field != a.field:
        raise DimensionMismatch("right-hand side needs the same row count and field")
    width = a.ncols
    joined = tuple(x + y for x, y in zip(a._rows, b._rows))
    reduced, _, pivots = Matrix._of(a.field, joined, width + b.ncols).rref()
    red = reduced.to_index_rows()
    # a pivot in b's columns is a zero row of a against a nonzero right-hand
    # side, 0 = nonzero; otherwise the left block is the rref of a
    if pivots and pivots[-1] >= width:
        return None, red, pivots
    part = [(0,) * b.ncols] * width
    for r, pc in enumerate(pivots):
        part[pc] = red[r][width:]
    return part, red, pivots


def solve_all(a: Matrix, b: Matrix) -> LinearSolution | None:
    """Solve a @ X = b exactly; None when the system is inconsistent.

    One elimination of [a | b] gives both the particular solution and the
    null basis: when no pivot falls in b's columns, its left block is the
    rref of a.
    """
    part, red, pivots = _particular(a, b)
    if part is None:
        return None
    return LinearSolution(
        particular=Matrix._of(a.field, tuple(part), b.ncols),
        null_basis=_null_basis(a.field, red, pivots, a.ncols),
    )


@lru_cache(maxsize=64)
def _echelon(field: AnyField, rows: IndexRows, width: int) -> tuple[IndexRows, tuple[int, ...]]:
    """The nonzero rref rows of ``rows`` (tuples of ``width`` indices) and
    their pivot columns, from one elimination; no rows give an empty basis.
    Cached by value: a basis depends on the field and the rows alone, so
    rows asked about again, by any caller, are not eliminated again."""
    if not rows:
        return (), ()
    reduced, rank, pivots = Matrix._of(field, rows, width).rref()
    return reduced.to_index_rows()[:rank], pivots


def _in_span(
    field: AnyField, basis: tuple[IndexRows, tuple[int, ...]], v: Sequence[int]
) -> bool:
    """Does v lie in the span of a semi-echelon basis (rows and their pivot
    columns, each row zero at the earlier rows' pivots), such as an
    ``_echelon`` or ``_walk`` basis?  Reduces v against it; zero means
    inside.  v must have the basis's width."""
    combine, neg, div = field.combine, field.neg_idx, field.div_idx
    width = len(v)
    for row, col in zip(*basis):
        c = v[col]
        if c:
            v = combine((1, neg(div(c, row[col]))), (v, row), width)
    return not any(v)


def _walk(
    field: AnyField,
    columns: Sequence[Sequence[int]],
    depth: int,
    visit: Callable[..., bool],
    target: Sequence[int] | None = None,
) -> None:
    """Visit the subsets of ``columns`` with at most ``depth`` members depth
    first: each subset before its supersets, and the subsets of one size in
    ``itertools.combinations`` order.  A subset's supersets are visited only
    when ``visit(members, basis, witness)`` returns true for it.

    ``members`` are positions in ``columns``.  ``basis`` is an ``_in_span``
    basis of the members' columns: each member's column reduced against the
    earlier members' rows, one row per pivot (rows are not normalized).  A
    member whose column reduces to zero adds no row, so the members are
    independent exactly when there are as many rows as members.

    A subset reduces the columns after its last member against its newest
    row once, when its supersets are entered; each child then takes its
    column's reduction as its row, so a subset costs one reduction step per
    later column instead of an elimination.

    Every reduction step is one ``Field.combine``.  With a ``target``, each
    later column is ``height + depth`` wide: after its reduction v comes a
    coefficient block w, aligned with the member positions, with
    v = column j + sum_t w_t * column members[t].  A member's own slot is set
    to 1 when its column becomes a row, so the combine that reduces a
    column by a row also updates its coefficients.  The negated target is
    reduced the same way, so once its residual's first ``height`` entries
    are zero, ``witness`` is the residual's block: a combination of the
    members' columns equal to the target (the unique one for independent
    members).  It is None while the target lies outside their span.  The
    rows in ``basis`` stay ``height`` wide.
    """
    combine, mul, inv, neg = field.combine, field.mul_idx, field.inv_idx, field.neg_idx
    track = target is not None
    height = len(columns[0]) if columns else len(target or ())
    pad = (0,) * depth if track else ()
    width = height + len(pad)

    def enter(members, rows, pivots, later, row, residual):
        # ``later``: (j, v) for each column j after the last member, v its
        # reduction against every row but ``row``, the one this subset added
        # (None when it added none), followed by its coefficient block
        witness = None
        if track and not any(residual[:height]):
            witness = residual[height:height + len(members)]
        if not visit(members, (rows, pivots), witness) or len(members) == depth:
            return
        if row is not None:
            p = pivots[-1]
            s = inv(row[p])
            reduced = []
            for j, v in later:
                c = mul(v[p], s)
                reduced.append((j, combine((1, neg(c)), (v, row), width) if c else v))
            later = reduced
        slot = height + len(members)
        for k, (j, v) in enumerate(later):
            child = members + (j,)
            p = next((t for t in range(height) if v[t]), None)
            if p is None:
                # dependent: no row, and the target's residual is unchanged
                enter(child, rows, pivots, later[k + 1:], None, residual)
                continue
            res = residual
            if track:
                v = v[:slot] + (1,) + v[slot + 1:]
                c = mul(residual[p], inv(v[p]))
                res = combine((1, neg(c)), (residual, v), width) if c else residual
            enter(child, rows + (v[:height],), pivots + (p,), later[k + 1:], v, res)

    start = [(j, (*col, *pad)) for j, col in enumerate(columns)]
    enter((), (), (), start, None, (*map(neg, target), *pad) if track else None)


def _span_witness(
    field: AnyField, generators: IndexRows, v: Sequence[int]
) -> tuple[int, ...] | None:
    """Coefficients writing v as an F-linear combination of the generators,
    or None when v lies outside their span.

    The witness lambda satisfies sum(lambda_j * generators[j]) == v and is
    aligned with the generator order; the zero vector is witnessed by
    all-zero coefficients even when there are no generators.  Only a
    particular solution is computed, never the null space.  The vectors
    are ones the package built itself: equal-width tuples of reduced
    indices, as wide as v, and nothing is checked."""
    if not generators:
        return None if any(v) else ()
    a = Matrix._of(field, tuple(zip(*generators)), len(generators))
    part, _, _ = _particular(a, Matrix._of(field, tuple((x,) for x in v), 1))
    return None if part is None else tuple(x for (x,) in part)
