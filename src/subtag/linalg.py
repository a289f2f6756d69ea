"""Exact linear algebra over the package's finite fields.

Everything here is small and dense: verification keys have a handful of
rows and attack systems a few dozen, so plain Gaussian elimination with
first-nonzero pivoting is both fast enough and, importantly for
reproducibility, deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DimensionMismatch, FieldMismatch
from .fields import BaseField, ExtField, FieldElement

__all__ = [
    "Matrix",
    "LinearSolution",
    "solve_all",
    "span_contains",
]

AnyField = Union[BaseField, ExtField]
Vector = tuple[FieldElement, ...]


class Matrix:
    """Immutable dense matrix; rows are tuples of FieldElement."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: AnyField, rows, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise DimensionMismatch("ragged rows")
                for e in r:
                    if not isinstance(e, FieldElement) or (
                        e.field is not field and e.field != field
                    ):
                        raise FieldMismatch("entry does not belong to the matrix field")
            if ncols is not None and ncols != width:
                raise DimensionMismatch(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_indices(cls, field: AnyField, idx_rows, ncols: int | None = None) -> "Matrix":
        rows = tuple(
            tuple(FieldElement(field, int(i)) for i in row) for row in idx_rows
        )
        return cls(field, rows, ncols=ncols)

    # -- access ----------------------------------------------------------

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def to_index_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.index for e in r) for r in self.rows)

    def augment(self, other: "Matrix") -> "Matrix":
        if other.nrows != self.nrows or other.field != self.field:
            raise DimensionMismatch("augment needs matching row counts and field")
        return Matrix(
            self.field,
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            ncols=self.ncols + other.ncols,
        )

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if other.field != self.field:
            raise FieldMismatch("matrix product across different fields")
        if other.nrows != self.ncols:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        add, mul = f.add_idx, f.mul_idx
        a = self.to_index_rows()
        b = other.to_index_rows()
        out = []
        for r in range(self.nrows):
            row = []
            ar = a[r]
            for c in range(other.ncols):
                acc = 0
                for k in range(self.ncols):
                    if ar[k] and b[k][c]:
                        acc = add(acc, mul(ar[k], b[k][c]))
                row.append(FieldElement(f, acc))
            out.append(tuple(row))
        return Matrix(f, tuple(out), ncols=other.ncols)

    # -- elimination -------------------------------------------------------

    def rref(self, pivot_limit: int | None = None) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form.

        Pivoting is "first nonzero": in each column the topmost unused row
        with a nonzero entry becomes the pivot, which makes the output a
        canonical form for the row space.  ``pivot_limit`` restricts pivot
        search to the leftmost columns (used for augmented systems).
        """
        f = self.field
        add, mul, sub, inv = f.add_idx, f.mul_idx, f.sub_idx, f.inv_idx
        work = [list(row) for row in self.to_index_rows()]
        ncols = self.ncols
        limit = ncols if pivot_limit is None else pivot_limit
        pivots = []
        rank = 0
        for col in range(limit):
            piv = next((r for r in range(rank, self.nrows) if work[r][col]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            pinv = inv(work[rank][col])
            if pinv != 1:
                work[rank] = [mul(pinv, v) for v in work[rank]]
            for r in range(self.nrows):
                if r != rank and work[r][col]:
                    c = work[r][col]
                    work[r] = [
                        sub(v, mul(c, w)) for v, w in zip(work[r], work[rank])
                    ]
            pivots.append(col)
            rank += 1
            if rank == self.nrows:
                break
        reduced = Matrix.from_indices(f, work, ncols=ncols)
        return reduced, rank, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def null_space(self) -> tuple[Vector, ...]:
        """Basis of {x : self @ x = 0}, one vector per free column."""
        f = self.field
        reduced, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        red = reduced.to_index_rows()
        for fc in free:
            vec = [0] * self.ncols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg_idx(red[r][fc])
            basis.append(tuple(FieldElement(f, v) for v in vec))
        return tuple(basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            "[" + " ".join(str(e.index) for e in r) + "]" for r in self.rows
        )
        return f"Matrix<{self.nrows}x{self.ncols} over {self.field.name}>({body})"


@dataclass(frozen=True)
class LinearSolution:
    """Full affine solution set of a @ X = b, described column by column.

    Every solution of column j is ``particular.column(j)`` plus a linear
    combination of ``null_basis``; the set has size order**nullity per
    column.
    """

    particular: Matrix
    null_basis: tuple[Vector, ...]

    @property
    def nullity(self) -> int:
        return len(self.null_basis)


def _particular(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution of a @ X = b, free unknowns 0; None when inconsistent."""
    if b.nrows != a.nrows:
        raise DimensionMismatch("right-hand side has wrong row count")
    aug = a.augment(b)
    reduced, rank, pivots = aug.rref(pivot_limit=a.ncols)
    red = reduced.to_index_rows()
    # A pivot confined to the b-part means 0 = nonzero.
    for r in range(rank, a.nrows):
        if any(red[r][a.ncols + j] for j in range(b.ncols)):
            return None
    part_rows = [[0] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        for j in range(b.ncols):
            part_rows[pc][j] = red[r][a.ncols + j]
    return Matrix.from_indices(a.field, part_rows, ncols=b.ncols)


def solve_all(a: Matrix, b: Matrix) -> LinearSolution | None:
    """Solve a @ X = b exactly; None when the system is inconsistent."""
    particular = _particular(a, b)
    if particular is None:
        return None
    return LinearSolution(particular=particular, null_basis=a.null_space())


def span_contains(
    generators: Sequence[Vector], v: Vector
) -> tuple[bool, tuple[FieldElement, ...] | None]:
    """Is v an F-linear combination of the generators?  Returns a witness.

    The witness lambda satisfies sum(lambda_j * generators[j]) == v and is
    aligned with the generator order; the zero vector is witnessed by
    all-zero coefficients even when there are no generators.  Only a
    particular solution is computed, never the null space.
    """
    if not generators:
        if any(e.index for e in v):
            return False, None
        return True, ()
    field = generators[0][0].field
    a = Matrix(field, tuple(zip(*generators)), ncols=len(generators))
    b = Matrix(field, tuple((e,) for e in v), ncols=1)
    particular = _particular(a, b)
    if particular is None:
        return False, None
    return True, particular.column(0)
