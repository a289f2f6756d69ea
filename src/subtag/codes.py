"""Linear codes as verifier-key distribution patterns.

A code of length V and dimension kdim over F_{q^l} fixes, through its
public generator matrix, how the authority's master key is spread over V
verifiers.  Which coalitions of verifiers can cheat which targets is a
question about column spans of the generator, or equivalently about
supports of dual codewords.  Vectors here are index tuples over the
code's field, and ``rs_code`` takes its evaluation points as indices.

Every answer is a span test on ``columns``, the generator's columns as
index tuples, read once when a code is built.  ``forgeable`` makes one.
By Massey's theorem the minimal dual codewords through coordinate i are
the circuits of the column matroid through i: minimal sets S of other
coordinates whose columns span column i.  The searches walk column
subsets depth first with ``linalg._walk``, so a subset extends its
prefix's reduction by one column instead of being eliminated afresh.
The circuit search goes up to size kdim, extends only independent sets
that do not span column i, and keeps S when its span witness lambda has
no zero entry: that witness is unique, and 0 at j exactly when S - {j}
spans.  S is an access set for i, and lambda gives the dual word with 1
at i and -lambda_j at each j in S.  A minimum distance is the size of the
smallest dependent set of parity-check columns; that search stops
descending at the smallest size found so far.  An ``analyze`` report asks
both questions of one code and target, so ``_survey`` answers them, and
keeps the bases the report's ``ec_table`` reads, in one walk over the
code's columns; ``min_distance`` and ``_circuits`` keep their own pruned
walks for callers that ask one question.  Only ``codewords`` enumerates
words.

``ENUM_GUARD`` bounds the work up front, so routines refuse instead of
approximating: ``codewords`` counts words, the searches count the column
subsets they may test, and ``adversary`` counts the labels a uniform
histogram would list.  Each check reads the name when it runs.  A code
memoizes its dual, which links back to it, its minimum distance, its
circuits per coordinate and its ``forgeable`` answer per
``CoalitionSpec``; a memoized answer still passes the guard and the
coordinate checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import (
    DuplicatePoint,
    InvalidParams,
    RankDeficient,
    TargetInCoalition,
    TooLargeToEnumerate,
    TooLong,
)
from .fields import BaseField, ExtField
from .linalg import Matrix, _span_witness, _walk

__all__ = [
    "CoalitionSpec",
    "LinearCode",
    "rs_code",
]

ENUM_GUARD = 1 << 24

AnyField = Union[BaseField, ExtField]


def _smallest_first(circuits: list) -> tuple:
    return tuple(sorted(circuits, key=lambda circuit: (len(circuit[0]), circuit[0])))


def _check_subsets(n: int, sizes: range) -> None:
    """Refuse a search over the subsets of n columns with the given sizes
    when there are more than ``ENUM_GUARD`` of them."""
    count = sum(math.comb(n, s) for s in sizes)
    if count > ENUM_GUARD:
        raise TooLargeToEnumerate(f"{count} column subsets exceed the guard {ENUM_GUARD}")


@dataclass(frozen=True)
class CoalitionSpec:
    """A set of colluding verifier coordinates and the verifier they attack.

    Coordinates are 1-based ints, matching how verifiers are numbered on
    the wire and in reports; a bool or a float is refused, not truncated.
    """

    members: frozenset[int]
    target: int

    def __post_init__(self):
        members = tuple(self.members)
        for i in (*members, self.target):
            if type(i) is not int:
                raise InvalidParams(f"verifier coordinate {i!r} is not an int")
        object.__setattr__(self, "members", frozenset(members))
        if any(i < 1 for i in self.members) or self.target < 1:
            raise InvalidParams("verifier coordinates are numbered from 1")
        if self.target in self.members:
            raise TargetInCoalition(f"target {self.target} is a coalition member")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


class LinearCode:
    """A linear code held as its generator matrix, stored verbatim, and
    that matrix's columns as index tuples (``columns``)."""

    __slots__ = ("field", "generator", "length", "kdim", "columns",
                 "_dual", "_dmin", "_circuit_memo", "_forgeable_memo")

    def __init__(self, generator: Matrix):
        if generator.ncols < 1:
            raise InvalidParams("code length must be at least 1")
        if generator.nrows and generator.rank() != generator.nrows:
            raise RankDeficient("generator rows are linearly dependent")
        self._hold(generator)

    def _hold(self, generator: Matrix, dual: "LinearCode | None" = None) -> None:
        self.field = generator.field
        self.generator = generator
        self.length = generator.ncols
        self.kdim = generator.nrows
        rows = generator.to_index_rows()
        # a zero-dimensional code still has `length` (empty) columns
        self.columns = tuple(zip(*rows)) if rows else ((),) * self.length
        self._dual = dual
        self._dmin = None
        self._circuit_memo = {}
        self._forgeable_memo = {}

    @property
    def is_zero(self) -> bool:
        """Zero-dimensional codes carry no information and no keys."""
        return self.kdim == 0

    def dual(self) -> "LinearCode":
        if self._dual is None:
            # a null basis is independent by construction: no rank check
            basis = self.generator.null_space()
            self._dual = LinearCode.__new__(LinearCode)
            self._dual._hold(Matrix._of(self.field, basis, self.length), self)
        return self._dual

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """All codewords as index tuples (exact, guarded enumeration).

        The order is that of ``itertools.product(range(order), repeat=kdim)``
        over the message digits.
        """
        order = self.field.order
        if order**self.kdim > ENUM_GUARD:
            raise TooLargeToEnumerate(
                f"{order}^{self.kdim} codewords exceed the guard {ENUM_GUARD}"
            )
        rows = self.generator.to_index_rows()
        combine, width = self.field.combine, self.length
        for msg in itertools.product(range(order), repeat=self.kdim):
            yield combine(msg, rows, width)

    def min_distance(self) -> int:
        """Minimum Hamming weight over all nonzero codewords.

        The smallest number of dependent parity-check columns (the columns
        of the dual's generator).  These have rank V - kdim, so any
        V - kdim + 1 of them are dependent and that size needs no test.
        This walk stops descending at the smallest size found so far; the
        dual's ``_survey`` also finds the distance, in the walk that finds
        its circuits.
        """
        top = self._distance_ok()
        if self._dmin is None:
            best = top + 1

            def visit(members, basis, _):
                nonlocal best
                if len(basis[1]) < len(members):
                    best = min(best, len(members))
                    return False
                # a superset is worth testing only while it would be smaller
                return len(members) + 1 < best

            _walk(self.field, self.dual().columns, top, visit)
            self._dmin = best
        return self._dmin

    def _distance_ok(self) -> int:
        """``min_distance``'s checks; returns the largest size it tests."""
        if self.is_zero:
            raise InvalidParams("minimum distance of the zero code is undefined")
        top = self.length - self.kdim
        _check_subsets(self.length, range(1, top + 1))
        return top

    def _circuits(self, i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Circuits through coordinate i, smallest first: each minimal set S
        of other coordinates (a sorted tuple) whose columns span column i,
        with its span witness aligned with S.  This walk searches for them
        alone; ``_survey`` finds them with the other answers of a report."""
        others = self._circuits_ok(i)
        found = self._circuit_memo.get(i)
        if found is None:
            found = []

            def visit(members, basis, witness):
                if witness is not None:
                    # no zero entry: no proper subset spans
                    if all(witness):
                        found.append((tuple(others[t] for t in members), witness))
                    return False
                # a dependent set's supersets are never minimal
                return len(basis[1]) == len(members)

            cols = self.columns
            _walk(self.field, [cols[j - 1] for j in others], self.kdim, visit, cols[i - 1])
            found = self._circuit_memo[i] = _smallest_first(found)
        return found

    def _circuits_ok(self, i: int) -> list[int]:
        """``_circuits``'s checks; returns the coordinates other than i."""
        self._index_ok(i)
        others = [j for j in range(1, self.length + 1) if j != i]
        _check_subsets(len(others), range(self.kdim + 1))
        return others

    def _survey(self, i: int, keep: int | None = None) -> dict:
        """One walk for an ``analyze`` report on target i.

        It walks every column, column i included, to depth kdim with
        column i as the tracked target, and answers three questions: the
        smallest dependent subset (the dual's distance, kdim + 1 when there
        is none), the circuits through i (members without i, independent,
        with a witness and no zero entry), and, when ``keep`` is not None,
        the basis of every subset of at least ``keep`` columns.  The first
        two go into the dual's ``_dmin`` and this code's ``_circuit_memo``,
        so ``dual().min_distance()`` and ``_circuits(i)`` read them; the
        last is returned as a dict from members (0-based positions) to
        ``_walk`` bases, in walk order.  The checks of both searches run
        first, in that order.

        A subset is extended when some answer needs its supersets: always
        with ``keep``, otherwise when it is independent and either smaller
        than the best distance by two or more, or without i and not yet
        spanning column i.  A survey without ``keep`` whose answers are
        memoized walks nothing.
        """
        dual = self.dual()
        top = dual._distance_ok()
        self._circuits_ok(i)
        kept = {}
        if keep is None and dual._dmin is not None and i in self._circuit_memo:
            return kept
        best, found, t = top + 1, [], i - 1
        extend_all = keep is not None

        def visit(members, basis, witness):
            nonlocal best
            size = len(members)
            if extend_all and size >= keep:
                kept[members] = basis
            if len(basis[1]) < size:
                best = min(best, size)
                return extend_all
            if t not in members:
                if witness is None:
                    return True
                if all(witness):
                    found.append((tuple(j + 1 for j in members), witness))
            return extend_all or size + 1 < best

        cols = self.columns
        _walk(self.field, cols, top, visit, cols[t])
        dual._dmin = best
        self._circuit_memo[i] = _smallest_first(found)
        return kept
    def minimal_codewords_wrt(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Codewords with component 1 at coordinate i and minimal support,
        as sorted index tuples.

        Minimal means no other codeword that also has component 1 at i has
        its support strictly contained in this one's.  Scalar multiples are
        collapsed by the normalization at i.
        """
        neg = self.field.neg_idx
        words = []
        for members, witness in self.dual()._circuits(i):
            word = [0] * self.length
            word[i - 1] = 1  # index 1 is the field's one
            for j, lam in zip(members, witness):
                word[j - 1] = neg(lam)
            words.append(tuple(word))
        return tuple(sorted(words))

    def _index_ok(self, i: int) -> None:
        if not 1 <= i <= self.length:
            raise InvalidParams(f"coordinate {i} outside 1..{self.length}")

    # -- coalition analysis ------------------------------------------------

    def forgeable(self, spec: CoalitionSpec) -> tuple[bool, tuple[int, ...] | None]:
        """Can the coalition determine the target's key column?

        True exactly when the target's generator column lies in the span of
        the members' columns; the witness gives the combination as indices,
        aligned with ``spec.sorted_members``.  Memoized per spec; the
        coordinates are checked on every call.
        """
        self._index_ok(spec.target)
        for j in spec.members:
            self._index_ok(j)
        found = self._forgeable_memo.get(spec)
        if found is None:
            cols = self.columns
            gens = [cols[j - 1] for j in spec.sorted_members]
            witness = _span_witness(self.field, gens, cols[spec.target - 1])
            found = self._forgeable_memo[spec] = (witness is not None, witness)
        return found

    def access_structure(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Minimal coalitions able to forge against verifier i: the sets S
        of the circuits S + {i} of the generator's column matroid."""
        return tuple(sorted(members for members, _ in self._circuits(i)))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCode) and other.generator == self.generator

    def __hash__(self):
        return hash(self.generator)

    def __repr__(self):
        return f"LinearCode[{self.length},{self.kdim}] over {self.field.name}"


def rs_code(field: AnyField, points: Sequence[int], kdim: int) -> LinearCode:
    """Reed-Solomon code: rows point**(t-1) for t = 1..kdim, with 0**0 = 1.
    The points are indices of ``field``."""
    if len(points) > field.order:
        raise TooLong(
            f"length {len(points)} exceeds the {field.order} distinct points available"
        )
    pts = field._symbols(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("evaluation points must be pairwise distinct")
    if not 1 <= kdim <= len(pts):
        raise InvalidParams(f"dimension {kdim} outside 1..{len(pts)}")
    power = field.pow_idx
    rows = tuple(tuple(power(x, t) for x in pts) for t in range(kdim))
    return LinearCode(Matrix._of(field, rows, len(pts)))
