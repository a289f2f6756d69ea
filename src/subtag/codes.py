"""Linear codes as verifier-key distribution patterns.

A code of length V and dimension kdim over F_{q^l} fixes, through its
public generator matrix, how the authority's master key is spread over V
verifiers.  Which coalitions of verifiers can cheat which targets is a
question about column spans of the generator, or equivalently about
supports of dual codewords.  ``forgeable`` decides the question with the
cheap span test; ``access_structure`` reads the same answer off the
minimal dual codewords.  Codewords, minimal codewords and forgeability
witnesses are all index tuples over the code's field; FieldElement
appears only in ``rs_code``'s evaluation points.

Enumeration-based routines (minimum distance, minimal codewords) are the
exact oracles the rest of the package leans on, so they refuse instead of
approximating when the count exceeds ``ENUM_GUARD``.  That one bound also
guards ``adversary``'s key enumeration; every check reads it when it runs,
so no routine takes a bound of its own.

``codewords`` is the one enumeration.  It yields words in
``itertools.product`` order over the message digits and never multiplies
inside the loop: each call tabulates every scalar multiple m * (row r) of
the generator once, keeps the running sum of the rows before the last
(recomputing only the rows whose digit changed), and forms each word as
that sum plus a multiple of the last row.  Word lists are not cached.  A
code memoizes only small answers: its dual, its minimum distance and, per
coordinate, its minimal codewords, so an ``analyze`` report enumerates the
dual once for the distance and once for the minimal words.
"""

from __future__ import annotations

import itertools
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
from .fields import BaseField, ExtField, FieldElement
from .linalg import Matrix, span_witness

__all__ = [
    "CoalitionSpec",
    "LinearCode",
    "rs_code",
]

ENUM_GUARD = 1 << 24

AnyField = Union[BaseField, ExtField]


@dataclass(frozen=True)
class CoalitionSpec:
    """A set of colluding verifier coordinates and the verifier they attack.

    Coordinates are 1-based, matching how verifiers are numbered on the
    wire and in reports.
    """

    members: frozenset[int]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if any(i < 1 for i in self.members) or self.target < 1:
            raise InvalidParams("verifier coordinates are numbered from 1")
        if self.target in self.members:
            raise TargetInCoalition(f"target {self.target} is a coalition member")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


class LinearCode:
    """A linear code held as its generator matrix, stored verbatim."""

    __slots__ = ("field", "generator", "length", "kdim", "_dual", "_dmin", "_minimal")

    def __init__(self, generator: Matrix):
        if generator.ncols < 1:
            raise InvalidParams("code length must be at least 1")
        if generator.nrows and generator.rank() != generator.nrows:
            raise RankDeficient("generator rows are linearly dependent")
        self._hold(generator)

    def _hold(self, generator: Matrix) -> None:
        self.field = generator.field
        self.generator = generator
        self.length = generator.ncols
        self.kdim = generator.nrows
        self._dual = None
        self._dmin = None
        self._minimal = {}

    @property
    def is_zero(self) -> bool:
        """Zero-dimensional codes carry no information and no keys."""
        return self.kdim == 0

    def dual(self) -> "LinearCode":
        if self._dual is None:
            # a null basis is independent by construction: no rank check
            basis = self.generator.null_space()
            self._dual = LinearCode.__new__(LinearCode)
            self._dual._hold(Matrix.from_indices(self.field, basis, ncols=self.length))
        return self._dual

    def _check_enumerable(self) -> None:
        if self.field.order**self.kdim > ENUM_GUARD:
            raise TooLargeToEnumerate(
                f"{self.field.order}^{self.kdim} codewords "
                f"exceed the guard {ENUM_GUARD}"
            )

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """All codewords as index tuples (exact, guarded enumeration).

        The order is that of ``itertools.product(range(order), repeat=kdim)``
        over the message digits.
        """
        self._check_enumerable()
        f = self.field
        zero = (0,) * self.length
        if self.is_zero:
            yield zero
            return
        add, mul = f.add_idx, f.mul_idx
        rows = self.generator.to_index_rows()
        # head[r][m] = m * (row r); the last row's multiples are tabulated
        # only when more than one prefix reuses them
        head = [
            [tuple(mul(m, g) for g in row) for m in range(f.order)] for row in rows[:-1]
        ]
        last = (tuple(mul(m, g) for g in rows[-1]) for m in range(f.order))
        if head:
            last = tuple(last)
        sums = [zero] * self.kdim  # sums[r]: rows 0..r-1 of the current prefix
        prev = ()
        for msg in itertools.product(range(f.order), repeat=self.kdim - 1):
            start = 0
            while start < len(prev) and msg[start] == prev[start]:
                start += 1
            for r in range(start, self.kdim - 1):
                sums[r + 1] = tuple(map(add, sums[r], head[r][msg[r]]))
            prev = msg
            prefix = sums[-1]
            for mult in last:
                yield tuple(map(add, prefix, mult))

    def min_distance(self) -> int:
        """Minimum Hamming weight over all nonzero codewords."""
        if self.is_zero:
            raise InvalidParams("minimum distance of the zero code is undefined")
        self._check_enumerable()
        if self._dmin is None:
            best = self.length + 1
            for word in self.codewords():
                w = 0
                for v in word:
                    if v:
                        w += 1
                        if w >= best:
                            break
                if 0 < w < best:
                    best = w
                    if best == 1:
                        break
            self._dmin = best
        return self._dmin

    def minimal_codewords_wrt(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Codewords with component 1 at coordinate i and minimal support,
        as sorted index tuples.

        Minimal means no other codeword that also has component 1 at i has
        its support strictly contained in this one's.  Scalar multiples are
        collapsed by the normalization at i.
        """
        self._index_ok(i)
        self._check_enumerable()
        if i in self._minimal:
            return self._minimal[i]
        candidates = []
        for word in self.codewords():
            if word[i - 1] != 1:  # index 1 is the field's one
                continue
            mask = 0
            for c, v in enumerate(word):
                if v:
                    mask |= 1 << c
            candidates.append((word, mask))
        out = []
        for word, mask in candidates:
            minimal = True
            for _, other in candidates:
                if other != mask and other & mask == other:
                    minimal = False
                    break
            if minimal:
                out.append(word)
        found = self._minimal[i] = tuple(sorted(out))
        return found

    def _index_ok(self, i: int) -> None:
        if not 1 <= i <= self.length:
            raise InvalidParams(f"coordinate {i} outside 1..{self.length}")

    # -- coalition analysis ------------------------------------------------

    def forgeable(self, spec: CoalitionSpec) -> tuple[bool, tuple[int, ...] | None]:
        """Can the coalition determine the target's key column?

        True exactly when the target's generator column lies in the span of
        the members' columns; the witness gives the combination as indices,
        aligned with ``spec.sorted_members``.
        """
        self._index_ok(spec.target)
        for j in spec.members:
            self._index_ok(j)
        rows = self.generator.to_index_rows()
        gens = [tuple(r[j - 1] for r in rows) for j in spec.sorted_members]
        witness = span_witness(self.field, gens, tuple(r[spec.target - 1] for r in rows))
        return witness is not None, witness

    def access_structure(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Minimal coalitions able to forge against verifier i.

        Read off the supports of the dual code's minimal codewords at i,
        with i itself removed.
        """
        seen = set()
        for word in self.dual().minimal_codewords_wrt(i):
            support = tuple(
                sorted(c + 1 for c, v in enumerate(word) if v and c + 1 != i)
            )
            seen.add(support)
        return tuple(sorted(seen))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCode) and other.generator == self.generator

    def __hash__(self):
        return hash(self.generator)

    def __repr__(self):
        return f"LinearCode[{self.length},{self.kdim}] over {self.field.name}"


def rs_code(
    field: AnyField, points: Sequence[Union[int, FieldElement]], kdim: int
) -> LinearCode:
    """Reed-Solomon code: rows point**(t-1) for t = 1..kdim, with 0**0 = 1."""
    if len(points) > field.order:
        raise TooLong(
            f"length {len(points)} exceeds the {field.order} distinct points available"
        )
    pts = [field.element(p) for p in points]
    if len({p.index for p in pts}) != len(pts):
        raise DuplicatePoint("evaluation points must be pairwise distinct")
    if not 1 <= kdim <= len(pts):
        raise InvalidParams(f"dimension {kdim} outside 1..{len(pts)}")
    rows = []
    for t in range(kdim):
        rows.append(tuple(p**t for p in pts))
    return LinearCode(Matrix(field, tuple(rows), ncols=len(pts)))
