"""Elliptic curves and the one-point AG codes built on them.

Short Weierstrass curves y^2 = x^3 + ax + b over fields of characteristic
at least 5.  The scheme code attached to a curve is the residue code
C(D, kO): the dual of the evaluation code of the Riemann-Roch space
L(kO) = span{x^i y^j : 2i + 3j <= k, j <= 1} at the n chosen affine
points.  For these codes the forgeability of a coalition A is decided by
pure group law: only |A| and the point sum of the complement D \\ A
matter, and ``classify_coalition`` turns that into a verdict that can be
checked coordinate-free against the generic span criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .codes import LinearCode
from .errors import (
    DuplicatePoint,
    FieldMismatch,
    InvalidParams,
    InvariantViolated,
    SingularCurve,
    TargetInCoalition,
)
from .fields import BaseField, ExtField, FieldElement
from .linalg import Matrix

__all__ = [
    "EllipticCurve",
    "ECPoint",
    "AGCodeSpec",
    "Forgeability",
    "CoalitionClass",
    "ec_points",
    "ec_add",
    "ec_sum",
    "rr_basis",
    "Monomial",
    "eval_code",
    "residue_code",
    "classify_coalition",
]

AnyField = Union[BaseField, ExtField]
# a point as the indices of its coordinates; None is the point at infinity O
Pair = Optional[tuple[int, int]]


@dataclass(frozen=True)
class EllipticCurve:
    field: AnyField
    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.field.char <= 3:
            raise InvalidParams("short Weierstrass form needs characteristic > 3")
        a = self.field.element(self.a)
        b = self.field.element(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # discriminant 4a^3 + 27b^2, up to -16; c < p is index c in any field
        mul, p = self.field.mul_idx, self.field.char
        cube, square = mul(a.index, mul(a.index, a.index)), mul(b.index, b.index)
        if not self.field.add_idx(mul(4 % p, cube), mul(27 % p, square)):
            raise SingularCurve(f"4a^3 + 27b^2 = 0 over {self.field.name}")

    def contains(self, x: FieldElement, y: FieldElement) -> bool:
        field = self.field
        for c in (x, y):
            if not isinstance(c, FieldElement) or c.field != field:
                raise FieldMismatch(f"{c!r} is not an element of {field.name}")
        return field.mul_idx(y.index, y.index) == self._rhs(x.index)

    def _rhs(self, x: int) -> int:
        """The index of x^3 + ax + b at the x-coordinate of index x."""
        add, mul = self.field.add_idx, self.field.mul_idx
        return add(mul(add(mul(x, x), self.a.index), x), self.b.index)


@dataclass(frozen=True)
class ECPoint:
    """A point on a curve; x = y = None encodes the point at infinity O."""

    curve: EllipticCurve
    x: Optional[FieldElement]
    y: Optional[FieldElement]

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InvalidParams("both coordinates or neither")
        if self.x is not None and not self.curve.contains(self.x, self.y):
            raise InvalidParams(f"({self.x!r}, {self.y!r}) is not on the curve")

    @classmethod
    def infinity(cls, curve: EllipticCurve) -> "ECPoint":
        return cls(curve, None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x.index},{self.y.index})"


def _pair(p: ECPoint) -> Pair:
    return None if p.is_infinity else (p.x.index, p.y.index)


def _point(curve: EllipticCurve, pair: Pair) -> ECPoint:
    """The point with these coordinate indices, built without the on-curve
    check: every caller takes the pair from the curve equation or the group
    law.  Points from outside input go through ``ECPoint(...)``."""
    point = object.__new__(ECPoint)
    if pair is None:
        x = y = None
    else:
        x, y = FieldElement(curve.field, pair[0]), FieldElement(curve.field, pair[1])
    for name, value in (("curve", curve), ("x", x), ("y", y)):
        object.__setattr__(point, name, value)
    return point


def ec_points(curve: EllipticCurve) -> tuple[ECPoint, ...]:
    """All rational points, O first, affine points sorted by (x, y) index."""
    field = curve.field
    # y^2 = c has solutions read off a square table, exact and exhaustive;
    # each list of roots is in ascending index order
    roots: dict[int, list[int]] = {}
    for y in range(field.order):
        roots.setdefault(field.mul_idx(y, y), []).append(y)
    pts = [ECPoint.infinity(curve)]
    for x in range(field.order):
        pts.extend(_point(curve, (x, y)) for y in roots.get(curve._rhs(x), ()))
    return tuple(pts)


def _sum_pairs(curve: EllipticCurve, pairs: Iterable[Pair]) -> Pair:
    """Chord-tangent sum of points given as index pairs: the one group law."""
    field, a = curve.field, curve.a.index
    add, sub, mul, inv = field.add_idx, field.sub_idx, field.mul_idx, field.inv_idx
    acc = None
    for q in pairs:
        if q is None:
            continue
        if acc is None:
            acc = q
            continue
        (x1, y1), (x2, y2) = acc, q
        if x1 == x2:
            if y1 == field.neg_idx(y2):
                acc = None
                continue
            # tangent: lambda = (3x^2 + a) / 2y
            xx = mul(x1, x1)
            lam = mul(add(add(add(xx, xx), xx), a), inv(add(y1, y1)))
        else:
            lam = mul(sub(y2, y1), inv(sub(x2, x1)))
        x3 = sub(sub(mul(lam, lam), x1), x2)
        acc = (x3, sub(mul(lam, sub(x1, x3)), y1))
    return acc


def ec_add(p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition."""
    return ec_sum((p, q), p.curve)


def ec_sum(points: Iterable[ECPoint], curve: EllipticCurve) -> ECPoint:
    pairs = []
    for p in points:
        if p.curve != curve:
            raise FieldMismatch("points on different curves")
        pairs.append(_pair(p))
    return _point(curve, _sum_pairs(curve, pairs))


@dataclass(frozen=True)
class Monomial:
    """x^xexp * y^yexp, with pole order 2*xexp + 3*yexp at infinity."""

    xexp: int
    yexp: int

    @property
    def pole_order(self) -> int:
        return 2 * self.xexp + 3 * self.yexp

    def _at(self, field: AnyField, x: int, y: int) -> int:
        """The value's index at the point with coordinate indices (x, y)."""
        return field.mul_idx(field.pow_idx(x, self.xexp), field.pow_idx(y, self.yexp))


def rr_basis(curve: EllipticCurve, m: int) -> tuple[Monomial, ...]:
    """Basis of the functions with pole order at most m at infinity.

    On a genus-1 curve the pole orders 0, 2, 3, ..., m each occur exactly
    once (order 1 is the Weierstrass gap), so the basis has size m for
    m >= 1 and size 1 for m = 0.
    """
    if m < 0:
        raise InvalidParams("pole order bound must be non-negative")
    basis = [
        Monomial(i, j)
        for j in (0, 1)
        for i in range(0, m // 2 + 1)
        if 2 * i + 3 * j <= m
    ]
    basis.sort(key=lambda mono: mono.pole_order)
    expected = 1 if m == 0 else m
    if len(basis) != expected:
        raise InvariantViolated(f"L({m}O) has {len(basis)} basis monomials, not {expected}")
    return tuple(basis)


@dataclass(frozen=True)
class AGCodeSpec:
    """A curve, n distinct affine points, and the pole-order budget degree."""

    curve: EllipticCurve
    points: tuple[ECPoint, ...]
    degree: int
    # the points' coordinate indices, in support order
    _pairs: tuple[tuple[int, int], ...] = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            if p.curve != self.curve:
                raise FieldMismatch("support point on a different curve")
            if p.is_infinity:
                raise InvalidParams("the pole point cannot be in the support")
        if len(set(self.points)) != len(self.points):
            raise DuplicatePoint("support points must be pairwise distinct")
        if not 0 < self.degree < len(self.points):
            raise InvalidParams("need 0 < degree < number of support points")
        object.__setattr__(self, "_pairs", tuple(_pair(p) for p in self.points))

    @property
    def n(self) -> int:
        return len(self.points)


def eval_code(spec: AGCodeSpec) -> LinearCode:
    """Evaluation code: rows are the basis monomials evaluated at the support."""
    field = spec.curve.field
    rows = tuple(
        tuple(mono._at(field, x, y) for x, y in spec._pairs)
        for mono in rr_basis(spec.curve, spec.degree)
    )
    # degree < n makes the evaluation map injective on L(degree * O)
    return LinearCode(Matrix._of(field, rows, spec.n))


def residue_code(spec: AGCodeSpec) -> LinearCode:
    """The scheme code: dual of the evaluation code, an [n, n-degree] code."""
    return eval_code(spec).dual()


class Forgeability(Enum):
    NOT_FORGEABLE = "none"
    SINGLE_TARGET = "single-target"
    ALL_TARGETS = "all-targets"


@dataclass(frozen=True)
class CoalitionClass:
    """Verdict for one coalition against the residue code of an AG spec.

    ``complement_sum`` is the group-law sum of the support points outside
    the coalition; ``single_target`` is the 1-based support index the
    coalition can attack when the verdict is SINGLE_TARGET.
    """

    kind: Forgeability
    complement_sum: ECPoint
    single_target: Optional[int]

    def against(self, target: int) -> bool:
        if self.kind is Forgeability.ALL_TARGETS:
            return True
        if self.kind is Forgeability.SINGLE_TARGET:
            return target == self.single_target
        return False


def classify_coalition(
    spec: AGCodeSpec, coalition: Iterable[int], target: int
) -> CoalitionClass:
    """Decide forgeability of a coalition by point arithmetic alone.

    Coalition and target are 1-based indices into the support, each an
    ``int`` (a bool or a float is refused, not truncated).  With
    k = spec.degree and n = spec.n, a coalition of size below n-k-1 can
    never forge; at exactly n-k-1 it can forge only against the support
    point equal to the complement sum (when that sum lands in the
    complement); at n-k it forges against everybody unless the complement
    sums to O; and beyond n-k it always forges against everybody.  The
    rule itself is ``_verdict``, which the ``analyze`` table calls with
    complement sums it shares between coalitions.
    """
    coalition = list(coalition)
    for i in (*coalition, target):
        if type(i) is not int:
            raise InvalidParams(f"support index {i!r} is not an int")
    members = sorted(set(coalition))
    n = spec.n
    for i in members + [target]:
        if not 1 <= i <= n:
            raise InvalidParams(f"support index {i} outside 1..{n}")
    if target in members:
        raise TargetInCoalition(f"target {target} is a coalition member")

    # summed directly: the ec_table's coalitions leave at most k+1 points out
    pairs, inside = spec._pairs, set(members)
    complement = [i for i in range(1, n + 1) if i not in inside]
    total = _sum_pairs(spec.curve, [pairs[i - 1] for i in complement])
    kind, single = _verdict(spec, len(members), complement, total)
    return CoalitionClass(kind, _point(spec.curve, total), single)


def _verdict(
    spec: AGCodeSpec, size: int, complement: Sequence[int], total: Pair
) -> tuple[Forgeability, Optional[int]]:
    """The verdict for a coalition of ``size`` members whose ``complement``
    (1-based support indices) sums to the point with coordinate indices
    ``total``, and the single target when there is one."""
    pairs, k = spec._pairs, spec.degree
    n = len(pairs)
    if size <= n - k - 2:
        return Forgeability.NOT_FORGEABLE, None
    if size == n - k - 1:
        for i in complement:
            if pairs[i - 1] == total:
                return Forgeability.SINGLE_TARGET, i
        return Forgeability.NOT_FORGEABLE, None
    if size == n - k and total is None:
        return Forgeability.NOT_FORGEABLE, None
    return Forgeability.ALL_TARGETS, None
