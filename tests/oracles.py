"""Independent brute-force oracles for the test suite.

Everything here recomputes library answers from first principles: field
arithmetic from the stored moduli alone, dual codewords by direct
enumeration of G v = 0, forgeability by dual-support search, consistent
master keys by trying every matrix, labels and linearized evaluations by
direct powering, and the elliptic-curve group law and coalition
classifier in ``FieldElement`` arithmetic.  None of it routes through the
library's rref/null-space code, so agreement between the two sides
actually means something.  The code and key oracles are exponential and
meant for tiny parameters only.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, Union

from subtag.ec import CoalitionClass, ECPoint, Forgeability
from subtag.errors import FieldMismatch, LengthMismatch
from subtag.fields import ExtField, FieldElement
from subtag.scheme import PublicParams, TaggedPacket


# -- field arithmetic ----------------------------------------------------------


class RefPrime:
    """Integers mod p."""

    def __init__(self, p: int):
        self.order = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def neg(self, a: int) -> int:
        return (-a) % self.order

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.order


class RefQuotient:
    """Polynomials over ``coef`` modulo a monic modulus.

    Indices follow the library's encoding (little-endian digits in base
    ``coef.order``), but every operation is recomputed here from the
    modulus: digit-wise add and negate, a schoolbook product reduced by
    long division, and a Fermat inverse x^(order-2).
    """

    def __init__(self, coef, modulus: Sequence[int]):
        self.coef = coef
        self.modulus = tuple(modulus)
        self.degree = len(self.modulus) - 1
        self.order = coef.order**self.degree

    def digits(self, i: int) -> list[int]:
        out = []
        for _ in range(self.degree):
            i, d = divmod(i, self.coef.order)
            out.append(d)
        return out

    def index(self, digits: Sequence[int]) -> int:
        return sum(d * self.coef.order**k for k, d in enumerate(digits))

    def add(self, i: int, j: int) -> int:
        return self.index([self.coef.add(a, b) for a, b in zip(self.digits(i), self.digits(j))])

    def neg(self, i: int) -> int:
        return self.index([self.coef.neg(a) for a in self.digits(i)])

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        c, d = self.coef, self.degree
        prod = [0] * (2 * d - 1)
        for s, x in enumerate(self.digits(i)):
            for t, y in enumerate(self.digits(j)):
                if x and y:
                    prod[s + t] = c.add(prod[s + t], c.mul(x, y))
        for top in range(2 * d - 2, d - 1, -1):
            lead = prod[top]
            for k, m in enumerate(self.modulus):
                if lead and m:
                    prod[top - d + k] = c.add(prod[top - d + k], c.neg(c.mul(lead, m)))
        return self.index(prod[:d])

    def inv(self, i: int) -> int:
        acc, base, e = 1, i, self.order - 2
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc


def combine_mod_p(
    p: int, coeffs: Sequence[int], vectors: Sequence[Sequence[int]], width: int
) -> tuple[int, ...]:
    """sum_k coeffs[k] * vectors[k] mod p, one symbol at a time in plain ints;
    a vector shorter than ``width`` counts as zero beyond its end."""
    out = []
    for i in range(width):
        total = 0
        for c, vec in zip(coeffs, vectors):
            if i < len(vec):
                total += c * vec[i]
        out.append(total % p)
    return tuple(out)


def reference_field(field) -> RefQuotient:
    """A RefQuotient tower with the same moduli as a BaseField or ExtField."""
    if isinstance(field, ExtField):
        return RefQuotient(reference_field(field.base), field.modulus)
    return RefQuotient(RefPrime(field.p), field.modulus)


def elements(field) -> list[FieldElement]:
    """Every element of a field, in index order."""
    return [FieldElement(field, i) for i in range(field.order)]


def embed(ext: ExtField, sym: Union[int, FieldElement]) -> FieldElement:
    """The constant embedding of the subfield, which is the identity on indices."""
    return FieldElement(ext, ext.subfield.element(sym).index)


# -- codes ---------------------------------------------------------------------


def all_vectors(field, n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(field.order), repeat=n)


def dot_idx(field, u: Sequence[int], v: Sequence[int]) -> int:
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add_idx(acc, field.mul_idx(a, b))
    return acc


def matvec_idx(field, rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(dot_idx(field, r, v) for r in rows)


def brute_dual_words(field, gen_rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """All v with G v^T = 0, including the zero word, by full enumeration."""
    words = []
    for v in all_vectors(field, ncols):
        if all(dot_idx(field, row, v) == 0 for row in gen_rows):
            words.append(v)
    return words


def brute_codewords(field, gen_rows: Sequence[Sequence[int]], ncols: int) -> set[tuple[int, ...]]:
    """The row span of G, by running over every message vector."""
    k = len(gen_rows)
    out = set()
    for msg in all_vectors(field, k):
        word = [0] * ncols
        for c, row in zip(msg, gen_rows):
            if c:
                for j, g in enumerate(row):
                    if g:
                        word[j] = field.add_idx(word[j], field.mul_idx(c, g))
        out.add(tuple(word))
    return out


def brute_min_distance(field, gen_rows: Sequence[Sequence[int]], ncols: int) -> int:
    best = None
    for word in brute_codewords(field, gen_rows, ncols):
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    if best is None:
        raise ValueError("zero code has no distance")
    return best


def dual_support_forges(dual_words, members: Iterable[int], target: int) -> bool:
    """Dual-support route: some dual word is nonzero at target and vanishes
    outside members + {target}.  Indices are 1-based."""
    allowed = set(members) | {target}
    for w in dual_words:
        if w[target - 1] == 0:
            continue
        if all(w[j] == 0 for j in range(len(w)) if (j + 1) not in allowed):
            return True
    return False


def brute_forgeable(field, gen_rows, ncols: int, members: Iterable[int], target: int) -> bool:
    """``dual_support_forges`` on the brute-force dual of G."""
    return dual_support_forges(brute_dual_words(field, gen_rows, ncols), members, target)


def brute_minimal_qualified(
    field, gen_rows, ncols: int, target: int, words=None
) -> list[frozenset[int]]:
    """Inclusion-minimal coalitions that can forge against ``target``;
    ``words`` may pass in the brute-force dual words already computed."""
    others = [i for i in range(1, ncols + 1) if i != target]
    if words is None:
        words = brute_dual_words(field, gen_rows, ncols)
    qualified = []
    for size in range(0, len(others) + 1):
        for combo in itertools.combinations(others, size):
            s = frozenset(combo)
            if any(prev <= s for prev in qualified):
                continue
            if dual_support_forges(words, s, target):
                qualified.append(s)
    return sorted(qualified, key=lambda s: (len(s), sorted(s)))


def brute_minimal_words(words, target: int) -> list[tuple[int, ...]]:
    """The words with 1 (index 1) at ``target`` whose support strictly
    contains no other such word's support, sorted."""
    ones = [(w, frozenset(j for j, x in enumerate(w) if x)) for w in words if w[target - 1] == 1]
    return sorted(w for w, s in ones if not any(t < s for _, t in ones))


def brute_solutions(field, a_rows, b_col) -> list[tuple[int, ...]]:
    """Every x with A x = b over a small field, by full enumeration."""
    n = len(a_rows[0]) if a_rows else 0
    return [
        x
        for x in all_vectors(field, n)
        if all(dot_idx(field, row, x) == bi for row, bi in zip(a_rows, b_col))
    ]


# -- scheme-level oracles ------------------------------------------------------


def linearized_eval(
    coeffs: Sequence[FieldElement],
    tracker: Union[int, FieldElement],
    s: FieldElement,
) -> FieldElement:
    """tracker * a_0 + sum_{t=1}^{M} a_t * s^(q^(t-1)).

    Powers are computed by square-and-multiply, independently of the
    library's Frobenius-matrix path, so the two can cross-check each other.
    """
    field = s.field
    if not isinstance(field, ExtField):
        raise FieldMismatch("linearized maps act on extension-field elements")
    if not coeffs:
        raise LengthMismatch("need at least the constant coefficient")
    for c in coeffs:
        if c.field != field:
            raise FieldMismatch("coefficients must live in the same field as s")
    q = field.base.order
    acc = embed(field, tracker) * coeffs[0]
    power = s
    for t in range(1, len(coeffs)):
        if t > 1:
            power = power**q
        acc = acc + coeffs[t] * power
    return acc


def _pow_q(x: FieldElement, q: int, times: int) -> FieldElement:
    for _ in range(times):
        x = x**q
    return x


def packet_powers(pp: PublicParams, tracker: int, payload: Sequence[int]) -> list[FieldElement]:
    """(tracker, s, s^q, ..., s^(q^(M-1))) computed by plain powering."""
    ext = pp.ext
    s = ext.from_coords(list(payload))
    out = [embed(ext, tracker)]
    for t in range(1, pp.M + 1):
        out.append(_pow_q(s, pp.base.order, t - 1))
    return out


def brute_consistent_keys(
    pp: PublicParams,
    members: Sequence[int],
    columns: Sequence[Sequence[FieldElement]],
    packets: Sequence[TaggedPacket],
    candidates: Iterable[Sequence[Sequence[FieldElement]]] | None = None,
) -> Iterator[tuple[tuple[FieldElement, ...], ...]]:
    """Every (M+1) x kdim master key matching the view, by trying them all.

    A member constraint (key row r) . g_i = column_i[r] involves row r
    alone, so every possible row is checked against the members' entries
    for its position first; every key formed from rows that pass is then
    checked against every packet's tag.  Keys come out in row-major
    product order; all arithmetic is on field indices.

    ``candidates``, when given, are the keys tried instead of every
    matrix: the keys of a view with fewer packets, say, which hold every
    key of a view that sees more.  Each is checked in full all the same.
    """
    ext = pp.ext
    gens = [list(pp.generator_indices(i)) for i in members]
    cols = [[e.index for e in col] for col in columns]
    row_options = [
        [
            row
            for row in all_vectors(ext, pp.kdim)
            if all(dot_idx(ext, row, g) == col[r] for g, col in zip(gens, cols))
        ]
        for r in range(pp.M + 1)
    ]
    checks = [
        (
            [e.index for e in packet_powers(pp, pkt.tracker, pkt.payload)],
            [e.index for e in pkt.tag],
        )
        for pkt in packets
    ]
    if candidates is None:
        keys = itertools.product(*row_options)
    else:
        allowed = [set(options) for options in row_options]
        keys = (
            rows
            for rows in (tuple(tuple(e.index for e in row) for row in key) for key in candidates)
            if all(row in ok for row, ok in zip(rows, allowed))
        )
    for rows in keys:
        if all(
            dot_idx(ext, [row[t] for row in rows], d) == tag[t]
            for d, tag in checks
            for t in range(pp.kdim)
        ):
            yield tuple(tuple(FieldElement(ext, v) for v in row) for row in rows)


def brute_label(
    pp: PublicParams,
    key_rows: Sequence[Sequence[FieldElement]],
    target: int,
    tracker: int,
    payload: Sequence[int],
) -> FieldElement:
    """The label verifier ``target`` derives, all by direct arithmetic."""
    ext = pp.ext
    g = [ext.element(x) for x in pp.generator_indices(target)]
    d = packet_powers(pp, tracker, payload)
    acc = ext.zero
    for r in range(pp.M + 1):
        b_r = ext.zero
        for t in range(pp.kdim):
            b_r = b_r + key_rows[r][t] * g[t]
        acc = acc + d[r] * b_r
    return acc


def brute_label_histogram(
    pp: PublicParams,
    members: Sequence[int],
    columns: Sequence[Sequence[FieldElement]],
    packets: Sequence[TaggedPacket],
    target: int,
    tracker: int,
    payload: Sequence[int],
) -> dict[int, int]:
    keys = brute_consistent_keys(pp, members, columns, packets)
    return brute_label_histogram_over(pp, keys, target, tracker, payload)


def brute_label_histogram_over(
    pp: PublicParams,
    keys: Iterable[Sequence[Sequence[FieldElement]]],
    target: int,
    tracker: int,
    payload: Sequence[int],
) -> dict[int, int]:
    """``brute_label_histogram`` over keys already enumerated, so one
    enumeration serves many targets and payloads."""
    hist: dict[int, int] = {}
    for rows in keys:
        lab = brute_label(pp, rows, target, tracker, payload)
        hist[lab.index] = hist.get(lab.index, 0) + 1
    return hist


def spanned_vectors(field, rows: Sequence[Sequence[int]], width: int) -> set[tuple[int, ...]]:
    """Every vector in the row span (tiny spaces only)."""
    out = set()
    for coeffs in all_vectors(field, len(rows)):
        v = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = field.add_idx(v[j], field.mul_idx(c, x))
        out.add(tuple(v))
    if not rows:
        out.add(tuple([0] * width))
    return out


# -- elliptic-curve group law --------------------------------------------------


def reference_ec_add(p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent addition in ``FieldElement`` arithmetic."""
    if p.curve != q.curve:
        raise FieldMismatch("points on different curves")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x and p.y == -q.y:
        return ECPoint.infinity(p.curve)
    if p.x == q.x:
        # tangent: lambda = (3x^2 + a) / 2y
        three_x2 = p.x * p.x + p.x * p.x + p.x * p.x
        lam = (three_x2 + p.curve.a) / (p.y + p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return ECPoint(p.curve, x3, y3)


def reference_classify(spec, coalition: Iterable[int], target: int) -> CoalitionClass:
    """The point-sum verdict, summing the whole complement with
    ``reference_ec_add``; coalition and target are 1-based and valid."""
    members = sorted(set(coalition))
    n, k = spec.n, spec.degree
    complement = [i for i in range(1, n + 1) if i not in members]
    comp_sum = ECPoint.infinity(spec.curve)
    for i in complement:
        comp_sum = reference_ec_add(comp_sum, spec.points[i - 1])
    size = len(members)
    if size <= n - k - 2:
        return CoalitionClass(Forgeability.NOT_FORGEABLE, comp_sum, None)
    if size == n - k - 1:
        for i in complement:
            if spec.points[i - 1] == comp_sum:
                return CoalitionClass(Forgeability.SINGLE_TARGET, comp_sum, i)
        return CoalitionClass(Forgeability.NOT_FORGEABLE, comp_sum, None)
    if size == n - k and comp_sum.is_infinity:
        return CoalitionClass(Forgeability.NOT_FORGEABLE, comp_sum, None)
    return CoalitionClass(Forgeability.ALL_TARGETS, comp_sum, None)


def ec_neg(p: ECPoint) -> ECPoint:
    if p.is_infinity:
        return p
    return ECPoint(p.curve, p.x, -p.y)


def ec_mul(n: int, p: ECPoint) -> ECPoint:
    """n * p by double-and-add over ``reference_ec_add``."""
    if n < 0:
        return ec_mul(-n, ec_neg(p))
    acc = ECPoint.infinity(p.curve)
    add = p
    while n:
        if n & 1:
            acc = reference_ec_add(acc, add)
        add = reference_ec_add(add, add)
        n >>= 1
    return acc
