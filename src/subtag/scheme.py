"""Keying, tagging, and verification of subspace messages.

The authority draws a master key A, an (M+1) x kdim matrix over F_{q^l},
publishes a code generator G, and hands verifier i the i-th column of
B = A G.  A source packet for payload s in F_q^l is

    [ 1 | s | tag_1(s) ... tag_kdim(s) ]

where tag_t(s) = a_{0,t} + sum_j a_{j,t} s^(q^(j-1)) is a linearized map
evaluated through the coordinate identification of F_q^l with F_{q^l}.
Network nodes only ever take F_q-linear combinations of packets, which
adds combination coefficients into the leading tracker symbol; verifier i
accepts a received packet exactly when

    tracker * b_{0,i} + sum_t payload^(q^(t-1)) * b_{t,i}
        == sum_t tag_t * g_{t,i}.

Acceptance is F_q-linear in the packet, so any honest mixture of tagged
packets passes every verifier.

Verification costs are data-independent: per packet, M-1 Frobenius steps
and M + kdim + 1 extension multiplications.  The optional OpCounter
records these schedule counts so tests can pin them down.  verify(),
tag_payload() and TaggedPacket.from_symbols() run on raw field indices:
the label row, the label, the weighted tag sum and the unpacked tag
chunks never build intermediate FieldElements.  Generator columns are
read as index tuples (``PublicParams.generator_indices``); FieldElement
appears only in the keys, tags and labels handed to callers, where it
also guards against elements of another field.  Trackers and payloads
come in as base-field symbol indices, range-checked by ``_symbols``, and
seeds are integers naming the labelled streams of ``subtag.rng``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .codes import LinearCode
from .errors import (
    DependentBasis,
    FieldMismatch,
    InvalidParams,
    InvariantViolated,
    LengthMismatch,
    RankDeficient,
)
from .fields import BaseField, ExtField, FieldElement
from .linalg import Matrix
from . import rng as _rng

__all__ = [
    "OpCounter",
    "PublicParams",
    "MasterKey",
    "VerifierKey",
    "TaggedPacket",
    "keygen",
    "distribute",
    "tag_payload",
    "tag_basis",
    "label_row",
    "label",
    "verify",
    "combine_packets",
    "random_payload_basis",
]

# Rejection-sampling budget for random_payload_basis.  A uniform n x l
# matrix over F_q with n <= l has full rank with probability above 0.28,
# so exhausting it is out of reach for any seed.
_BASIS_ATTEMPTS = 1000


@dataclass
class OpCounter:
    """Tallies of extension-field work, by schedule (zeros still count)."""

    ext_mults: int = 0
    frobenius_steps: int = 0

    def add(self, mults: int = 0, frobs: int = 0) -> None:
        self.ext_mults += mults
        self.frobenius_steps += frobs


@dataclass(frozen=True)
class PublicParams:
    """Everything public: fields, dimensions, and the key-spreading code.

    n is the message-subspace dimension, M the tagging degree (M >= n so
    a whole transmission generation stays taggable), and the code must
    keep both itself and its dual at minimum distance 2 or more; either
    failing means some verifier key column or constraint would be void.
    """

    base: BaseField
    ext: ExtField
    n: int
    M: int
    code: LinearCode

    def __post_init__(self):
        if self.ext.base != self.base:
            raise InvalidParams("extension field does not sit over the base field")
        if self.code.field != self.ext:
            raise InvalidParams("code must be defined over the extension field")
        if not 1 <= self.n <= self.ext.l:
            raise InvalidParams(f"need 1 <= n <= l, got n={self.n}, l={self.ext.l}")
        if self.M < self.n:
            raise InvalidParams(f"need M >= n, got M={self.M}, n={self.n}")
        if self.code.is_zero:
            raise InvalidParams("zero-dimensional codes distribute no keys")
        for j, col in enumerate(self._columns):
            if not any(col):
                raise InvalidParams(
                    f"generator column {j + 1} is zero (dual distance below 2)"
                )
        dual = self.code.dual()
        if dual.is_zero:
            raise InvalidParams("the full space has minimum distance 1")
        for j, col in enumerate(zip(*dual.generator.to_index_rows())):
            if not any(col):
                raise InvalidParams(
                    f"dual generator column {j + 1} is zero (distance below 2)"
                )

    @property
    def l(self) -> int:
        return self.ext.l

    @property
    def V(self) -> int:
        return self.code.length

    @property
    def kdim(self) -> int:
        return self.code.kdim

    @property
    def packet_symbols(self) -> int:
        """Wire size of one tagged packet, in F_q symbols."""
        return 1 + self.l + self.kdim * self.l

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns of G as index tuples, one per verifier."""
        return tuple(zip(*self.code.generator.to_index_rows()))

    @cached_property
    def _tag_slots(self) -> tuple[tuple[int, int] | None, ...]:
        """Per verifier: the first t with g_t != 0 and the index of 1/g_t,
        or None for a zero column."""
        inv = self.ext.inv_idx
        slots = []
        for col in self._columns:
            t = next((t for t, g in enumerate(col) if g), None)
            slots.append(None if t is None else (t, inv(col[t])))
        return tuple(slots)

    def generator_indices(self, i: int) -> tuple[int, ...]:
        """Column of G for verifier i (1-based), as field indices."""
        if not 1 <= i <= self.V:
            raise InvalidParams(f"verifier index {i} outside 1..{self.V}")
        return self._columns[i - 1]

    def tag_slot(self, i: int) -> tuple[int, int]:
        """(t*, index of 1/g[t*]) for verifier i: t* is the first tag slot
        where i's generator column is nonzero."""
        self.generator_indices(i)  # the range check
        slot = self._tag_slots[i - 1]
        if slot is None:
            raise InvariantViolated(
                f"generator column {i} is zero; params validation forbids that"
            )
        return slot


@dataclass(frozen=True)
class MasterKey:
    matrix: Matrix  # (M+1) x kdim over the extension field


@dataclass(frozen=True)
class VerifierKey:
    index: int
    column: tuple[FieldElement, ...]  # M+1 extension elements


@dataclass(frozen=True)
class TaggedPacket:
    """Tracker symbol, payload coordinates, and kdim tag elements."""

    tracker: int
    payload: tuple[int, ...]
    tag: tuple[FieldElement, ...]

    def symbols(self) -> tuple[int, ...]:
        """Flat wire image over F_q: tracker, payload, tag coordinates."""
        out = [self.tracker, *self.payload]
        for t in self.tag:
            out.extend(t.coords)
        return tuple(out)

    @classmethod
    def from_symbols(cls, pp: PublicParams, syms: Sequence[int]) -> "TaggedPacket":
        if len(syms) != pp.packet_symbols:
            raise LengthMismatch(
                f"expected {pp.packet_symbols} symbols, got {len(syms)}"
            )
        syms = _symbols(pp, syms)
        l, ext = pp.l, pp.ext
        tag = tuple(
            FieldElement(ext, ext._from_digits(syms[start : start + l]))
            for start in range(1 + l, len(syms), l)
        )
        return cls(tracker=syms[0], payload=syms[1 : 1 + l], tag=tag)


def _symbols(pp: PublicParams, values: Sequence[int]) -> tuple[int, ...]:
    """Base-field symbol indices, each checked to be in range."""
    out = tuple(map(int, values))
    q = pp.base.order
    for v in out:
        if not 0 <= v < q:
            raise InvalidParams(f"symbol {v} out of range for {pp.base.name}")
    return out


def _indices(field: ExtField, elements: Sequence[FieldElement]) -> list[int]:
    """Indices of elements that must belong to ``field``."""
    out = []
    for e in elements:
        if not isinstance(e, FieldElement) or (e.field is not field and e.field != field):
            raise FieldMismatch(f"{e!r} does not belong to {field.name}")
        out.append(e.index)
    return out


def _check_payload(pp: PublicParams, payload: Sequence[int]) -> tuple[int, ...]:
    if len(payload) != pp.l:
        raise LengthMismatch(f"payload needs {pp.l} coordinates, got {len(payload)}")
    return _symbols(pp, payload)


def keygen(pp: PublicParams, seed: int) -> MasterKey:
    """Uniform master key from the authority's labelled stream."""
    r = _rng.stream(seed, "ta")
    rows = [
        [r.randrange(pp.ext.order) for _ in range(pp.kdim)] for _ in range(pp.M + 1)
    ]
    return MasterKey(Matrix.from_indices(pp.ext, rows, ncols=pp.kdim))


def distribute(
    pp: PublicParams, mk: MasterKey, counter: Optional[OpCounter] = None
) -> tuple[VerifierKey, ...]:
    """Per-verifier key columns B = A G; (M+1)*kdim*V multiplications."""
    b = mk.matrix @ pp.code.generator
    if counter is not None:
        counter.add(mults=(pp.M + 1) * pp.kdim * pp.V)
    return tuple(VerifierKey(i + 1, b.column(i)) for i in range(pp.V))


def label_row(pp: PublicParams, tracker: int, payload: Sequence[int]) -> tuple[int, ...]:
    """(tracker, s, s^q, ..., s^(q^(M-1))) as extension-field indices.

    Tags, labels and every attack constraint are this row weighted by a
    column of the master key or of a verifier key.
    """
    s = pp.ext._from_digits(_check_payload(pp, payload))
    # the constant embedding of F_q is the identity on indices
    return _symbols(pp, (tracker,)) + pp.ext.frobenius_chain(s, pp.M)


def tag_payload(
    pp: PublicParams,
    mk: MasterKey,
    payload: Sequence[int],
    counter: Optional[OpCounter] = None,
) -> TaggedPacket:
    """One source packet: tracker 1, the payload, and its kdim tags."""
    payload = _check_payload(pp, payload)
    row = label_row(pp, 1, payload)
    ext = pp.ext
    if mk.matrix.field != ext:
        raise FieldMismatch("master key must live in the extension field")
    # the tag vector is the label row weighting the rows of A
    tags = ext.combine(row, mk.matrix.to_index_rows(), pp.kdim)
    if counter is not None:
        counter.add(mults=pp.kdim * pp.M, frobs=pp.M - 1)
    return TaggedPacket(
        tracker=1, payload=payload, tag=tuple(FieldElement(ext, t) for t in tags)
    )


def tag_basis(
    pp: PublicParams,
    mk: MasterKey,
    basis: Sequence[Sequence[int]],
    counter: Optional[OpCounter] = None,
) -> tuple[TaggedPacket, ...]:
    """Tag an n-vector payload basis; rejects dependent bases."""
    if len(basis) != pp.n:
        raise InvalidParams(f"expected {pp.n} basis vectors, got {len(basis)}")
    rows = [_check_payload(pp, v) for v in basis]
    mat = Matrix.from_indices(pp.base, rows, ncols=pp.l)
    if mat.rank() != pp.n:
        raise DependentBasis("payload vectors are linearly dependent over F_q")
    return tuple(tag_payload(pp, mk, v, counter) for v in rows)


def label(
    pp: PublicParams,
    vk: VerifierKey,
    tracker: int,
    payload: Sequence[int],
    counter: Optional[OpCounter] = None,
) -> FieldElement:
    """Verifier-side combination of tracker and payload with the key column."""
    return FieldElement(pp.ext, _label_idx(pp, vk, tracker, payload, counter))


def _label_idx(
    pp: PublicParams,
    vk: VerifierKey,
    tracker: int,
    payload: Sequence[int],
    counter: Optional[OpCounter],
) -> int:
    """Index of tracker * b_0 + sum_t s^(q^(t-1)) * b_t for key column b."""
    row = label_row(pp, tracker, payload)
    if len(vk.column) != pp.M + 1:
        raise LengthMismatch("verifier key column has the wrong height")
    if counter is not None:
        counter.add(mults=pp.M + 1, frobs=pp.M - 1)
    return pp.ext.dot(row, _indices(pp.ext, vk.column))


def verify(
    pp: PublicParams,
    vk: VerifierKey,
    pkt: TaggedPacket,
    counter: Optional[OpCounter] = None,
) -> bool:
    """Accept iff the label equals the G-weighted tag combination."""
    lhs = _label_idx(pp, vk, pkt.tracker, pkt.payload, counter)
    if len(pkt.tag) != pp.kdim:
        raise LengthMismatch("tag has the wrong number of components")
    ext = pp.ext
    rhs = ext.dot(_indices(ext, pkt.tag), pp.generator_indices(vk.index))
    if counter is not None:
        counter.add(mults=pp.kdim)
    return lhs == rhs


def combine_packets(
    pp: PublicParams,
    packets: Sequence[TaggedPacket],
    coeffs: Sequence[Union[int, FieldElement]],
) -> TaggedPacket:
    """F_q-linear combination applied symbol-wise across the wire image."""
    if len(packets) != len(coeffs) or not packets:
        raise LengthMismatch("need one coefficient per packet")
    base, width = pp.base, pp.packet_symbols
    cs, wires = [], []
    for pkt, c in zip(packets, coeffs):
        if isinstance(c, FieldElement):
            if c.field is not base and c.field != base:
                raise FieldMismatch("combination coefficients live in the base field")
            cs.append(c.index)
        else:
            cs.append(base.element(int(c)).index)
        wires.append(pkt.symbols())
        if len(wires[-1]) != width:
            raise LengthMismatch("packet width does not match the parameters")
    return TaggedPacket.from_symbols(pp, base.combine(cs, wires, width))


def random_payload_basis(pp: PublicParams, seed: int) -> tuple[tuple[int, ...], ...]:
    """A uniform n-dimensional payload basis (rejection sampled)."""
    r = _rng.stream(seed, "source")
    for _ in range(_BASIS_ATTEMPTS):
        rows = [
            tuple(r.randrange(pp.base.order) for _ in range(pp.l))
            for _ in range(pp.n)
        ]
        if Matrix.from_indices(pp.base, rows, ncols=pp.l).rank() == pp.n:
            return tuple(rows)
    raise RankDeficient(f"no independent basis found in {_BASIS_ATTEMPTS} attempts")
