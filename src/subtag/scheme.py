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
the code's own index tuples (``LinearCode.columns``, read through
``PublicParams.generator_indices``).  Each key and packet is checked
once, where it is made, and keeps its field and its elements' indices.
From outside input, a VerifierKey checks that its column holds elements
of one field; a TaggedPacket, that its tag holds indices of one
extension field and its tracker and l payload coordinates are symbols
of that field's base.  Keys and packets the library computes itself go
through ``_made``, which skips these checks, so verify(),
combine_packets() and the attacks test only what needs the params: the
kept field, the tag count, the key height and the verifier index.
Payloads and coefficients passed in alone are base-field symbol indices
(``Field._symbols``), checked by each public entry.  Seeds are integers
naming the labelled streams of ``subtag.rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import repeat
from collections.abc import Sequence
from typing import Optional

from .codes import LinearCode
from .errors import (
    DependentBasis,
    FieldMismatch,
    InvalidParams,
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
    The dual's side is checked without building the dual: dual column j
    is zero exactly when e_j lies in the code, that is when j is a pivot
    whose reduced row is e_j, read off the generator's one elimination.
    A code built as a dual (a curve's residue code) holds its dual
    already, and its columns are read directly.
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
        for j, col in enumerate(self.code.columns):
            if not any(col):
                raise InvalidParams(
                    f"generator column {j + 1} is zero (dual distance below 2)"
                )
        code = self.code
        if code.kdim == code.length:  # generators have full rank, so the dual is zero
            raise InvalidParams("the full space has minimum distance 1")
        if code._dual is not None:  # built as a dual: read the one it holds
            zero = (j for j, col in enumerate(code._dual.columns) if not any(col))
        else:
            reduced, _, pivots = code.generator._reduced()
            rows = reduced.to_index_rows()
            zero = (j for r, j in enumerate(pivots) if not any(rows[r][j + 1:]))
        j = next(zero, None)
        if j is not None:
            raise InvalidParams(f"dual generator column {j + 1} is zero (distance below 2)")

    @property
    def l(self) -> int:
        return self.ext.l

    @property
    def V(self) -> int:
        return self.code.length

    @property
    def kdim(self) -> int:
        return self.code.kdim

    @cached_property
    def packet_symbols(self) -> int:
        """Wire size of one tagged packet, in F_q symbols."""
        return 1 + self.l + self.kdim * self.l

    @cached_property
    def _tag_slots(self) -> tuple[tuple[int, int], ...]:
        """Per verifier: the first t with g_t != 0 (``__post_init__`` refused
        zero columns) and the index of 1/g_t."""
        inv = self.ext.inv_idx
        slots = []
        for col in self.code.columns:
            t = next(t for t, g in enumerate(col) if g)
            slots.append((t, inv(col[t])))
        return tuple(slots)

    def generator_indices(self, i: int) -> tuple[int, ...]:
        """Column of G for verifier i (1-based), as field indices."""
        if not 1 <= i <= self.V:
            raise InvalidParams(f"verifier index {i} outside 1..{self.V}")
        return self.code.columns[i - 1]

    def tag_slot(self, i: int) -> tuple[int, int]:
        """(t*, index of 1/g[t*]) for verifier i: t* is the first tag slot
        where i's generator column is nonzero."""
        self.generator_indices(i)  # the range check
        return self._tag_slots[i - 1]


@dataclass(frozen=True)
class MasterKey:
    matrix: Matrix  # (M+1) x kdim over the extension field


def _one_field(elements: Sequence[FieldElement]) -> tuple[object, tuple[int, ...]]:
    """The one field that ``elements`` share, and their indices."""
    field = getattr(elements[0], "field", None) if elements else None
    for e in elements:
        if not isinstance(e, FieldElement) or (e.field is not field and e.field != field):
            raise FieldMismatch(f"{elements!r} are not elements of one field")
    return field, tuple(e.index for e in elements)


def _made(cls, field: ExtField, indices: tuple[int, ...], *lead):
    """A key or packet over ``field`` with these element indices, which its
    caller has just checked or computed, built without the constructor's
    checks; ``lead`` is the key's index or the packet's tracker and payload."""
    held = object.__new__(cls)
    values = (*lead, tuple(map(FieldElement, repeat(field), indices)), (field, indices))
    held.__dict__.update(zip(cls.__dataclass_fields__, values))
    return held


def _indices_in(ext: ExtField, held: "VerifierKey | TaggedPacket") -> tuple[int, ...]:
    """The indices a key or packet kept when built, once its field is ext."""
    field, idx = held._indexed
    if field is not ext and field != ext:
        raise FieldMismatch(f"{type(held).__name__} elements do not belong to {ext.name}")
    return idx


@dataclass(frozen=True)
class VerifierKey:
    index: int
    column: tuple[FieldElement, ...]  # M+1 extension elements
    _indexed: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        field, idx = _one_field(self.column)
        if idx:
            field._symbols(idx)  # verify reads them unchecked
        object.__setattr__(self, "_indexed", (field, idx))


@dataclass(frozen=True)
class TaggedPacket:
    """Tracker symbol, payload coordinates, and kdim tag elements."""

    tracker: int
    payload: tuple[int, ...]
    tag: tuple[FieldElement, ...]
    _indexed: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        field, idx = _one_field(self.tag)
        if not isinstance(field, ExtField):
            # an empty tag has the wrong width, any other the wrong field
            error = FieldMismatch if idx else LengthMismatch
            raise error(f"a tag holds elements of one extension field, not {self.tag!r}")
        if len(self.payload) != field.l:
            raise LengthMismatch(f"payload needs {field.l} coordinates, got {len(self.payload)}")
        syms = field.base._symbols((self.tracker, *self.payload))
        field._symbols(idx)  # verify and combine_packets read them unchecked
        object.__setattr__(self, "payload", syms[1:])
        object.__setattr__(self, "_indexed", (field, idx))

    def symbols(self) -> tuple[int, ...]:
        """Flat wire image over F_q: tracker, payload, tag coordinates."""
        out = [self.tracker, *self.payload]
        for t in self.tag:
            out.extend(t.coords)
        return tuple(out)

    @classmethod
    def from_symbols(cls, pp: PublicParams, syms: Sequence[int]) -> "TaggedPacket":
        """The packet whose wire image is ``syms``, a sequence of
        ``pp.packet_symbols`` base-field symbols."""
        # wires are tuples and lists, so the abstract check rarely runs
        if not isinstance(syms, (tuple, list)) and not isinstance(syms, Sequence):
            raise LengthMismatch(
                f"expected a sequence of {pp.packet_symbols} symbols, not {type(syms).__name__}"
            )
        if len(syms) != pp.packet_symbols:
            raise LengthMismatch(f"expected {pp.packet_symbols} symbols, got {len(syms)}")
        syms = pp.base._symbols(syms)
        l = pp.l
        # l references to one iterator: zip groups the tag digits l at a time
        tag = tuple(map(pp.ext.from_digits, zip(*[iter(syms[1 + l:])] * l)))
        return _made(cls, pp.ext, tag, syms[0], syms[1 : 1 + l])


def _check_payload(pp: PublicParams, payload: Sequence[int]) -> tuple[int, ...]:
    if len(payload) != pp.l:
        raise LengthMismatch(f"payload needs {pp.l} coordinates, got {len(payload)}")
    return pp.base._symbols(payload)


def keygen(pp: PublicParams, seed: int) -> MasterKey:
    """Uniform master key from the authority's labelled stream."""
    r = _rng.stream(seed, "ta")
    rows = tuple(
        tuple(r.randrange(pp.ext.order) for _ in range(pp.kdim)) for _ in range(pp.M + 1)
    )
    return MasterKey(Matrix._of(pp.ext, rows, pp.kdim))


def distribute(
    pp: PublicParams, mk: MasterKey, counter: Optional[OpCounter] = None
) -> tuple[VerifierKey, ...]:
    """Per-verifier key columns B = A G; (M+1)*kdim*V multiplications."""
    b = mk.matrix @ pp.code.generator
    if counter is not None:
        counter.add(mults=(pp.M + 1) * pp.kdim * pp.V)
    columns = zip(*b.to_index_rows())
    return tuple(_made(VerifierKey, pp.ext, col, i) for i, col in enumerate(columns, 1))


def label_row(pp: PublicParams, tracker: int, payload: Sequence[int]) -> tuple[int, ...]:
    """(tracker, s, s^q, ..., s^(q^(M-1))) as extension-field indices.

    Tags, labels and every attack constraint are this row weighted by a
    column of the master key or of a verifier key.
    """
    payload = _check_payload(pp, payload)
    return _label_row(pp, pp.base._symbols((tracker,))[0], payload)


def _label_row(pp: PublicParams, tracker: int, payload: tuple[int, ...]) -> tuple[int, ...]:
    """``label_row`` of a tracker and payload the caller already checked."""
    s = pp.ext.from_digits(payload)
    # the constant embedding of F_q is the identity on indices
    return (tracker,) + pp.ext.frobenius_chain(s, pp.M)


def tag_payload(
    pp: PublicParams,
    mk: MasterKey,
    payload: Sequence[int],
    counter: Optional[OpCounter] = None,
) -> TaggedPacket:
    """One source packet: tracker 1, the payload, and its kdim tags."""
    payload = _check_payload(pp, payload)  # the one check of the payload
    ext = pp.ext
    if mk.matrix.field != ext:
        raise FieldMismatch("master key must live in the extension field")
    # the tag vector is the label row weighting the rows of A
    tags = ext.combine(_label_row(pp, 1, payload), mk.matrix.to_index_rows(), pp.kdim)
    if counter is not None:
        counter.add(mults=pp.kdim * pp.M, frobs=pp.M - 1)
    return _made(TaggedPacket, ext, tags, 1, payload)


def tag_basis(
    pp: PublicParams,
    mk: MasterKey,
    basis: Sequence[Sequence[int]],
    counter: Optional[OpCounter] = None,
) -> tuple[TaggedPacket, ...]:
    """Tag an n-vector payload basis; a dependent one is refused after tagging."""
    if len(basis) != pp.n:
        raise InvalidParams(f"expected {pp.n} basis vectors, got {len(basis)}")
    packets = tuple(tag_payload(pp, mk, v, counter) for v in basis)
    if _rank(pp.base, tuple(p.payload for p in packets), pp.l) != pp.n:
        raise DependentBasis("payload vectors are linearly dependent over F_q")
    return packets


def label(
    pp: PublicParams,
    vk: VerifierKey,
    tracker: int,
    payload: Sequence[int],
    counter: Optional[OpCounter] = None,
) -> FieldElement:
    """Verifier-side combination of tracker and payload with the key column."""
    return FieldElement(pp.ext, _label_idx(pp, vk, label_row(pp, tracker, payload), counter))


def _label_idx(
    pp: PublicParams, vk: VerifierKey, row: tuple[int, ...], counter: Optional[OpCounter]
) -> int:
    """Index of the label row ``row`` weighting key column b."""
    if len(vk.column) != pp.M + 1:
        raise LengthMismatch("verifier key column has the wrong height")
    if counter is not None:
        counter.add(mults=pp.M + 1, frobs=pp.M - 1)
    return pp.ext.dot(row, _indices_in(pp.ext, vk))


def verify(
    pp: PublicParams,
    vk: VerifierKey,
    pkt: TaggedPacket,
    counter: Optional[OpCounter] = None,
) -> bool:
    """Accept iff the label equals the G-weighted tag combination."""
    ext = pp.ext
    tag = _indices_in(ext, pkt)  # so the tracker and payload are ext's symbols
    if len(tag) != pp.kdim:
        raise LengthMismatch("tag has the wrong number of components")
    lhs = _label_idx(pp, vk, _label_row(pp, pkt.tracker, pkt.payload), None)
    rhs = ext.dot(tag, pp.generator_indices(vk.index))
    if counter is not None:
        # the label's schedule and the kdim products of the tag sum at once
        counter.add(mults=pp.M + 1 + pp.kdim, frobs=pp.M - 1)
    return lhs == rhs


def combine_packets(
    pp: PublicParams,
    packets: Sequence[TaggedPacket],
    coeffs: Sequence[int],
) -> TaggedPacket:
    """F_q-linear combination, by base-field symbols, of the wire images.

    Coefficients must be indices of the base field; each packet checked
    its symbols when it was built, and is tested only for its field and width.
    """
    if len(packets) != len(coeffs) or not packets:
        raise LengthMismatch("need one coefficient per packet")
    width, base = pp.packet_symbols, pp.base
    if any(len(_indices_in(pp.ext, pkt)) != pp.kdim for pkt in packets):
        raise LengthMismatch("packet width does not match the parameters")
    wires = [pkt.symbols() for pkt in packets]
    return TaggedPacket.from_symbols(pp, base.combine(base._symbols(coeffs), wires, width))


@lru_cache(maxsize=16)
def _rank(base: BaseField, rows: tuple[tuple[int, ...], ...], width: int) -> int:
    """Rank of checked symbol rows over ``base``.  Cached by value, so the
    basis ``random_payload_basis`` returns is not eliminated again when
    ``tag_basis`` tags it: a rank depends on the field and the rows alone."""
    return Matrix._of(base, rows, width).rank()


def random_payload_basis(pp: PublicParams, seed: int) -> tuple[tuple[int, ...], ...]:
    """A uniform n-dimensional payload basis (rejection sampled)."""
    r = _rng.stream(seed, "source")
    for _ in range(_BASIS_ATTEMPTS):
        rows = tuple(
            tuple(r.randrange(pp.base.order) for _ in range(pp.l))
            for _ in range(pp.n)
        )
        if _rank(pp.base, rows, pp.l) == pp.n:
            return rows
    raise RankDeficient(f"no independent basis found in {_BASIS_ATTEMPTS} attempts")
