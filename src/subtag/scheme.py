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

Acceptance is F_q-linear in the packet's wire symbols, because the
q-power map is, so any honest mixture of tagged packets passes every
verifier.  Verifier i therefore accepts exactly the wires x with
W_i x = 0, for one l x packet_symbols matrix W_i over F_q that the key
and code columns fix: the null-key view of Kehdi and Li (INFOCOM 2009),
and the inner-product check of Agrawal and Boneh's homomorphic MACs.
verify() builds W_i on a key's first check under a PublicParams and keeps
it on the key with those params, in O(width) dots: column b_0 for the
tracker, sum_t u_j^(q^(t-1)) b_t for payload coordinate j (the basis
elements' Frobenius chains are cached per params) and -u_m g_k for
coordinate m of tag k.  ``Field._parity_check`` then checks a wire by
the base field's structure: one lane sum and one ``translate`` on the
byte lanes, one dot per row of W_i elsewhere.

The optional OpCounter records the paper's nominal schedule, not the work
done, so tests can pin it down: a verification counts M + kdim + 1
extension multiplications and M - 1 Frobenius steps, the cost of its
label and tag sum, however the check runs.  Everything runs on raw field
indices.  tag_payload() builds no intermediate FieldElements, and
TaggedPacket.from_symbols() keeps its checked wire tuple, so symbols()
costs nothing and verify() reads the wire; it makes the tag's indices
and elements only when they are first read.  Generator columns are
the code's own index tuples (``LinearCode.columns``, read through
``PublicParams.generator_indices``).  Each key and packet is checked
once, where it is made, and keeps its field and its elements' indices.
From outside input, a VerifierKey checks that its column holds elements
of one field; a TaggedPacket, that its tag holds indices of one
extension field and its tracker and l payload coordinates are symbols
of that field's base.  Keys and packets the library computes itself go
through ``_made`` or ``_wired``, which skip these checks, so verify(),
combine_packets() and the attacks test only what needs the params: the
kept field, the packet width, the key height and the verifier index.
Payloads and coefficients passed in alone are base-field symbol indices
(``Field._symbols``), checked by each public entry.  Seeds are integers
naming the labelled streams of ``subtag.rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import chain, repeat
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
from .linalg import Matrix, _echelon
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

    @cached_property
    def _units(self) -> tuple[int, ...]:
        """Indices of the basis elements u_j = x^j of F_{q^l} over F_q."""
        q = self.base.order
        return tuple(q**j for j in range(self.l))

    @cached_property
    def _unit_chains(self) -> tuple[tuple[int, ...], ...]:
        """(u_j, u_j^q, ..., u_j^(q^(M-1))) for each basis element u_j."""
        return tuple(self.ext.frobenius_chain(u, self.M) for u in self._units)

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
    # (params, predicate): verify's parity check, built on first use
    _check: Optional[tuple] = dc_field(default=None, init=False, compare=False, repr=False)

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
    # (field, wire): the wire image, kept by from_symbols, else made once
    _wire: Optional[tuple] = dc_field(default=None, init=False, compare=False, repr=False)

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

    def __getattr__(self, name: str):
        # a packet built from its wire makes its tag indices and elements
        # when they are first read
        held = self.__dict__.get("_wire")
        if held is None or name not in ("tag", "_indexed"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        field, wire = held
        l = field.l
        # l references to one iterator: zip groups the tag digits l at a time
        idx = tuple(map(field.from_digits, zip(*[iter(wire[1 + l :])] * l)))
        self.__dict__["_indexed"] = (field, idx)
        self.__dict__["tag"] = tuple(map(FieldElement, repeat(field), idx))
        return self.__dict__[name]

    def _pack(self) -> tuple:
        """(field, wire image) of a packet built from its tag, kept once made."""
        field, idx = self._indexed
        tag = chain.from_iterable(map(field.coords_of, idx))
        held = (field, (self.tracker, *self.payload, *tag))
        object.__setattr__(self, "_wire", held)
        return held

    def symbols(self) -> tuple[int, ...]:
        """Flat wire image over F_q: tracker, payload, tag coordinates."""
        return (self._wire or self._pack())[1]

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
        return _wired(cls, pp.ext, pp.base._symbols(syms))


def _wired(cls, ext: ExtField, wire: tuple[int, ...]) -> TaggedPacket:
    """The packet over ``ext`` whose wire image is ``wire``, a tuple of
    checked symbols of the right width; it keeps the wire, and makes its
    tag when the tag is first read."""
    held = object.__new__(cls)
    held.__dict__.update(tracker=wire[0], payload=wire[1 : 1 + ext.l], _wire=(ext, wire))
    return held


def _wire_in(pp: PublicParams, pkt: TaggedPacket) -> tuple[int, ...]:
    """The wire image of a packet, once its field is pp.ext and its width
    pp.packet_symbols: a wire of another kdim is refused, not truncated."""
    field, wire = pkt._wire or pkt._pack()
    if field is not pp.ext and field != pp.ext:
        raise FieldMismatch(f"packet elements do not belong to {pp.ext.name}")
    if len(wire) != pp.packet_symbols:
        raise LengthMismatch("packet width does not match the parameters")
    return wire


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
    row = label_row(pp, tracker, payload)
    if len(vk.column) != pp.M + 1:
        raise LengthMismatch("verifier key column has the wrong height")
    if counter is not None:
        counter.add(mults=pp.M + 1, frobs=pp.M - 1)
    return FieldElement(pp.ext, pp.ext.dot(row, _indices_in(pp.ext, vk)))


def verify(
    pp: PublicParams,
    vk: VerifierKey,
    pkt: TaggedPacket,
    counter: Optional[OpCounter] = None,
) -> bool:
    """Accept iff the label equals the G-weighted tag combination, that is
    iff the key's parity check W_i is zero on the packet's wire."""
    wire = _wire_in(pp, pkt)
    check = vk._check
    if check is None or check[0] is not pp:
        check = _key_check(pp, vk)
    if counter is not None:
        # the paper's schedule: the label's and the kdim products of the tag sum
        counter.add(mults=pp.M + 1 + pp.kdim, frobs=pp.M - 1)
    return check[1](wire)


def _key_check(pp: PublicParams, vk: VerifierKey) -> tuple:
    """(pp, the predicate wire -> W_i wire == 0) for key ``vk``, kept on the key.

    Verifier i's difference label - sum_k tag_k g_k is F_q-linear in the
    wire x, since the q-power map is: it is sum_c x_c w_c with w_c = b_0 for
    the tracker, sum_t u_j^(q^(t-1)) b_t for payload coordinate j (u_j the
    j-th basis element) and -u_m g_k for coordinate m of tag k.  Row r of
    W_i holds the r-th coordinates of the w_c, so the check is l dot
    products over F_q, which ``Field._parity_check`` evaluates.
    """
    ext = pp.ext
    if len(vk.column) != pp.M + 1:
        raise LengthMismatch("verifier key column has the wrong height")
    b = _indices_in(ext, vk)
    g = pp.generator_indices(vk.index)
    mul, neg, units = ext.mul_idx, ext.neg_idx, pp._units
    w = [b[0], *(ext.dot(powers, b[1:]) for powers in pp._unit_chains)]
    w += [neg(mul(u, g_k)) for g_k in g for u in units]
    rows = zip(*map(ext.coords_of, w))
    check = (pp, pp.base._parity_check(rows, pp.packet_symbols))
    object.__setattr__(vk, "_check", check)
    return check


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
    wires = [_wire_in(pp, pkt) for pkt in packets]
    return _wired(TaggedPacket, pp.ext, base.combine(base._symbols(coeffs), wires, width))


def _rank(base: BaseField, rows: tuple[tuple[int, ...], ...], width: int) -> int:
    """Rank of checked symbol rows over ``base``, read off their cached
    ``_echelon`` basis, so the basis ``random_payload_basis`` returns is not
    eliminated again when ``tag_basis`` tags it."""
    return len(_echelon(base, rows, width)[1])


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
