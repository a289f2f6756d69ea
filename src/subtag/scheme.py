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
indices.  A packet is its wire: a TaggedPacket holds its extension field
and its checked wire tuple, and ``tracker``, ``payload`` and ``tag`` read
that wire, so symbols() costs nothing.  A key is its indices: a
VerifierKey holds its index, its field, its column's index tuple and the
parity check verify() caches.  FieldElements are made only when a caller
reads ``tag`` or ``column``.  Generator columns are the code's own index
tuples (``LinearCode.columns``, read through
``PublicParams.generator_indices``).  Built by hand, a key checks that
its column holds in-range indices of one field, and a packet that its
tag does so in one extension field and that its tracker and l payload
coordinates are symbols of that field's base.  Keys and packets the
library computes go through ``_built``, unchecked, and verify(), label(),
combine_packets() and the attacks test only what needs the params: the
held field, the packet width, the key height and the verifier index.
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
from .fields import BaseField, ExtField, Field, FieldElement
from .linalg import Matrix, _echelon, _rank
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
    whose reduced row is e_j, read off the generator's cached elimination.
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
            rows, pivots = _echelon(code.field, code.generator.to_index_rows(), code.length)
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
        if type(i) is not int:  # a bool or a float is refused, not truncated
            raise InvalidParams(f"verifier index {i!r} is not an int")
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


def _built(cls, *values):
    """A key or packet holding ``values``, in its dataclass field order,
    that its caller has just checked or computed: no constructor checks."""
    held = object.__new__(cls)
    held.__dict__.update(zip(cls.__dataclass_fields__, values))
    return held


@dataclass(frozen=True, init=False)
class VerifierKey:
    """Verifier ``index``'s key column of M+1 extension elements, held as
    their field and indices; ``column`` makes the elements when read."""

    index: int
    _field: Optional[Field]
    _indices: tuple[int, ...]
    # (params, predicate): verify's parity check, built on first use
    _check: Optional[tuple] = dc_field(default=None, compare=False, repr=False)

    def __init__(self, index: int, column: tuple[FieldElement, ...]) -> None:
        field, idx = _one_field(column)
        if idx:
            field._symbols(idx)  # verify reads them unchecked
        self.__dict__.update(index=index, _field=field, _indices=idx)

    @property
    def column(self) -> tuple[FieldElement, ...]:
        return tuple(map(FieldElement, repeat(self._field), self._indices))


@dataclass(frozen=True, init=False)
class TaggedPacket:
    """A packet held as its field and its wire image over F_q: tracker
    symbol, l payload coordinates, then the coordinates of kdim tag
    elements; ``tag`` makes the elements when read."""

    _field: ExtField
    _wire: tuple[int, ...]

    def __init__(
        self, tracker: int, payload: tuple[int, ...], tag: tuple[FieldElement, ...]
    ) -> None:
        field, idx = _one_field(tag)
        if not isinstance(field, ExtField):
            # an empty tag has the wrong width, any other the wrong field
            error = FieldMismatch if idx else LengthMismatch
            raise error(f"a tag holds elements of one extension field, not {tag!r}")
        if len(payload) != field.l:
            raise LengthMismatch(f"payload needs {field.l} coordinates, got {len(payload)}")
        head = field.base._symbols((tracker, *payload))
        field._symbols(idx)  # coords_of reads them unchecked
        tail = chain.from_iterable(map(field.coords_of, idx))
        self.__dict__.update(_field=field, _wire=(*head, *tail))

    @property
    def tracker(self) -> int:
        return self._wire[0]

    @property
    def payload(self) -> tuple[int, ...]:
        return self._wire[1 : 1 + self._field.l]

    @property
    def tag(self) -> tuple[FieldElement, ...]:
        return tuple(map(FieldElement, repeat(self._field), _tag_indices(self)))

    def symbols(self) -> tuple[int, ...]:
        """Flat wire image over F_q: tracker, payload, tag coordinates."""
        return self._wire

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
        return _built(cls, pp.ext, pp.base._symbols(syms))


def _tag_indices(pkt: TaggedPacket) -> tuple[int, ...]:
    """The indices of the tag elements a packet's wire carries."""
    field, l = pkt._field, pkt._field.l
    # l references to one iterator: zip groups the tag digits l at a time
    return tuple(map(field.from_digits, zip(*[iter(pkt._wire[1 + l :])] * l)))


def _wire_in(pp: PublicParams, pkt: TaggedPacket) -> tuple[int, ...]:
    """The wire image of a packet, once its field is pp.ext and its width
    pp.packet_symbols: a wire of another kdim is refused, not truncated."""
    if pkt._field is not pp.ext and pkt._field != pp.ext:
        raise FieldMismatch(f"packet elements do not belong to {pp.ext.name}")
    if len(pkt._wire) != pp.packet_symbols:
        raise LengthMismatch("packet width does not match the parameters")
    return pkt._wire


def _key_indices(pp: PublicParams, vk: VerifierKey) -> tuple[int, ...]:
    """A key's column indices, once its height is M + 1 and its field pp.ext."""
    if len(vk._indices) != pp.M + 1:
        raise LengthMismatch("verifier key column has the wrong height")
    if vk._field is not pp.ext and vk._field != pp.ext:
        raise FieldMismatch(f"VerifierKey elements do not belong to {pp.ext.name}")
    return vk._indices


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
    return tuple(_built(VerifierKey, i, pp.ext, col) for i, col in enumerate(columns, 1))


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
    tail = chain.from_iterable(map(ext.coords_of, tags))
    return _built(TaggedPacket, ext, (1, *payload, *tail))


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
    b = _key_indices(pp, vk)
    if counter is not None:
        counter.add(mults=pp.M + 1, frobs=pp.M - 1)
    return FieldElement(pp.ext, pp.ext.dot(row, b))


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
    b = _key_indices(pp, vk)
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
    return _built(TaggedPacket, pp.ext, base.combine(base._symbols(coeffs), wires, width))


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
