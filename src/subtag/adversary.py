"""What a verifier coalition knows, and what it can do with it.

A coalition pools its key columns and every tagged packet it has seen.
Each observation is linear in the hidden master key A, so the view
flattens into one system over F_{q^l} in the kdim*(M+1) unknowns a_{r,t}
(column-major: all rows of A's first column, then the second, ...):

  * a packet (tracker, s, v_1..v_kdim) contributes, for each t, the row
    tracker * a_{0,t} + sum_j s^(q^(j-1)) * a_{j,t} = v_t;
  * member i's key column contributes, for each r, the row
    sum_t g_{t,i} * a_{r,t} = b_{r,i}.

The system lists the members' key rows first, then the packet rows.  No
answer depends on the order, since the solve reads the rref and a row
space has only one, but the work does.  A key row has one nonzero in
each of the kdim blocks of M+1 unknowns, the first of them 1 for a
Reed-Solomon code (whose first generator row is all ones), so it pivots
without an inverse; a packet row fills a whole block.  With the key rows
pivoting first the packet rows are reduced with far less fill-in: over
GF(2^8)^3 a view of one tagged basis is solved with about half the
extension products the packet-first order takes.  (Once the packet rows
alone reach rank M+1, a view of one or two members can take more.)

With r0 the rank of the packet rows (as length-(M+1) vectors) and K0 the
rank of the coalition's generator columns, the system admits exactly
order^((M+1-r0)*(kdim-K0)) master keys; count_consistent_keys returns
that closed form next to the solver's nullity-based count and raises
InvariantViolated unless they agree.

Forgery follows the same linearity.  The consistent keys are the
solve's affine set A0 + X, with D X = 0 for the matrix D of packet rows
and X g_i = 0 for each member i, and the label d A g_t of a row d is an
affine form on that set: fixed exactly when d lies in D's row space or
g_t in the members' column span, and exactly uniform otherwise.  One
solve therefore answers every question about the target's label: a
forgery reads the fixed label off the particular solution, and the
histogram is one label or all of them, equally often.  Trackers are
symbols of F_q, so while r0 <= M (every view the reports and scripts
build) the row of a payload outside the observed subspace lies outside
the packet rows' span, by the Moore determinant, and the label is fixed
exactly when the target's column lies in the coalition's column span
(``LinearCode.forgeable``); otherwise a coalition's best move is to
guess the one label the target would accept.  At r0 = M + 1 the packet
rows span every row, so the traffic alone fixes the target's label for
every payload, and ``deterministic_forge`` forges for any coalition,
an empty one included.  Forged packets carry tracker 1, as source
packets do, and the label histogram is taken for that tracker.

A view is built from the members' keys, by verifier index, and the flat
sequence of packets the coalition saw, which checked their own trackers
and payloads when built; the view tests each member's index, its key's
index, height and field, and each packet's field and width once, when
it is built, with the errors ``verify`` raises.
No consistent key is enumerated: a histogram costs the one solve and
1 + nullity dot products, and refuses only a uniform histogram of more
than ``codes.ENUM_GUARD`` labels, the bound the code enumerations read.

Everything here works on field indices and wires; FieldElement appears
only in the histograms handed back.  No question is asked twice: a view
assembles its system once and reduces its observed payloads once; a
system is solved once, for the key count, every forgery and every
histogram; a forgery checks its payload once, with
``scheme._check_payload``, the check ``spans`` makes, and ``scheme._built``
holds its wire unchecked; and the params cache each verifier's first
nonzero generator slot and its inverse for the forged tag.  The observed
payloads' span is a ``linalg._echelon`` basis, and a payload is tested
against it by ``linalg._in_span`` once per view: the view remembers each
checked payload's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    InconsistentSystem,
    InvalidParams,
    InvariantViolated,
    NotQualified,
    PayloadInSubspace,
    TargetInCoalition,
    TooLargeToEnumerate,
)
from .fields import FieldElement
from .linalg import LinearSolution, Matrix, _echelon, _in_span, _rank, solve_all
from .scheme import (
    PublicParams,
    TaggedPacket,
    VerifierKey,
    _built,
    _check_payload,
    _key_indices,
    _label_row,
    _tag_indices,
    _wire_in,
    label as scheme_label,  # noqa: F401  bench/spans.py patches this name
    label_row,
)
from . import codes, rng as _rng

__all__ = [
    "CoalitionView",
    "AttackSystem",
    "KeyCount",
    "assemble_system",
    "count_consistent_keys",
    "deterministic_forge",
    "guess_forge",
    "label_distribution",
]


@dataclass(frozen=True)
class CoalitionView:
    """Members (sorted, 1-based), their keys, and the traffic they saw.

    Packets live on the wire, so a view may hold observations without
    holding any key at all: that is the outsider running a substitution.
    """

    pp: PublicParams
    members: tuple[int, ...]
    keys: tuple[VerifierKey, ...]
    observed: tuple[TaggedPacket, ...]

    def __post_init__(self):
        pp, members = self.pp, self.members
        if members != tuple(sorted(set(members))) or len(self.keys) != len(members):
            raise InvalidParams("members must be sorted and distinct, with one key each")
        for member, vk in zip(members, self.keys):
            pp.generator_indices(member)  # the type and range check
            if vk.index != member:
                raise InvalidParams(f"key for member {member} carries index {vk.index}")
            _key_indices(pp, vk)
        for pkt in self.observed:
            _wire_in(pp, pkt)

    @classmethod
    def build(
        cls,
        pp: PublicParams,
        keys: Mapping[int, VerifierKey],
        packets: Sequence[TaggedPacket] = (),
    ) -> "CoalitionView":
        """A view from member keys by index and the packets the coalition saw."""
        members = tuple(sorted(keys))
        return cls(
            pp=pp,
            members=members,
            keys=tuple(keys[i] for i in members),
            observed=tuple(packets),
        )

    @cached_property
    def payload_span(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Echelon basis of the observed payloads' span over F_q; one
        elimination per view."""
        return _echelon(self.pp.base, tuple(p.payload for p in self.observed), self.pp.l)

    @cached_property
    def _spanned(self) -> dict[tuple[int, ...], bool]:
        """Each checked payload asked about, and whether it lies in
        ``payload_span``."""
        return {}

    def _in_payload_span(self, payload: tuple[int, ...]) -> bool:
        """``_in_span`` of a checked payload, tested once per view."""
        inside = self._spanned.get(payload)
        if inside is None:
            inside = self._spanned[payload] = _in_span(
                self.pp.base, self.payload_span, payload
            )
        return inside

    def spans(self, payload: Sequence[int]) -> bool:
        """Is the payload, l symbols of F_q, in the observed payloads' span?"""
        return self._in_payload_span(_check_payload(self.pp, payload))

    @cached_property
    def _system(self) -> "AttackSystem":
        return _assemble(self)


@dataclass(frozen=True)
class AttackSystem:
    """The flattened linear system the view imposes on the master key.

    Rows of ``coefficients``, and of the single column ``constants``, come
    in two runs: the members' key rows (member by member, one per key
    row r), then the packet rows (packet by packet, one per tag).  The key
    rows lead so that the elimination pivots on them first (see the module
    docstring); the solution does not depend on the order."""

    pp: PublicParams
    coefficients: Matrix
    constants: Matrix  # single column
    r0: int
    k0: int

    @cached_property
    def _solution(self) -> LinearSolution:
        """The one elimination the key count and every label question read."""
        sol = solve_all(self.coefficients, self.constants)
        if sol is None:
            raise InconsistentSystem("the view admits no master key at all")
        return sol


def assemble_system(view: CoalitionView) -> AttackSystem:
    """The view's linear system on the master key, assembled once per view."""
    return view._system


def _assemble(view: CoalitionView) -> AttackSystem:
    pp = view.pp
    ext = pp.ext
    height = pp.M + 1
    width = pp.kdim * height
    rows: list[list[int]] = []
    consts: list[int] = []

    cols = []
    for member, vk in zip(view.members, view.keys):
        g = pp.generator_indices(member)
        cols.append(g)
        for r, b in enumerate(vk._indices):
            row = [0] * width
            row[r::height] = g
            rows.append(row)
            consts.append(b)

    packet_rows: list[tuple[int, ...]] = []
    for pkt in view.observed:
        d = _label_row(pp, pkt.tracker, pkt.payload)
        packet_rows.append(d)
        for t, tag in enumerate(_tag_indices(pkt)):
            row = [0] * width
            row[t * height : (t + 1) * height] = d
            rows.append(row)
            consts.append(tag)

    r0 = _rank(ext, tuple(packet_rows), height)
    k0 = _rank(ext, tuple(cols), pp.kdim)

    coeff = Matrix._of(ext, tuple(map(tuple, rows)), width)
    const = Matrix._of(ext, tuple((c,) for c in consts), 1)
    return AttackSystem(pp=pp, coefficients=coeff, constants=const, r0=r0, k0=k0)


@dataclass(frozen=True)
class KeyCount:
    predicted: int
    measured: int
    r0: int
    k0: int
    nullity: int


def count_consistent_keys(system: AttackSystem) -> KeyCount:
    """Closed-form and solver-side counts of master keys matching the view."""
    pp = system.pp
    sol = system._solution
    measured = pp.ext.order**sol.nullity
    predicted = pp.ext.order ** ((pp.M + 1 - system.r0) * (pp.kdim - system.k0))
    if predicted != measured:
        raise InvariantViolated(
            f"key-count law broken: closed form {predicted}, solver {measured} "
            f"(r0={system.r0}, k0={system.k0})"
        )
    return KeyCount(
        predicted=predicted,
        measured=measured,
        r0=system.r0,
        k0=system.k0,
        nullity=sol.nullity,
    )


def _payload_outside_view(view: CoalitionView, payload: tuple[int, ...]) -> None:
    if view._in_payload_span(payload):
        raise PayloadInSubspace(
            "substituted payload lies inside the observed message space"
        )


def _packet(
    pp: PublicParams, slot: tuple[int, int], payload: tuple[int, ...], lab: int
) -> TaggedPacket:
    """The tracker-1 packet on a checked payload that the verifier with tag
    slot (t*, 1/g[t*]) labels ``lab``: tag lab / g[t*] at t*, zero elsewhere."""
    t_star, g_inv = slot
    ext, zeros = pp.ext, (0,) * pp.l
    tag = zeros * t_star + ext.coords_of(ext.mul_idx(lab, g_inv)) + zeros * (pp.kdim - 1 - t_star)
    return _built(TaggedPacket, ext, (1, *payload, *tag))


def _target_slot(view: CoalitionView, target: int) -> tuple[int, int]:
    """The target's ``PublicParams.tag_slot``, once it is a verifier index
    (so True or 1.0 is refused, not taken for member 1) outside the coalition."""
    slot = view.pp.tag_slot(target)
    if target in view.members:
        raise TargetInCoalition(f"target {target} is a coalition member")
    return slot


def _fixed_label(view: CoalitionView, target: int, d: tuple[int, ...]) -> int | None:
    """The label of row d at ``target`` when every view-consistent key gives
    the same one, else None.

    The consistent keys are the solve's affine set, the particular solution
    plus the span of the null basis, and the label d A g_t is the affine
    form with weight d_r g_t on the unknown a_{r,t}: constant on the set
    when it vanishes on every null vector, and otherwise exactly uniform.
    """
    ext = view.pp.ext
    mul = ext.mul_idx
    g = view.pp.generator_indices(target)  # the range check
    w = tuple(mul(d_r, g_t) for g_t in g for d_r in d)
    sol = view._system._solution
    if any(ext.dot(w, n) for n in sol.null_basis):
        return None
    return ext.dot(w, tuple(r[0] for r in sol.particular.to_index_rows()))


def deterministic_forge(
    view: CoalitionView, target: int, payload: Sequence[int]
) -> TaggedPacket:
    """A packet the target is guaranteed to accept, whenever the view fixes
    the target's label for the payload.

    The payload must lie outside the coalition's observed message space,
    otherwise the "forgery" would just be an honest combination.
    """
    pp = view.pp
    payload = _check_payload(pp, payload)
    _payload_outside_view(view, payload)
    slot = _target_slot(view, target)
    lab = _fixed_label(view, target, _label_row(pp, 1, payload))
    if lab is None:
        raise NotQualified(
            f"coalition {view.members} and its traffic leave verifier {target}'s label open"
        )
    return _packet(pp, slot, payload, lab)


def guess_forge(
    view: CoalitionView,
    target: int,
    payload: Sequence[int],
    seed: int,
) -> TaggedPacket:
    """Same packet shape, but the label is a uniform guess.

    The payload is checked on every call, but tested against the observed
    payloads' span once per view and payload: repeated guesses on one
    payload reuse the first answer.
    """
    pp = view.pp
    slot = _target_slot(view, target)
    payload = _check_payload(pp, payload)
    _payload_outside_view(view, payload)
    r = _rng.stream(seed, "adversary/guess")
    return _packet(pp, slot, payload, r.randrange(pp.ext.order))


def _label_counts(
    view: CoalitionView, target: int, payload: Sequence[int]
) -> tuple[int | None, int]:
    """``label_distribution`` in closed form: (the one label or None when
    every label occurs, the number of keys giving each), with its refusal."""
    pp = view.pp
    _target_slot(view, target)
    ext = pp.ext
    lab = _fixed_label(view, target, label_row(pp, 1, payload))
    nullity = view._system._solution.nullity
    if lab is not None:
        return lab, ext.order**nullity
    if ext.order > codes.ENUM_GUARD:
        raise TooLargeToEnumerate(f"{ext.order} labels exceed the guard {codes.ENUM_GUARD}")
    return None, ext.order ** (nullity - 1)


def label_distribution(
    view: CoalitionView, target: int, payload: Sequence[int]
) -> dict[FieldElement, int]:
    """Histogram of the target's label for a tracker-1 packet over all
    view-consistent master keys.

    Exact, from the one solve: all order^nullity keys give one label, or
    each label is given by order^(nullity-1) of them.  Refuses a uniform
    histogram of more than ``codes.ENUM_GUARD`` labels.
    """
    lab, each = _label_counts(view, target, payload)
    ext = view.pp.ext
    labels = range(ext.order) if lab is None else (lab,)
    return {FieldElement(ext, idx): each for idx in labels}
