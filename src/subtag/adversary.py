"""What a verifier coalition knows, and what it can do with it.

A coalition pools its key columns and every tagged packet it has seen.
Each observation is linear in the hidden master key A, so the view
flattens into one system over F_{q^l} in the kdim*(M+1) unknowns a_{r,t}
(column-major: all rows of A's first column, then the second, ...):

  * a packet (tracker, s, v_1..v_kdim) contributes, for each t, the row
    tracker * a_{0,t} + sum_j s^(q^(j-1)) * a_{j,t} = v_t;
  * member i's key column contributes, for each r, the row
    sum_t g_{t,i} * a_{r,t} = b_{r,i}.

With r0 the rank of the packet rows (as length-(M+1) vectors) and K0 the
rank of the coalition's generator columns, the system admits exactly
order^((M+1-r0)*(kdim-K0)) master keys; count_consistent_keys returns
that closed form next to the solver's nullity-based count and raises
InvariantViolated unless they agree.

Forgery follows the same linearity: when the target's generator column
lies in the coalition's column span (``LinearCode.forgeable``, the one
qualification test), the witness combination rebuilds the target's key
column exactly, after which any payload outside the observed subspace
can be tagged at will.  The consistent keys are A0 + X with D X = 0 for
the matrix D of packet rows and X g_i = 0 for each member i, so the
label d A g_t of a row d is fixed exactly when d lies in D's row space
or g_t in the members' column span, and exactly uniform otherwise.
Trackers are symbols of F_q, so while r0 <= M (every view the reports,
scripts and tests build) the row of a payload outside the observed
subspace lies outside the packet rows' span, by the Moore determinant,
and an unqualified coalition's best move is to guess the one label the
target would accept.  At r0 = M + 1 the packet rows span every row, so
the traffic alone fixes the target's label for every payload, qualified
coalition or not; ``deterministic_forge`` still asks the code-span test
alone and raises NotQualified there.  Forged packets carry tracker 1, as
source packets do, and the label histogram is taken for that tracker.

A view is built from the members' keys, by verifier index, and the flat
sequence of packets the coalition saw, which checked their own trackers
and payloads when built; the view tests only each tag's field and width.
Enumerating consistent keys is exact and bounded by
``codes.ENUM_GUARD``, the same bound the code enumerations read.

Everything here works on field indices; FieldElement appears only in the
keys, packets and histograms handed back.  No question is asked twice: a
view assembles its system once and reduces its observed payloads once; a
system is solved once, for both the key count and the key enumeration;
a forgery checks its payload once, with ``scheme._check_payload``, the
check ``spans`` makes, and ``scheme._made`` builds its packet and key
unchecked; and the params cache each verifier's first nonzero generator
slot and its inverse for the forged tag.  The observed payloads' span is
a ``linalg._echelon`` basis, and a payload is tested against it by
``linalg._in_span`` once per view: the view remembers each checked
payload's answer, and ``LinearCode.forgeable`` its answer per coalition.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import (
    InconsistentSystem,
    InvalidParams,
    InvariantViolated,
    LengthMismatch,
    NotQualified,
    PayloadInSubspace,
    TargetInCoalition,
    TooLargeToEnumerate,
)
from .fields import FieldElement
from .linalg import LinearSolution, Matrix, _echelon, _in_span, solve_all
from .scheme import (
    MasterKey,
    PublicParams,
    TaggedPacket,
    VerifierKey,
    _check_payload,
    _indices_in,
    _label_row,
    _made,
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
    "consistent_keys",
    "recover_verifier_key",
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
        for pkt in self.observed:
            if len(_indices_in(pp.ext, pkt)) != pp.kdim:
                raise LengthMismatch("packet tag width does not match the code")

    @classmethod
    def build(
        cls,
        pp: PublicParams,
        keys: Mapping[int, VerifierKey],
        packets: Sequence[TaggedPacket] = (),
    ) -> "CoalitionView":
        """A view from member keys by index and the packets the coalition saw."""
        members = tuple(sorted(keys))
        for i in members:
            if not 1 <= i <= pp.V:
                raise InvalidParams(f"member index {i} outside 1..{pp.V}")
            if keys[i].index != i:
                raise InvalidParams(f"key for member {i} carries index {keys[i].index}")
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
        return _echelon(self.pp.base, [p.payload for p in self.observed], self.pp.l)

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
    """The flattened linear system the view imposes on the master key."""

    pp: PublicParams
    coefficients: Matrix
    constants: Matrix  # single column
    r0: int
    k0: int

    @property
    def unknowns(self) -> int:
        return self.pp.kdim * (self.pp.M + 1)

    @cached_property
    def _solution(self) -> LinearSolution:
        """The one elimination the key count and the key enumeration read."""
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

    packet_rows: list[tuple[int, ...]] = []
    for pkt in view.observed:
        d = _label_row(pp, pkt.tracker, pkt.payload)
        packet_rows.append(d)
        for t, tag in enumerate(_indices_in(ext, pkt)):
            row = [0] * width
            row[t * height : (t + 1) * height] = d
            rows.append(row)
            consts.append(tag)

    cols = []
    for member, vk in zip(view.members, view.keys):
        g = pp.generator_indices(member)
        cols.append(g)
        if len(vk.column) != height:
            raise InvalidParams(f"key column for member {member} has wrong height")
        for r, b in enumerate(_indices_in(ext, vk)):
            row = [0] * width
            row[r::height] = g
            rows.append(row)
            consts.append(b)

    # ranks of the packet rows and of the member columns, as pivot counts
    r0 = len(_echelon(ext, packet_rows, height)[1])
    k0 = len(_echelon(ext, cols, pp.kdim)[1])

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


def _unflatten(pp: PublicParams, flat: Sequence[int]) -> MasterKey:
    height = pp.M + 1
    rows = tuple(flat[r::height] for r in range(height))
    return MasterKey(Matrix._of(pp.ext, rows, pp.kdim))


def consistent_keys(system: AttackSystem) -> Iterator[MasterKey]:
    """Every master key the view allows, via the affine solution set;
    refuses when there are more than ``codes.ENUM_GUARD`` of them."""
    pp = system.pp
    sol = system._solution
    guard = codes.ENUM_GUARD
    if pp.ext.order**sol.nullity > guard:
        raise TooLargeToEnumerate(
            f"{pp.ext.order}^{sol.nullity} solutions exceed the guard {guard}"
        )
    # particular solution plus every combination of the null basis
    part = tuple(r[0] for r in sol.particular.to_index_rows())
    vectors = [part, *sol.null_basis]
    combine, width = pp.ext.combine, len(part)
    for combo in itertools.product(range(pp.ext.order), repeat=sol.nullity):
        yield _unflatten(pp, combine((1,) + combo, vectors, width))


def _payload_outside_view(view: CoalitionView, payload: tuple[int, ...]) -> None:
    if view._in_payload_span(payload):
        raise PayloadInSubspace(
            "substituted payload lies inside the observed message space"
        )


def recover_verifier_key(view: CoalitionView, target: int) -> VerifierKey:
    """Rebuild the target's key column from a qualified coalition's columns."""
    pp = view.pp
    ext = pp.ext
    # refuses a member target; the witness is aligned with view.members
    spec = codes.CoalitionSpec(frozenset(view.members), target)
    qualified, witness = pp.code.forgeable(spec)
    if not qualified:
        raise NotQualified(
            f"coalition {view.members} does not determine verifier {target}'s key"
        )
    columns = [_indices_in(ext, vk) for vk in view.keys]
    return _made(VerifierKey, ext, ext.combine(witness, columns, pp.M + 1), target)


def _packet(
    pp: PublicParams, slot: tuple[int, int], payload: tuple[int, ...], lab: int
) -> TaggedPacket:
    """The tracker-1 packet on a checked payload that the verifier with tag
    slot (t*, 1/g[t*]) labels ``lab``: tag lab / g[t*] at t*, zero elsewhere."""
    t_star, g_inv = slot
    tag = [0] * pp.kdim
    tag[t_star] = pp.ext.mul_idx(lab, g_inv)
    return _made(TaggedPacket, pp.ext, tuple(tag), 1, payload)


def deterministic_forge(
    view: CoalitionView, target: int, payload: Sequence[int]
) -> TaggedPacket:
    """A packet the target is guaranteed to accept, from a qualified view.

    The payload must lie outside the coalition's observed message space,
    otherwise the "forgery" would just be an honest combination.
    """
    pp = view.pp
    payload = _check_payload(pp, payload)
    _payload_outside_view(view, payload)
    vk = recover_verifier_key(view, target)  # refuses a member target
    lab = pp.ext.dot(_label_row(pp, 1, payload), _indices_in(pp.ext, vk))
    return _packet(pp, pp.tag_slot(target), payload, lab)


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
    if target in view.members:
        raise TargetInCoalition(f"target {target} is a coalition member")
    payload = _check_payload(pp, payload)
    _payload_outside_view(view, payload)
    r = _rng.stream(seed, "adversary/guess")
    return _packet(pp, pp.tag_slot(target), payload, r.randrange(pp.ext.order))


def label_distribution(
    view: CoalitionView, target: int, payload: Sequence[int]
) -> dict[FieldElement, int]:
    """Histogram of the target's label for a tracker-1 packet over all
    view-consistent master keys.

    Exhaustive and exact; refuses, as ``consistent_keys`` does, when the
    consistent-key set is above ``codes.ENUM_GUARD``.
    """
    pp = view.pp
    if target in view.members:
        raise TargetInCoalition(f"target {target} is a coalition member")
    ext = pp.ext
    d = label_row(pp, 1, payload)
    g = pp.generator_indices(target)
    system = assemble_system(view)
    hist: Counter[int] = Counter()
    for mk in consistent_keys(system):
        # the label is d A g: the row d A, weighted by the target's column of G
        hist[ext.dot(ext.combine(d, mk.matrix.to_index_rows(), pp.kdim), g)] += 1
    return {FieldElement(ext, idx): cnt for idx, cnt in hist.items()}
