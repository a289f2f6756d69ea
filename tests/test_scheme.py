import dataclasses
import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_vectors, element_verify, linearized_eval, reference_field
from test_fields import DIFFERENTIAL_FIELDS

from subtag import linalg, network, scheme
from subtag.adversary import (
    CoalitionView,
    assemble_system,
    count_consistent_keys,
    deterministic_forge,
    guess_forge,
)
from subtag.codes import LinearCode, rs_code
from subtag.errors import (
    DependentBasis,
    FieldMismatch,
    InvalidParams,
    LengthMismatch,
    RankDeficient,
    SubtagError,
)
from subtag.fields import BaseField, ExtField, Field, FieldElement
from subtag.linalg import Matrix
from subtag.scheme import (
    OpCounter,
    PublicParams,
    TaggedPacket,
    VerifierKey,
    combine_packets,
    distribute,
    keygen,
    label,
    random_payload_basis,
    tag_basis,
    tag_payload,
    verify,
)


def test_params_validation(f5, e125, e4, f2):
    code = rs_code(e125, list(range(6)), 3)
    with pytest.raises(InvalidParams):
        PublicParams(base=f5, ext=e125, n=4, M=4, code=code)  # n > l
    with pytest.raises(InvalidParams):
        PublicParams(base=f5, ext=e125, n=2, M=1, code=code)  # M < n
    with pytest.raises(InvalidParams):
        PublicParams(base=f5, ext=e125, n=0, M=2, code=code)
    with pytest.raises(InvalidParams):
        PublicParams(base=f2, ext=e125, n=2, M=2, code=code)
    with pytest.raises(InvalidParams):
        code4 = rs_code(e4, [0, 1, 2], 2)
        PublicParams(base=f5, ext=e125, n=2, M=2, code=code4)


def test_params_reject_weak_codes(f2, e4):
    # a zero generator column would leave one verifier keyless
    gen = Matrix.from_indices(e4, [[1, 0, 2]], ncols=3)
    with pytest.raises(InvalidParams):
        PublicParams(base=f2, ext=e4, n=1, M=1, code=LinearCode(gen))
    # a unit vector inside the code means distance 1
    gen2 = Matrix.from_indices(e4, [[1, 0, 0], [0, 1, 1]], ncols=3)
    with pytest.raises(InvalidParams):
        PublicParams(base=f2, ext=e4, n=1, M=1, code=LinearCode(gen2))
    # the full space has a zero dual: no unconditional protection at all
    gen3 = Matrix.from_indices(e4, [[1, 0], [0, 1]], ncols=2)
    with pytest.raises(InvalidParams):
        PublicParams(base=f2, ext=e4, n=1, M=1, code=LinearCode(gen3))


def test_shape_properties(rs_pp, tiny_pp):
    assert (rs_pp.l, rs_pp.V, rs_pp.kdim) == (3, 6, 3)
    assert rs_pp.packet_symbols == 1 + 3 + 3 * 3
    assert tiny_pp.packet_symbols == 1 + 2 + 2 * 2
    col = rs_pp.generator_indices(1)
    assert len(col) == rs_pp.kdim
    with pytest.raises(InvalidParams):
        rs_pp.generator_indices(0)
    with pytest.raises(InvalidParams):
        rs_pp.generator_indices(7)


def test_keygen_deterministic(rs_pp):
    a = keygen(rs_pp, 5)
    b = keygen(rs_pp, 5)
    c = keygen(rs_pp, 6)
    assert a.matrix == b.matrix
    assert a.matrix != c.matrix
    assert (a.matrix.nrows, a.matrix.ncols) == (rs_pp.M + 1, rs_pp.kdim)


def test_distribute_columns_and_cost(rs_pp):
    mk = keygen(rs_pp, 5)
    ctr = OpCounter()
    vks = distribute(rs_pp, mk, ctr)
    assert len(vks) == rs_pp.V
    assert [vk.index for vk in vks] == list(range(1, rs_pp.V + 1))
    b = mk.matrix @ rs_pp.code.generator
    for vk in vks:
        assert len(vk.column) == rs_pp.M + 1  # key storage per verifier
        want = tuple(FieldElement(rs_pp.ext, r[vk.index - 1]) for r in b.to_index_rows())
        assert vk.column == want
    assert ctr.ext_mults == (rs_pp.M + 1) * rs_pp.kdim * rs_pp.V
    assert ctr.frobenius_steps == 0


def test_tag_costs_and_tracker(rs_pp):
    mk = keygen(rs_pp, 5)
    ctr = OpCounter()
    pkt = tag_payload(rs_pp, mk, (1, 2, 3), ctr)
    assert pkt.tracker == 1
    assert len(pkt.tag) == rs_pp.kdim
    assert ctr.ext_mults == rs_pp.kdim * rs_pp.M
    assert ctr.frobenius_steps == rs_pp.M - 1


def test_verify_cost_schedule(rs_pp):
    mk = keygen(rs_pp, 5)
    vks = distribute(rs_pp, mk)
    pkt = tag_payload(rs_pp, mk, (1, 2, 3))
    ctr = OpCounter()
    assert verify(rs_pp, vks[0], pkt, ctr)
    assert ctr.ext_mults == rs_pp.M + rs_pp.kdim + 1
    assert ctr.frobenius_steps == rs_pp.M - 1


def test_label_matches_linearized_eval(rs_pp):
    # the verifier-side label is exactly a linearized evaluation of the key
    # column; the two sides use different Frobenius implementations
    mk = keygen(rs_pp, 9)
    vks = distribute(rs_pp, mk)
    rng = random.Random(1)
    for _ in range(20):
        payload = [rng.randrange(5) for _ in range(3)]
        tracker = rng.randrange(5)
        vk = vks[rng.randrange(6)]
        got = label(rs_pp, vk, tracker, payload)
        want = linearized_eval(vk.column, tracker, rs_pp.ext.from_coords(payload))
        assert got == want


def test_honest_packets_verify_everywhere(rs_pp):
    mk = keygen(rs_pp, 5)
    vks = distribute(rs_pp, mk)
    basis = random_payload_basis(rs_pp, 5)
    for pkt in tag_basis(rs_pp, mk, basis):
        assert all(verify(rs_pp, vk, pkt) for vk in vks)


def test_tampering_is_caught(rs_pp):
    mk = keygen(rs_pp, 5)
    vks = distribute(rs_pp, mk)
    pkt = tag_payload(rs_pp, mk, (1, 2, 3))
    syms = list(pkt.symbols())
    for pos in range(len(syms)):
        bad = list(syms)
        bad[pos] = (bad[pos] + 1) % 5
        tampered = TaggedPacket.from_symbols(rs_pp, bad)
        accepted = sum(1 for vk in vks if verify(rs_pp, vk, tampered))
        # a single-symbol change may still pass at isolated verifiers but
        # never at all of them
        assert accepted < len(vks), pos


def test_tag_basis_checks_each_payload_once(rs_pp, monkeypatch):
    mk = keygen(rs_pp, 5)
    calls = []
    original = scheme._check_payload

    def counting(pp, payload):
        calls.append(payload)
        return original(pp, payload)

    monkeypatch.setattr(scheme, "_check_payload", counting)
    ctr = OpCounter()
    pkts = tag_basis(rs_pp, mk, random_payload_basis(rs_pp, 5), ctr)
    assert len(calls) == rs_pp.n
    # the cost schedule is per packet, as for tag_payload
    assert ctr.ext_mults == rs_pp.n * rs_pp.kdim * rs_pp.M
    assert ctr.frobenius_steps == rs_pp.n * (rs_pp.M - 1)
    assert pkts == tuple(tag_payload(rs_pp, mk, p.payload) for p in pkts)


def test_tag_basis_validation(rs_pp):
    mk = keygen(rs_pp, 5)
    with pytest.raises(InvalidParams):
        tag_basis(rs_pp, mk, [(1, 0, 0)])  # needs n = 2 vectors
    with pytest.raises(DependentBasis):
        tag_basis(rs_pp, mk, [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(LengthMismatch):
        tag_payload(rs_pp, mk, (1, 0))


def test_from_symbols_round_trip(rs_pp):
    mk = keygen(rs_pp, 5)
    pkt = tag_payload(rs_pp, mk, (4, 0, 2))
    assert TaggedPacket.from_symbols(rs_pp, pkt.symbols()) == pkt
    with pytest.raises(LengthMismatch):
        TaggedPacket.from_symbols(rs_pp, pkt.symbols()[:-1])
    with pytest.raises(InvalidParams):
        bad = (9,) + pkt.symbols()[1:]
        TaggedPacket.from_symbols(rs_pp, bad)


def test_combine_packets_is_symbolwise(rs_pp, f5, monkeypatch):
    mk = keygen(rs_pp, 5)
    basis = random_payload_basis(rs_pp, 5)
    pkts = tag_basis(rs_pp, mk, basis)
    mixed = combine_packets(rs_pp, pkts, [2, 3])
    a, b = pkts[0].symbols(), pkts[1].symbols()
    want = tuple(f5.add_idx(f5.mul_idx(2, x), f5.mul_idx(3, y)) for x, y in zip(a, b))
    assert mixed.symbols() == want
    assert mixed.tracker == f5.add_idx(2, 3)
    with pytest.raises(LengthMismatch):
        combine_packets(rs_pp, pkts, [1])
    with pytest.raises(FieldMismatch):
        combine_packets(rs_pp, pkts, [rs_pp.ext.one, rs_pp.ext.one])
    with pytest.raises(FieldMismatch):
        combine_packets(rs_pp, pkts, [FieldElement(BaseField(7), 2), 3])
    # coefficients are ints, range-checked as symbols without building elements
    with pytest.raises(FieldMismatch):
        combine_packets(rs_pp, pkts, [2.0, 3])
    for bad in ([5, 3], [2, -1]):
        with pytest.raises(InvalidParams):
            combine_packets(rs_pp, pkts, bad)
    calls = []
    original = Field.element

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Field, "element", counting)
    assert combine_packets(rs_pp, pkts, [2, 3]) == mixed
    assert calls == []


def test_combine_packets_refuses_wire_symbols_out_of_range(rs_pp, e25):
    # a hand-built packet is checked when it is built, not mixed mod p
    mk = keygen(rs_pp, 5)
    vk = distribute(rs_pp, mk)[0]
    good = tag_basis(rs_pp, mk, random_payload_basis(rs_pp, 5))[0]
    for tracker, payload, err in [
        (9, (7, 300, 2), InvalidParams),
        (1, (0, 5, 0), InvalidParams),
        (1, (0, -1, 0), InvalidParams),
        (1, (0, 2.0, 0), FieldMismatch),
    ]:
        bad = functools.partial(TaggedPacket, tracker=tracker, payload=payload, tag=good.tag)
        with pytest.raises(err):
            verify(rs_pp, vk, bad())
        for coeffs in ([1, 1], [1, 0], [0, 1]):
            with pytest.raises(err):
                combine_packets(rs_pp, [bad(), good], coeffs)
            with pytest.raises(err):
                combine_packets(rs_pp, [good, bad()], coeffs)
    # so is a tag element whose index lies outside the extension field
    with pytest.raises(InvalidParams):
        TaggedPacket(1, good.payload, (FieldElement(rs_pp.ext, rs_pp.ext.order),) + good.tag[1:])
    # a well-formed packet of another extension field is refused by its field
    foreign = TaggedPacket(1, (0, 1), (FieldElement(e25, 1),) * len(good.tag))
    for pkts in ([foreign, good], [good, foreign]):
        with pytest.raises(FieldMismatch):
            combine_packets(rs_pp, pkts, [1, 1])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
)
def test_completeness_under_mixing(seed, coeffs):
    """Any F_q-combination of honestly tagged packets passes everywhere."""
    base = BaseField(5)
    ext = ExtField(base, 3)
    pp = PublicParams(base=base, ext=ext, n=2, M=2, code=rs_code(ext, list(range(6)), 3))
    mk = keygen(pp, seed)
    vks = distribute(pp, mk)
    basis = random_payload_basis(pp, seed)
    pkts = tag_basis(pp, mk, basis)
    mixed = combine_packets(pp, pkts, coeffs)
    assert all(verify(pp, vk, mixed) for vk in vks)


def test_random_payload_basis_rank(rs_pp):
    b1 = random_payload_basis(rs_pp, 3)
    b2 = random_payload_basis(rs_pp, 3)
    assert b1 == b2
    assert Matrix.from_indices(rs_pp.base, [list(r) for r in b1], ncols=3).rank() == 2


def test_tagging_a_random_basis_eliminates_it_once(rs_pp, monkeypatch):
    # random_payload_basis proves its basis has rank n; tag_basis reads that
    # rank instead of eliminating the same rows again
    mk = keygen(rs_pp, 5)
    linalg._echelon.cache_clear()
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append((self.nrows, self.ncols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    for seed in range(6):
        calls.clear()
        basis = random_payload_basis(rs_pp, seed)
        drawn = len(calls)  # one per candidate drawn
        assert drawn >= 1 and set(calls) == {(2, 3)}
        pkts = tag_basis(rs_pp, mk, basis)
        assert len(calls) == drawn
        assert tuple(p.payload for p in pkts) == basis
    # a hand-given basis is eliminated once, and a dependent one is refused
    calls.clear()
    tag_basis(rs_pp, mk, [(1, 0, 0), (0, 0, 1)])
    assert calls == [(2, 3)]
    for _ in range(2):
        with pytest.raises(DependentBasis):
            tag_basis(rs_pp, mk, [(1, 0, 2), (2, 0, 4)])


@pytest.mark.parametrize(
    "syms",
    [iter(range(13)), None, 5, 5.0, set(range(13)), dict.fromkeys(range(13))],
    ids=["iterator", "none", "int", "float", "set", "dict"],
)
def test_from_symbols_refuses_a_non_sequence(rs_pp, syms):
    # a set or dict of the right size has no order to read a wire in
    with pytest.raises(LengthMismatch):
        TaggedPacket.from_symbols(rs_pp, syms)
    wire = tuple(range(4)) + (0,) * 9
    for seq in (wire, list(wire), bytes(wire)):
        assert TaggedPacket.from_symbols(rs_pp, seq).symbols() == wire


def _dual_column_verdict(code):
    """The check as it reads off the dual itself: None when every dual
    column is nonzero, else the error message for the first zero one."""
    dual = code.dual()
    if dual.is_zero:
        return "the full space has minimum distance 1"
    for j, col in enumerate(dual.columns):
        if not any(col):
            return f"dual generator column {j + 1} is zero (distance below 2)"
    return None


@pytest.mark.parametrize("field_args", [(2, 2), (5, 1), (3, 2)], ids=["F4", "F5", "F9"])
def test_dual_column_check_matches_the_dual(field_args):
    # codes with coloops (coordinates j with e_j in the code) in every
    # position, including several and all of them (k = V), against the
    # verdict read off the whole dual; the rref check builds no dual, and a
    # code built as a dual reads the one it holds
    p, l = field_args
    ext = ExtField(BaseField(p), l)
    r = random.Random(repr(field_args))
    seen = set()
    for _ in range(150):
        length = r.randrange(1, 8)
        kdim = r.randrange(1, length + 1)
        rows = [[r.randrange(ext.order) for _ in range(length)] for _ in range(kdim)]
        # plant coloops, rows that are unit vectors e_j, so e_j is in the
        # code; now and then a zero column, which the code itself is refused
        # for and its dual reads as a zero dual column
        for j in r.sample(range(length), r.randrange(min(kdim, length) + 1))[: kdim]:
            t = r.randrange(kdim)
            rows[t] = [1 if c == j else 0 for c in range(length)]
        if r.random() < 0.3:
            j = r.randrange(length)
            for row in rows:
                row[j] = 0
        gen = Matrix.from_indices(ext, rows, ncols=length)
        try:
            code = LinearCode(gen)
        except RankDeficient:
            continue  # dependent rows
        want = _dual_column_verdict(LinearCode(gen))
        # the code alone, checked on its rref; and its dual, which holds the
        # code as its own dual and is checked on those columns
        for candidate, holds_dual in ((code, False), (LinearCode(gen).dual(), True)):
            if candidate.is_zero or not all(any(col) for col in candidate.columns):
                continue  # refused earlier, for a zero generator column
            verdict = _dual_column_verdict(candidate) if holds_dual else want
            if verdict is not None:
                with pytest.raises(InvalidParams, match=re.escape(verdict)):
                    PublicParams(base=ext.base, ext=ext, n=1, M=1, code=candidate)
            else:
                PublicParams(base=ext.base, ext=ext, n=1, M=1, code=candidate)
            # no dual built for the code, and no elimination for the dual
            assert (candidate.generator._rref if holds_dual else candidate._dual) is None
            seen.add((holds_dual, verdict and verdict.split()[0]))
    # both paths pass codes and find zero dual columns; k = V is refused
    # before either
    assert seen >= {(False, None), (False, "dual"), (False, "the"), (True, None), (True, "dual")}


@pytest.fixture(scope="module")
def gf256_cubed_pp():
    """Characteristic 2 with no tables: GF(2^8)^3, RS [5,3]."""
    ext = ExtField(BaseField(2, 8), 3)
    return PublicParams(base=ext.base, ext=ext, n=2, M=2, code=rs_code(ext, range(5), 3))


def _reference_accepts(pp, ref, vk, wire):
    """The acceptance equation recomputed from the moduli alone:
    tracker * b_0 + sum_t s^(q^(t-1)) * b_t == sum_t tag_t * g_t."""
    l, q = pp.l, pp.base.order
    tracker, payload = wire[0], wire[1 : 1 + l]
    tags = [ref.index(wire[start : start + l]) for start in range(1 + l, len(wire), l)]
    powers = [ref.index(payload)]
    while len(powers) < pp.M:
        acc, x, e = 1, powers[-1], q  # square-and-multiply x^q
        while e:
            if e & 1:
                acc = ref.mul(acc, x)
            x = ref.mul(x, x)
            e >>= 1
        powers.append(acc)
    b = [e.index for e in vk.column]
    lhs = ref.mul(tracker, b[0])
    for x, b_t in zip(powers, b[1:]):
        lhs = ref.add(lhs, ref.mul(x, b_t))
    rhs = 0
    for tag, g in zip(tags, pp.generator_indices(vk.index)):
        rhs = ref.add(rhs, ref.mul(tag, g))
    return lhs == rhs


@pytest.mark.parametrize("which", ["rs_pp", "gf256_cubed_pp"])
def test_verify_matches_reference_acceptance(request, which):
    pp = request.getfixturevalue(which)
    ref = reference_field(pp.ext)
    mk = keygen(pp, 21)
    vks = distribute(pp, mk)
    rng = random.Random(4)
    honest = tag_basis(pp, mk, random_payload_basis(pp, 21))
    # (c, 1) gives the trackers c + 1: every symbol of F_5, and six of GF(2^8)
    coeffs = [(c, 1) for c in range(min(pp.base.order, 6))]
    coeffs += [tuple(rng.randrange(pp.base.order) for _ in honest) for _ in range(4)]
    wires = {
        "honest": [p.symbols() for p in honest],
        "mixed": [combine_packets(pp, honest, c).symbols() for c in coeffs],
        "random": [
            tuple(rng.randrange(pp.base.order) for _ in range(pp.packet_symbols))
            for _ in range(8)
        ],
    }
    for kind, batch in wires.items():
        for wire in batch:
            pkt = TaggedPacket.from_symbols(pp, wire)
            assert pkt.symbols() == tuple(wire)
            got = [verify(pp, vk, pkt) for vk in vks]
            want = [_reference_accepts(pp, ref, vk, wire) for vk in vks]
            assert got == want, (kind, wire)
            if kind != "random":
                assert all(got), (kind, wire)
    # a random wire passes one verifier with probability 1/q^l
    assert not any(
        verify(pp, vks[0], TaggedPacket.from_symbols(pp, w)) for w in wires["random"]
    )


def test_verify_input_checks(rs_pp, e25):
    mk = keygen(rs_pp, 5)
    vk = distribute(rs_pp, mk)[0]
    pkt = tag_payload(rs_pp, mk, (1, 2, 3))
    # an equal field object that is not the same instance is accepted
    twin = ExtField(BaseField(5), 3)
    twin_tag = tuple(FieldElement(twin, t.index) for t in pkt.tag)
    assert verify(rs_pp, vk, TaggedPacket(pkt.tracker, pkt.payload, twin_tag))
    foreign = (FieldElement(e25, 1),) + pkt.tag[1:]
    with pytest.raises(FieldMismatch):
        verify(rs_pp, vk, TaggedPacket(pkt.tracker, pkt.payload, foreign))
    with pytest.raises(FieldMismatch):
        verify(rs_pp, VerifierKey(vk.index, (FieldElement(e25, 1),) + vk.column[1:]), pkt)
    with pytest.raises(FieldMismatch):
        verify(rs_pp, VerifierKey(vk.index, (1,) + vk.column[1:]), pkt)
    with pytest.raises(LengthMismatch):
        verify(rs_pp, vk, TaggedPacket(pkt.tracker, pkt.payload, pkt.tag[:-1]))
    with pytest.raises(LengthMismatch):
        verify(rs_pp, VerifierKey(vk.index, vk.column[:-1]), pkt)
    with pytest.raises(InvalidParams):
        verify(rs_pp, vk, TaggedPacket(5, pkt.payload, pkt.tag))
    with pytest.raises(InvalidParams):
        verify(rs_pp, vk, TaggedPacket(pkt.tracker, (1, 9, 3), pkt.tag))
    with pytest.raises(InvalidParams):
        verify(rs_pp, VerifierKey(rs_pp.V + 1, vk.column), pkt)


def test_keys_and_packets_check_their_elements_when_built(rs_pp, e25):
    mk = keygen(rs_pp, 5)
    vk = distribute(rs_pp, mk)[0]
    pkt = tag_payload(rs_pp, mk, (1, 2, 3))
    col, tag = vk.column, pkt.tag
    for bad in (
        (1,) + col[1:],  # an int
        col[:-1] + (FieldElement(e25, 1),),  # an element of another field
        (rs_pp.base.one,) + col[1:],  # base and extension elements mixed
    ):
        with pytest.raises(FieldMismatch):
            VerifierKey(vk.index, bad)
        with pytest.raises(FieldMismatch):
            TaggedPacket(pkt.tracker, pkt.payload, bad[: len(tag)])
    # an equal field built separately is accepted
    twin = ExtField(BaseField(5), 3)
    twin_vk = VerifierKey(vk.index, tuple(FieldElement(twin, e.index) for e in col))
    twin_pkt = TaggedPacket(1, pkt.payload, (FieldElement(twin, tag[0].index),) + tag[1:])
    assert verify(rs_pp, twin_vk, twin_pkt)
    # one field throughout, but not the extension field: verify refuses
    with pytest.raises(FieldMismatch):
        verify(rs_pp, VerifierKey(vk.index, (FieldElement(e25, 1),) * len(col)), pkt)
    e25_tag = (FieldElement(e25, 1),) * len(tag)
    with pytest.raises(FieldMismatch):
        verify(rs_pp, vk, TaggedPacket(1, pkt.payload[:2], e25_tag))
    # a packet's payload must fit its own tag's field, and the tag must lie
    # in an extension field, when the packet is built
    with pytest.raises(LengthMismatch):
        TaggedPacket(1, pkt.payload, e25_tag)
    with pytest.raises(FieldMismatch):
        TaggedPacket(1, pkt.payload[:1], (rs_pp.base.one,) * len(tag))
    with pytest.raises(LengthMismatch):
        TaggedPacket(1, pkt.payload, ())


def test_hand_built_key_range_checks_its_indices(rs_pp, monkeypatch):
    checks = []
    original = Field._symbols
    monkeypatch.setattr(Field, "_symbols", lambda self, v: checks.append(v) or original(self, v))
    vk = distribute(rs_pp, keygen(rs_pp, 5))[0]
    assert checks == []  # keys the library makes skip the check
    # an index past F_125 is refused when the key is built, not read past
    # verify's tables
    for bad in (200, rs_pp.ext.order, -1):
        with pytest.raises(InvalidParams):
            VerifierKey(1, (FieldElement(rs_pp.ext, bad),) + vk.column[1:])
    assert VerifierKey(1, vk.column) == vk


def test_verify_reads_the_indices_kept_at_construction(rs_pp, e25):
    mk = keygen(rs_pp, 5)
    vk = distribute(rs_pp, mk)[0]
    pkt = tag_payload(rs_pp, mk, (1, 2, 3))
    # verify tests one field per key and per packet and reads the indices
    # kept when they were built: it does not look at the elements again
    for e in vk.column + pkt.tag:
        e.field = e25
    assert verify(rs_pp, vk, pkt)


def test_keys_and_packets_the_library_makes_are_not_checked_again(rs_pp, monkeypatch):
    symbol_checks, field_checks = [], []
    symbols, one_field = Field._symbols, scheme._one_field

    def counting_symbols(self, values):
        out = symbols(self, values)
        symbol_checks.append(out)
        return out

    def counting_one_field(elements):
        field_checks.append(elements)
        return one_field(elements)

    monkeypatch.setattr(Field, "_symbols", counting_symbols)
    monkeypatch.setattr(scheme, "_one_field", counting_one_field)
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = (tag_payload(rs_pp, mk, (1, 0, 0)), tag_payload(rs_pp, mk, (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    deterministic_forge(view, 4, (0, 0, 1))
    guess_forge(view, 4, (0, 0, 1), seed=7)
    assert field_checks == []
    # a wire packet is checked once, by from_symbols, and verify reads it
    # without a further symbol or element check
    wire = packets[0].symbols()
    symbol_checks.clear()
    assert verify(rs_pp, vks[0], TaggedPacket.from_symbols(rs_pp, wire))
    assert symbol_checks == [wire]
    assert field_checks == []
    # a hand-built packet is checked, once
    TaggedPacket(1, (0, 0, 1), packets[0].tag)
    tag = tuple(e.index for e in packets[0].tag)
    assert len(field_checks) == 1 and symbol_checks[1:] == [(1, 0, 0, 1), tag]


def test_hot_paths_make_no_field_elements(rs_pp, monkeypatch):
    # keys hold indices and packets their wires: a FieldElement is made
    # only when a caller reads a tag, a key column or a label
    made = []
    init = FieldElement.__init__

    def counting(self, field, index):
        made.append(index)
        init(self, field, index)

    mk = keygen(rs_pp, 3)
    monkeypatch.setattr(FieldElement, "__init__", counting)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    assert made == []
    pkt = TaggedPacket.from_symbols(rs_pp, combine_packets(rs_pp, packets, [1, 2]).symbols())
    assert all(verify(rs_pp, vk, pkt) for vk in vks)
    assert made == []
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    count_consistent_keys(assemble_system(view))
    assert verify(rs_pp, vks[3], deterministic_forge(view, 4, (0, 0, 1)))
    guess_forge(view, 4, (0, 0, 1), seed=7)
    assert made == []


def _outcome(check, *args):
    """``check(*args)``, or the type of the SubtagError it raises."""
    try:
        return check(*args)
    except SubtagError as exc:
        return type(exc)


def wire_check_disagreements(ext: ExtField, seed: int = 0) -> tuple[int, int, list]:
    """How many (key, packet) pairs over ``ext`` were compared, how many of
    them the oracle's ``element_verify`` accepts, and those on which
    ``verify``'s parity check differs from it.

    The packets are honest ones and their mixtures, random wires, a
    deterministic forgery and guessed ones, and the packets a polluted
    transmission leaves at its verifier nodes.  Every key is also checked
    under a second code, so its parity check must be rebuilt there and
    again on its return.  Malformed keys and packets must be refused with
    the same error by both, and by ``from_symbols``.  The function reports
    instead of asserting, so it runs under ``python -O`` too.
    """
    base, l = ext.base, ext.l
    n = min(2, l)
    params = functools.partial(PublicParams, base=base, ext=ext, n=n, M=n + 1)
    pp = params(code=rs_code(ext, range(4), 2))
    r = random.Random(seed)

    def wire(width=pp.packet_symbols):
        return tuple(r.randrange(base.order) for _ in range(width))

    mk = keygen(pp, seed)
    vks = distribute(pp, mk)
    honest = tag_basis(pp, mk, random_payload_basis(pp, seed))
    packets = list(honest)
    packets += [combine_packets(pp, honest, wire(n)) for _ in range(16)]
    packets += [TaggedPacket.from_symbols(pp, wire()) for _ in range(40)]
    # the first two verifiers of an MDS code determine every label
    qualified = CoalitionView.build(pp, {1: vks[0], 2: vks[1]}, honest[: l - 1])
    payload = next(v for v in all_vectors(base, l) if not qualified.spans(v))
    packets.append(deterministic_forge(qualified, 4, payload))
    guessing = CoalitionView.build(pp, {1: vks[0]}, honest[: l - 1])
    packets += [guess_forge(guessing, 4, payload, seed + k) for k in range(5)]
    topo = network.random_topology(8, seed)
    tx = network.transmit(
        topo, base, [p.symbols() for p in honest], seed,
        inject_at=topo.verifier_nodes()[0], fake=wire(),
    )
    for name in topo.verifier_nodes():
        packets += [TaggedPacket.from_symbols(pp, w) for w in tx.packets_at(name)]

    cases = [(pp, vk, pkt) for vk in vks for pkt in packets]
    # the same keys under another code, then back: honest packets of pp
    # mostly fail under pp2, so a parity check kept from pp would show
    pp2 = params(code=rs_code(ext, range(1, 5), 2))
    cases += [(pp2, vk, pkt) for vk in vks for pkt in packets[:8]]
    cases += [(pp, vk, pkt) for vk in vks for pkt in packets[:8]]
    disagreements = []
    accepted = 0
    for case in cases:
        got, want = _outcome(verify, *case), _outcome(element_verify, *case)
        accepted += want is True
        if got != want or type(got) is not bool:
            disagreements.append(("pair", case[1].index, case[2].symbols(), got, want))
        if case[1]._check[0] is not case[0]:
            disagreements.append(("kept", case[1].index, case[0] is pp, None, None))

    foreign = ExtField(BaseField(3 if base.char == 2 else 2), 2)
    other = (FieldElement(foreign, 1),)
    vk, h = vks[0], honest[0]
    wide = params(code=rs_code(ext, range(4), 3))
    malformed = [
        (vk, TaggedPacket.from_symbols(wide, wire(wide.packet_symbols)), LengthMismatch),
        (vk, TaggedPacket(h.tracker, h.payload, h.tag[:-1]), LengthMismatch),
        (vk, TaggedPacket(0, (0,) * foreign.l, other * pp.kdim), FieldMismatch),
        (VerifierKey(1, vk.column[:-1]), h, LengthMismatch),
        (VerifierKey(1, other * (pp.M + 1)), h, FieldMismatch),
        (VerifierKey(pp.V + 1, vk.column), h, InvalidParams),
    ]
    for key, pkt, error in malformed:
        got, want = _outcome(verify, pp, key, pkt), _outcome(element_verify, pp, key, pkt)
        if not got is want is error:
            disagreements.append(("malformed", key.index, error, got, want))
    good = h.symbols()
    unpacked = [
        (good[:-1], LengthMismatch),
        (good + (0,), LengthMismatch),
        (iter(good), LengthMismatch),
        ((base.order,) + good[1:], InvalidParams),
        (good[:-1] + (-1,), InvalidParams),
        (good[:-1] + (float(good[-1]),), FieldMismatch),
    ]
    for syms, error in unpacked:
        got = _outcome(TaggedPacket.from_symbols, pp, syms)
        if got is not error:
            disagreements.append(("from_symbols", None, error, got, None))
    return len(cases) + len(malformed), accepted, disagreements


SCHEME_FIELDS = [name for name, make in DIFFERENTIAL_FIELDS.items() if isinstance(make(), ExtField)]


@pytest.mark.parametrize("name", SCHEME_FIELDS)
def test_wire_check_matches_the_element_check(name):
    """verify's parity check on the wire equals the label-and-tag check on
    elements, on every differential extension field: lanes over GF(3) and
    GF(5) (GF(5)^7 needs two reductions per check), row dots over
    characteristic 2 and over non-prime bases."""
    ext = DIFFERENTIAL_FIELDS[name]()
    compared, accepted, disagreements = wire_check_disagreements(ext)
    assert disagreements == []
    # honest packets and mixtures pass, random wires almost never do
    assert compared > 300 and 100 < accepted < compared - 100


@pytest.mark.parametrize("name", SCHEME_FIELDS)
def test_one_value_has_one_identity(name):
    """A packet built by hand, by tagging, from its wire or as a unit
    mixture is one value, and so is a key rebuilt from its column."""
    ext = DIFFERENTIAL_FIELDS[name]()
    n = min(2, ext.l)
    pp = PublicParams(base=ext.base, ext=ext, n=n, M=n + 1, code=rs_code(ext, range(4), 2))
    mk = keygen(pp, 1)
    payload = tuple(k % ext.base.order for k in range(1, ext.l + 1))
    # the tags as the paper writes them, one linearized map per column of A
    rows = mk.matrix.to_index_rows()
    s = ext.from_coords(payload)
    tag = tuple(
        linearized_eval([FieldElement(ext, row[t]) for row in rows], 1, s) for t in range(pp.kdim)
    )
    tagged = tag_payload(pp, mk, payload)
    ways = [
        TaggedPacket(1, payload, tag),
        tagged,
        TaggedPacket.from_symbols(pp, tagged.symbols()),
        combine_packets(pp, [tagged], [1]),
    ]
    wire = (1, *payload, *(c for e in tag for c in e.coords))
    for pkt in ways:
        assert pkt == ways[0] and hash(pkt) == hash(ways[0])
        assert (pkt.tracker, pkt.payload, pkt.tag, pkt.symbols()) == (1, payload, tag, wire)
    for vk in distribute(pp, mk):
        assert verify(pp, vk, tagged)  # a cached parity check is not part of the key
        twin = VerifierKey(vk.index, vk.column)
        assert twin == vk and hash(twin) == hash(vk)
    for held, name in ((tagged, "tracker"), (tagged, "tag"), (vk, "column")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(held, name, None)
