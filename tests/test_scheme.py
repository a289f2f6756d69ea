import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtag.codes import LinearCode, rs_code
from subtag.errors import (
    DependentBasis,
    FieldMismatch,
    InvalidParams,
    LengthMismatch,
)
from subtag.fields import BaseField, ExtField, iso_vec, linearized_eval
from subtag.linalg import Matrix
from subtag.scheme import (
    OpCounter,
    PublicParams,
    TaggedPacket,
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
    gen3 = Matrix.identity(e4, 2)
    with pytest.raises(InvalidParams):
        PublicParams(base=f2, ext=e4, n=1, M=1, code=LinearCode(gen3))


def test_shape_properties(rs_pp, tiny_pp):
    assert (rs_pp.l, rs_pp.V, rs_pp.kdim) == (3, 6, 3)
    assert rs_pp.packet_symbols == 1 + 3 + 3 * 3
    assert tiny_pp.packet_symbols == 1 + 2 + 2 * 2
    col = rs_pp.generator_column(1)
    assert len(col) == rs_pp.kdim
    with pytest.raises(InvalidParams):
        rs_pp.generator_column(0)
    with pytest.raises(InvalidParams):
        rs_pp.generator_column(7)


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
        assert vk.column == b.column(vk.index - 1)
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
        want = linearized_eval(vk.column, tracker, iso_vec(rs_pp.ext, payload))
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


def test_combine_packets_is_symbolwise(rs_pp, f5):
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
