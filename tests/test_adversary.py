import itertools

import pytest

from subtag.adversary import (
    AttackSystem,
    CoalitionView,
    assemble_system,
    consistent_keys,
    count_consistent_keys,
    deterministic_forge,
    guess_forge,
    label_distribution,
    recover_verifier_key,
)
from subtag.errors import (
    FieldMismatch,
    InconsistentSystem,
    InvalidParams,
    LengthMismatch,
    NotQualified,
    PayloadInSubspace,
    TargetInCoalition,
    TooLargeToEnumerate,
)
from subtag import adversary, codes, fields
from subtag.codes import CoalitionSpec, LinearCode, rs_code
from subtag.fields import BaseField, ExtField, Field, FieldElement
from subtag.linalg import Matrix
from subtag.scheme import (
    PublicParams,
    TaggedPacket,
    VerifierKey,
    distribute,
    keygen,
    tag_basis,
    tag_payload,
    verify,
)

from oracles import brute_consistent_keys, brute_label_histogram


@pytest.fixture(scope="module")
def tiny(tiny_pp):
    """One honest session on the brute-forceable instance."""
    mk = keygen(tiny_pp, 13)
    vks = distribute(tiny_pp, mk)
    packets = tag_basis(tiny_pp, mk, ((1, 0),))
    return tiny_pp, mk, vks, packets


def test_view_build_validation(tiny):
    pp, mk, vks, packets = tiny
    with pytest.raises(InvalidParams):
        CoalitionView.build(pp, {4: vks[0]})
    with pytest.raises(InvalidParams):
        CoalitionView.build(pp, {2: vks[0]})  # key carries index 1
    view = CoalitionView.build(pp, {3: vks[2], 1: vks[0]}, packets)
    assert view.members == (1, 3)
    assert view.observed == packets
    # an eavesdropper holds traffic but no keys
    outsider = CoalitionView.build(pp, {}, packets)
    assert outsider.members == ()
    assert outsider.observed == packets


def test_r0_k0_frozen(tiny):
    pp, mk, vks, packets = tiny
    # no members, no packets
    empty = CoalitionView.build(pp, {})
    s = assemble_system(empty)
    assert (s.r0, s.k0) == (0, 0)
    assert s.unknowns == pp.kdim * (pp.M + 1)
    # one member, one packet
    view = CoalitionView.build(pp, {1: vks[0]}, packets)
    s = assemble_system(view)
    assert (s.r0, s.k0) == (1, 1)
    # two members of the MDS [3,2] code span everything
    view2 = CoalitionView.build(pp, {1: vks[0], 2: vks[1]}, packets)
    s2 = assemble_system(view2)
    assert (s2.r0, s2.k0) == (1, 2)


def test_key_count_matches_brute_force(tiny):
    """Closed form, solver nullity, and full 256-key enumeration agree."""
    pp, mk, vks, packets = tiny
    cases = [
        ((), ()),
        ((), packets),
        ((1,), ()),
        ((1,), packets),
        ((1, 2), packets),
        ((1, 2, 3), packets),
    ]
    for members, pkts in cases:
        view = CoalitionView.build(pp, {i: vks[i - 1] for i in members}, pkts)
        counts = count_consistent_keys(assemble_system(view))
        assert counts.predicted == counts.measured
        brute = sum(
            1
            for _ in brute_consistent_keys(
                pp,
                members,
                [vks[i - 1].column for i in members],
                list(pkts),
            )
        )
        assert counts.measured == brute, (members, len(pkts))


def test_second_session_pins_the_key(tiny_pp):
    """Tagging two independent payloads under one key raises r0 to M+1,
    and an outsider can then solve for the whole master key."""
    pp = tiny_pp
    mk = keygen(pp, 21)
    p1 = tag_payload(pp, mk, (1, 0))
    p2 = tag_payload(pp, mk, (0, 1))
    view = CoalitionView.build(pp, {1: distribute(pp, mk)[0]}, (p1, p2))
    system = assemble_system(view)
    assert system.r0 == pp.M + 1
    counts = count_consistent_keys(system)
    assert counts.predicted == counts.measured == 1
    only = next(iter(consistent_keys(system)))
    assert only.matrix == mk.matrix


def test_inconsistent_view_rejected(tiny):
    pp, mk, vks, packets = tiny
    # swap in a wrong key column for member 1
    wrong = VerifierKey(1, vks[1].column)
    view = CoalitionView.build(pp, {1: wrong}, packets)
    with pytest.raises(InconsistentSystem):
        count_consistent_keys(assemble_system(view))


def test_consistent_keys_enumeration_matches_brute(tiny, monkeypatch):
    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0]}, packets)
    system = assemble_system(view)
    got = {mk2.matrix.to_index_rows() for mk2 in consistent_keys(system)}
    want = {
        tuple(tuple(e.index for e in row) for row in rows)
        for rows in brute_consistent_keys(pp, (1,), [vks[0].column], list(packets))
    }
    assert got == want
    assert mk.matrix.to_index_rows() in got
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 2)
    with pytest.raises(TooLargeToEnumerate):
        list(consistent_keys(system))


def test_recover_verifier_key(rs_pp):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    rec = recover_verifier_key(view, 5)
    assert rec.index == 5
    assert rec.column == vks[4].column
    small = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1]}, packets)
    with pytest.raises(NotQualified):
        recover_verifier_key(small, 5)


def test_recover_verifier_key_asks_forgeable_once(rs_pp, monkeypatch):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    view = CoalitionView.build(rs_pp, {i: vks[i - 1] for i in (1, 3, 6)})
    calls = []
    forgeable = LinearCode.forgeable

    def counting(self, spec):
        calls.append(spec)
        return forgeable(self, spec)

    monkeypatch.setattr(LinearCode, "forgeable", counting)
    assert recover_verifier_key(view, 2).column == vks[1].column
    assert calls == [CoalitionSpec(frozenset((1, 3, 6)), 2)]
    calls.clear()
    with pytest.raises(TargetInCoalition):
        recover_verifier_key(view, 3)
    with pytest.raises(InvalidParams):
        recover_verifier_key(view, 0)
    assert calls == []
    with pytest.raises(InvalidParams):
        recover_verifier_key(view, 7)
    pair = CoalitionView.build(rs_pp, {2: vks[1], 5: vks[4]})
    with pytest.raises(NotQualified):
        recover_verifier_key(pair, 1)
    assert [c.target for c in calls] == [7, 1]


def test_view_checks_its_observed_packets(rs_pp, e25):
    # the README's params and seed; each malformed packet used to pass the
    # view and fail later, in spans or a forgery, with a bare IndexError or
    # a DimensionMismatch.  A packet refuses a bad tracker or payload when it
    # is built, and the view a tag of the wrong width or field
    mk = keygen(rs_pp, 7)
    vks = distribute(rs_pp, mk)
    good = tag_basis(rs_pp, mk, [(1, 0, 2), (0, 1, 4)])
    tag = good[0].tag
    keys = {i: vks[i - 1] for i in (1, 2, 3)}
    bad = [
        ((1, (1, 9, 3), tag), InvalidParams),
        ((1, (1, 0), tag), LengthMismatch),
        ((1, (1, 0, 2, 3), tag), LengthMismatch),
        ((5, (1, 0, 2), tag), InvalidParams),
        ((1, (1, 0, "2"), tag), FieldMismatch),
        ((1, (1, 0, 2), tag[:2]), LengthMismatch),
        ((1, (1, 0), (e25.one,) * 3), FieldMismatch),
        ((1, (1, 0, 2), (e25.one,) * 3), LengthMismatch),
    ]
    for fields, error in bad:
        with pytest.raises(error):
            CoalitionView.build(rs_pp, keys, (*good, TaggedPacket(*fields)))
        with pytest.raises(error):
            CoalitionView(rs_pp, (1, 2, 3), tuple(keys.values()), (TaggedPacket(*fields),))
    # a direct construction keeps the members sorted, one key each
    for members, held in (((3, 1, 2), vks[:3]), ((1, 2), vks[:3]), ((1, 1, 2), vks[:3])):
        with pytest.raises(InvalidParams):
            CoalitionView(rs_pp, members, held, ())


def test_deterministic_forge_end_to_end(rs_pp):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    basis = ((1, 0, 0), (0, 1, 0))
    packets = tag_basis(rs_pp, mk, basis)
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    payload = (0, 0, 1)  # outside span{e1, e2}
    pkt = deterministic_forge(view, 4, payload)
    assert pkt.payload == payload
    assert verify(rs_pp, vks[3], pkt)
    with pytest.raises(PayloadInSubspace):
        deterministic_forge(view, 4, (1, 1, 0))
    with pytest.raises(TargetInCoalition):
        deterministic_forge(view, 2, payload)
    with pytest.raises(NotQualified):
        deterministic_forge(
            CoalitionView.build(rs_pp, {1: vks[0]}, packets), 4, payload
        )


def test_packet_for_label_hits_requested_label(rs_pp):
    from subtag.scheme import label as scheme_label

    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    want = rs_pp.ext.element(77)
    pkt = adversary._packet(rs_pp, rs_pp.tag_slot(4), (0, 0, 1), want.index)
    got = rs_pp.ext.zero
    g = [rs_pp.ext.element(x) for x in rs_pp.generator_indices(4)]
    for t in range(rs_pp.kdim):
        got = got + pkt.tag[t] * g[t]
    assert got == want
    # the packet passes at the target exactly when the guess equals the
    # label the target's key produces
    true_label = scheme_label(rs_pp, vks[3], 1, (0, 0, 1))
    assert verify(rs_pp, vks[3], pkt) == (want == true_label)


def test_packet_for_label_divides_by_the_first_nonzero_slot(rs_pp):
    base = BaseField(2, 8)
    ext = ExtField(base, 3)
    gf256_pp = PublicParams(base=base, ext=ext, n=2, M=2, code=rs_code(ext, range(8), 3))
    for pp in (rs_pp, gf256_pp):
        labels = [pp.ext.element(i) for i in (1, 77, pp.ext.order - 1)]
        for target in range(1, pp.V + 1):
            g = [pp.ext.element(x) for x in pp.generator_indices(target)]
            t_star = next(t for t in range(pp.kdim) if g[t])
            for lab in labels:
                pkt = adversary._packet(pp, pp.tag_slot(target), (0, 0, 1), lab.index)
                want = [pp.ext.zero] * pp.kdim
                want[t_star] = lab / g[t_star]
                assert pkt.tag == tuple(want)


def test_forged_payloads_are_checked_on_indices(rs_pp, monkeypatch):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    # a short payload is refused, not packed into a malformed packet, with
    # the error view.spans raises for it
    with pytest.raises(LengthMismatch, match="payload needs 3 coordinates, got 2"):
        guess_forge(view, 4, (1, 0), seed=0)
    for bad, error in (((1, 0), LengthMismatch), ((9, 0, 0), InvalidParams),
                       ((0, -1, 1), InvalidParams)):
        with pytest.raises(error):
            deterministic_forge(view, 4, bad)
        with pytest.raises(error):
            guess_forge(view, 4, bad, seed=0)
        with pytest.raises(error):
            view.spans(bad)
    with pytest.raises(InvalidParams):
        label_distribution(view, 4, (9, 0, 0))
    # a guess builds no element to normalize its payload or tracker
    calls = []
    original = Field.element

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Field, "element", counting)
    pkt = guess_forge(view, 4, (0, 0, 1), seed=7)
    assert pkt.payload == (0, 0, 1) and pkt.tracker == 1
    assert calls == []


def test_each_forgery_checks_its_payload_once(rs_pp, monkeypatch):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    checks = []
    original = Field._symbols

    def counting(self, values):
        out = original(self, values)
        checks.append(out)
        return out

    monkeypatch.setattr(Field, "_symbols", counting)
    forged = deterministic_forge(view, 4, [0, 0, 1])
    assert checks == [(0, 0, 1)]
    assert verify(rs_pp, vks[3], forged)
    checks.clear()
    guess_forge(view, 4, [0, 0, 1], seed=7)
    assert checks == [(0, 0, 1)]


def test_untabulated_field_multiplies_without_digit_loops(monkeypatch):
    # GF(2^8)^3 multiplies by its compiled product and reads coordinates by
    # shift and mask: the divmod digit loop runs neither in its arithmetic
    # nor in an attack on it
    base = BaseField(2, 8)
    ext = ExtField(base, 3)
    pp = PublicParams(base=base, ext=ext, n=2, M=2, code=rs_code(ext, range(8), 3))
    mk = keygen(pp, 5)
    vks = distribute(pp, mk)
    packets = tag_basis(pp, mk, ((1, 0, 0), (0, 1, 0)))
    calls = []
    real = fields._index_digits
    monkeypatch.setattr(fields, "_index_digits", lambda *a: calls.append(a) or real(*a))
    x, y = 13587199, 14087828
    assert (ext.mul_idx(x, y), ext.inv_idx(x)) == (220805, 7092954)
    assert ext.pow_idx(x, ext.order - 1) == 1
    view = CoalitionView.build(pp, {2: vks[1], 3: vks[2], 4: vks[3]}, packets)
    count = count_consistent_keys(assemble_system(view))
    forged = deterministic_forge(view, 1, (0, 0, 1))
    assert count.predicted == count.measured
    assert verify(pp, vks[0], forged)
    assert calls == []


def test_guesses_on_one_view_reduce_its_payloads_once(rs_pp, monkeypatch):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0]}, packets)
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    for k in range(32):
        guess_forge(view, 4, (0, 0, 1), seed=k)
    assert len(calls) <= 1
    with pytest.raises(PayloadInSubspace):
        guess_forge(view, 4, (2, 3, 0), seed=0)
    assert len(calls) <= 1


def test_guesses_on_one_payload_test_its_span_once(rs_pp, monkeypatch):
    # every call checks its payload's symbols; the span test runs once per
    # view and payload, and a list payload is the same payload as its tuple
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0]}, packets)
    tested, checked = [], []
    in_span, check = adversary._in_span, adversary._check_payload
    monkeypatch.setattr(adversary, "_in_span", lambda f, b, v: tested.append(v) or in_span(f, b, v))
    monkeypatch.setattr(adversary, "_check_payload", lambda pp, v: checked.append(v) or check(pp, v))
    k = 6
    forged = [guess_forge(view, 4, (0, 0, 1), seed=s) for s in range(k)]
    assert tested == [(0, 0, 1)]
    assert checked == [(0, 0, 1)] * k
    assert [guess_forge(view, 4, [0, 0, 1], seed=s) for s in range(k)] == forged
    assert tested == [(0, 0, 1)] and len(checked) == 2 * k
    for payload in ((2, 3, 0), [2, 3, 0], (2, 3, 0)):
        with pytest.raises(PayloadInSubspace):
            guess_forge(view, 4, payload, seed=0)
    assert tested == [(0, 0, 1), (2, 3, 0)] and len(checked) == 2 * k + 3
    # a malformed payload is refused on every call and never tested
    for _ in range(2):
        with pytest.raises(InvalidParams):
            guess_forge(view, 4, (0, 0, 5), seed=0)
    assert len(tested) == 2
    # another view over the same traffic asks its own question
    other = CoalitionView.build(rs_pp, {2: vks[1]}, packets)
    guess_forge(other, 4, (0, 0, 1), seed=0)
    assert tested == [(0, 0, 1), (2, 3, 0), (0, 0, 1)]


def test_forgeable_answers_each_coalition_once(f5, e125, monkeypatch):
    # a code of its own, so no other test has asked it anything yet
    pp = PublicParams(base=f5, ext=e125, n=2, M=2, code=rs_code(e125, list(range(6)), 3))
    mk = keygen(pp, 3)
    vks = distribute(pp, mk)
    packets = tag_basis(pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(pp, {i: vks[i - 1] for i in (1, 3, 6)}, packets)
    witnesses = []
    real = codes._span_witness
    monkeypatch.setattr(codes, "_span_witness", lambda *a: witnesses.append(a) or real(*a))
    spec = CoalitionSpec(frozenset((1, 3, 6)), 2)
    assert pp.code.forgeable(spec)[0]
    forged = deterministic_forge(view, 2, (0, 0, 1))
    assert verify(pp, vks[1], forged)
    assert len(witnesses) == 1
    assert pp.code.forgeable(CoalitionSpec(frozenset((6, 1, 3)), 2)) == pp.code.forgeable(spec)
    assert len(witnesses) == 1
    # out-of-range coordinates raise on every call, before the memo
    for _ in range(2):
        for bad in (CoalitionSpec(frozenset((1, 3)), 7), CoalitionSpec(frozenset((1, 9)), 2)):
            with pytest.raises(InvalidParams):
                pp.code.forgeable(bad)
    assert len(witnesses) == 1
    # an unqualified pair is answered once too
    pair = CoalitionSpec(frozenset((2, 5)), 1)
    assert pp.code.forgeable(pair) == (False, None)
    with pytest.raises(NotQualified):
        recover_verifier_key(CoalitionView.build(pp, {2: vks[1], 5: vks[4]}), 1)
    assert len(witnesses) == 2


def test_spans_checks_its_payload(rs_pp):
    # the README's view: three members who saw the basis (1,0,2), (0,1,4)
    mk = keygen(rs_pp, 7)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, [(1, 0, 2), (0, 1, 4)])
    view = CoalitionView.build(rs_pp, {i: vks[i - 1] for i in (1, 2, 3)}, packets)
    assert view.spans((1, 0, 2)) and view.spans([3, 1, 0])
    assert not view.spans((0, 0, 1))
    # a fourth coordinate used to be dropped, a missing one an IndexError
    for wrong_length in ((1, 0, 2, 3), (1,), ()):
        with pytest.raises(LengthMismatch):
            view.spans(wrong_length)
    with pytest.raises(InvalidParams):
        view.spans((1, 0, 5))
    with pytest.raises(FieldMismatch):
        view.spans((1, 0, "2"))


def test_guess_forge_deterministic_per_seed(rs_pp):
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0]}, packets)
    a = guess_forge(view, 4, (0, 0, 1), seed=55)
    b = guess_forge(view, 4, (0, 0, 1), seed=55)
    c = guess_forge(view, 4, (0, 0, 1), seed=56)
    assert a == b
    assert a != c
    with pytest.raises(TargetInCoalition):
        guess_forge(view, 1, (0, 0, 1), seed=1)


def test_label_distribution_matches_brute(tiny):
    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0]}, packets)
    hist = label_distribution(view, 3, (0, 1))
    brute = brute_label_histogram(
        pp, (1,), [vks[0].column], list(packets), 3, 1, (0, 1)
    )
    assert {e.index: c for e, c in hist.items()} == brute


def test_label_distribution_refuses_above_the_guard(tiny, monkeypatch):
    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0]}, packets)
    assert count_consistent_keys(assemble_system(view)).measured == 4
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 3)
    with pytest.raises(TooLargeToEnumerate, match=r"^4\^1 solutions exceed the guard 3$"):
        label_distribution(view, 3, (0, 1))
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 4)
    assert sum(label_distribution(view, 3, (0, 1)).values()) == 4


def test_label_distribution_uniform_for_unqualified(tiny):
    """The heart of the security bound: over all consistent keys, the
    target's label is exactly uniform, so a substitution passes with
    probability exactly 1/q^l."""
    pp, mk, vks, packets = tiny
    # any two columns of the [3,2] code are qualified, so stay below that
    for members in ((), (1,), (2,)):
        view = CoalitionView.build(pp, {i: vks[i - 1] for i in members}, packets)
        hist = label_distribution(view, 3, (0, 1))
        assert len(hist) == pp.ext.order
        counts = set(hist.values())
        assert len(counts) == 1, members


def test_label_distribution_rejects_member_target(tiny):
    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0], 3: vks[2]}, packets)
    with pytest.raises(TargetInCoalition):
        label_distribution(view, 3, (0, 1))


def test_label_point_mass_when_coalition_qualified(tiny):
    from subtag.scheme import label as scheme_label

    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0], 2: vks[1]}, packets)
    hist = label_distribution(view, 3, (0, 1))
    true_label = scheme_label(pp, vks[2], 1, (0, 1))
    assert hist == {true_label: sum(hist.values())}
