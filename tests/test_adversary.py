import itertools

import pytest

from subtag.adversary import (
    AttackSystem,
    CoalitionView,
    assemble_system,
    count_consistent_keys,
    deterministic_forge,
    guess_forge,
    label_distribution,
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
from subtag import adversary, codes, fields, linalg
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

from oracles import (
    all_vectors,
    brute_consistent_keys,
    brute_label_histogram,
    brute_label_histogram_over,
)


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


def _flat(pp, mk):
    """The master key in the attack system's unknowns: a_{r,t} at t*(M+1) + r."""
    rows = mk.matrix.to_index_rows()
    return tuple(rows[r][t] for t in range(pp.kdim) for r in range(pp.M + 1))


def _particular(system):
    return tuple(r[0] for r in system._solution.particular.to_index_rows())


def _affine_keys(pp, system):
    """Every master key in the solve's affine set, particular solution plus
    each combination of the null basis, as index rows."""
    sol = system._solution
    part = _particular(system)
    height = pp.M + 1
    keys = set()
    for combo in itertools.product(range(pp.ext.order), repeat=sol.nullity):
        flat = pp.ext.combine((1, *combo), (part, *sol.null_basis), len(part))
        keys.add(tuple(tuple(flat[r::height]) for r in range(height)))
    return keys


def test_second_session_pins_the_key(tiny_pp, rs_pp):
    """Tagging two independent payloads under one key raises r0 to M+1,
    and the view's one solution is then the master key itself."""
    pp = tiny_pp
    mk = keygen(pp, 21)
    p1 = tag_payload(pp, mk, (1, 0))
    p2 = tag_payload(pp, mk, (0, 1))
    view = CoalitionView.build(pp, {1: distribute(pp, mk)[0]}, (p1, p2))
    system = assemble_system(view)
    assert system.r0 == pp.M + 1
    counts = count_consistent_keys(system)
    assert counts.predicted == counts.measured == 1
    assert _particular(system) == _flat(pp, mk)
    # over F_5 a second session on the first basis doubled raises r0 to M+1
    # without widening the observed span: an outsider then holds the whole
    # key and forges, against every verifier, on a payload outside that span
    mk = keygen(rs_pp, 21)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0))) + tag_basis(
        rs_pp, mk, ((2, 0, 0), (0, 2, 0))
    )
    outsider = CoalitionView.build(rs_pp, {}, packets)
    system = assemble_system(outsider)
    assert system.r0 == rs_pp.M + 1 and system.k0 == 0
    assert _particular(system) == _flat(rs_pp, mk)
    assert not outsider.spans((0, 0, 1))
    for target in range(1, rs_pp.V + 1):
        assert verify(rs_pp, vks[target - 1], deterministic_forge(outsider, target, (0, 0, 1)))


def test_inconsistent_view_rejected(tiny):
    pp, mk, vks, packets = tiny
    # swap in a wrong key column for member 1
    wrong = VerifierKey(1, vks[1].column)
    view = CoalitionView.build(pp, {1: wrong}, packets)
    with pytest.raises(InconsistentSystem):
        count_consistent_keys(assemble_system(view))
    # the forgery and the histogram read the same solve
    with pytest.raises(InconsistentSystem):
        deterministic_forge(view, 3, (0, 1))
    with pytest.raises(InconsistentSystem):
        label_distribution(view, 3, (0, 1))


def test_consistent_keys_enumeration_matches_brute(tiny):
    # the solve's affine set is exactly the set of keys the view allows
    pp, mk, vks, packets = tiny
    for members in ((), (1,), (1, 2)):
        view = CoalitionView.build(pp, {i: vks[i - 1] for i in members}, packets)
        got = _affine_keys(pp, assemble_system(view))
        want = {
            tuple(tuple(e.index for e in row) for row in rows)
            for rows in brute_consistent_keys(
                pp, members, [vks[i - 1].column for i in members], list(packets)
            )
        }
        assert got == want, members
        assert mk.matrix.to_index_rows() in got


def test_qualified_forgery_carries_the_target_label(rs_pp):
    from subtag.scheme import label as scheme_label

    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1], 3: vks[2]}, packets)
    pkt = deterministic_forge(view, 5, (0, 0, 1))
    g = rs_pp.generator_indices(5)
    assert rs_pp.ext.dot(tuple(e.index for e in pkt.tag), g) == scheme_label(
        rs_pp, vks[4], 1, (0, 0, 1)
    ).index
    small = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1]}, packets)
    with pytest.raises(NotQualified):
        deterministic_forge(small, 5, (0, 0, 1))


def test_forgery_refuses_member_and_out_of_range_targets(rs_pp, monkeypatch):
    # the payload is checked first, then the target; the one solve, not the
    # code-span test, decides the forgery
    mk = keygen(rs_pp, 3)
    vks = distribute(rs_pp, mk)
    view = CoalitionView.build(rs_pp, {i: vks[i - 1] for i in (1, 3, 6)})
    calls = []
    forgeable = LinearCode.forgeable

    def counting(self, spec):
        calls.append(spec)
        return forgeable(self, spec)

    monkeypatch.setattr(LinearCode, "forgeable", counting)
    payload = (0, 0, 1)
    assert verify(rs_pp, vks[1], deterministic_forge(view, 2, payload))
    with pytest.raises(TargetInCoalition):
        deterministic_forge(view, 3, payload)
    with pytest.raises(LengthMismatch):
        deterministic_forge(view, 3, (0, 1))
    for target in (0, 7):
        with pytest.raises(InvalidParams):
            deterministic_forge(view, target, payload)
    seen = CoalitionView.build(
        rs_pp, {i: vks[i - 1] for i in (1, 3, 6)}, tag_basis(rs_pp, mk, (payload, (1, 0, 0)))
    )
    with pytest.raises(PayloadInSubspace):
        deterministic_forge(seen, 3, payload)
    pair = CoalitionView.build(rs_pp, {2: vks[1], 5: vks[4]})
    with pytest.raises(NotQualified):
        deterministic_forge(pair, 1, payload)
    assert calls == []


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


def test_view_checks_its_keys_as_verify_does(rs_pp, e25):
    # a short key and a key of another field are refused when the view is
    # built, with the errors verify and label raise for them
    from subtag.scheme import label as scheme_label

    mk = keygen(rs_pp, 7)
    vks = distribute(rs_pp, mk)
    pkt = tag_payload(rs_pp, mk, (1, 0, 2))
    short = VerifierKey(1, vks[0].column[:-1])
    foreign = VerifierKey(1, (e25.one,) * (rs_pp.M + 1))
    for key, error in ((short, LengthMismatch), (foreign, FieldMismatch)):
        with pytest.raises(error):
            verify(rs_pp, key, pkt)
        with pytest.raises(error):
            scheme_label(rs_pp, key, 1, (1, 0, 2))
        with pytest.raises(error):
            CoalitionView.build(rs_pp, {1: key, 2: vks[1]}, (pkt,))
        with pytest.raises(error):
            CoalitionView(rs_pp, (1,), (key,), ())
    # a direct construction checks each member and its key's index too
    for members, held in (((2,), vks[:1]), ((7,), vks[:1]), ((1.0,), vks[:1])):
        with pytest.raises(InvalidParams):
            CoalitionView(rs_pp, members, held, (pkt,))


def test_targets_are_refused_by_type_before_membership(tiny):
    # True and 1.0 equal member 1, but are not verifier indices
    pp, mk, vks, packets = tiny
    view = CoalitionView.build(pp, {1: vks[0]}, packets)
    attacks = (
        lambda target: deterministic_forge(view, target, (0, 1)),
        lambda target: guess_forge(view, target, (0, 1), seed=1),
        lambda target: label_distribution(view, target, (0, 1)),
    )
    for attack in attacks:
        for target in (True, 1.0, "1"):
            with pytest.raises(InvalidParams):
                attack(target)
        with pytest.raises(TargetInCoalition):
            attack(1)


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
    # tag_basis's rank check left this basis in the echelon cache
    guess_forge(view, 4, (0, 0, 1), seed=0)
    assert calls == []
    linalg._echelon.cache_clear()
    view = CoalitionView.build(rs_pp, {1: vks[0]}, packets)
    for k in range(32):
        guess_forge(view, 4, (0, 0, 1), seed=k)
    assert len(calls) == 1
    with pytest.raises(PayloadInSubspace):
        guess_forge(view, 4, (2, 3, 0), seed=0)
    assert len(calls) == 1


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
    assert pp.code.forgeable(CoalitionSpec(frozenset((5, 2)), 1)) == (False, None)
    with pytest.raises(NotQualified):
        deterministic_forge(CoalitionView.build(pp, {2: vks[1], 5: vks[4]}), 1, (0, 0, 1))
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
    # a uniform histogram lists every one of the 4 labels
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 3)
    with pytest.raises(TooLargeToEnumerate, match=r"^4 labels exceed the guard 3$"):
        label_distribution(view, 3, (0, 1))
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 4)
    assert sum(label_distribution(view, 3, (0, 1)).values()) == 4
    # a fixed label is one entry, however many keys give it: the observed
    # payload's label is fixed by the traffic
    monkeypatch.setattr("subtag.codes.ENUM_GUARD", 1)
    assert list(label_distribution(view, 3, (1, 0)).values()) == [4]


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


def _criterion_grid():
    """Acceptance 2's parameter grid: q, l, kdim, M in {2,3} x {1,2}^3."""
    for q, l, kdim, M in itertools.product((2, 3), (1, 2), (1, 2), (1, 2)):
        base = BaseField(q)
        ext = ExtField(base, l)
        if ext.order >= 3:
            code = rs_code(ext, [0, 1, 2], kdim)
        else:
            rows = [[1, 1, 1]] if kdim == 1 else [[1, 1, 0], [1, 0, 1]]
            code = LinearCode(Matrix.from_indices(ext, rows, ncols=3))
        yield PublicParams(base=base, ext=ext, n=min(l, M), M=M, code=code)


def _generation(pp, j):
    """Generation j's payload basis: the first n unit vectors scaled by
    1 + j mod (q-1), and shifted one place after every q-1 generations.
    Over F_3 the second generation repeats the first span doubled, so r0
    reaches M+1 with payloads still outside the observed span; over F_2
    each generation moves on, as in a second session."""
    c, shift = 1 + j % (pp.base.order - 1), j // (pp.base.order - 1)
    return tuple(
        tuple(c if k == (i + shift) % pp.l else 0 for k in range(pp.l)) for i in range(pp.n)
    )


def test_label_criterion_matches_brute_force():
    """One solve answers every label question exactly: on acceptance 2's
    grid, after 1..M+1 generations under one key, every coalition's label
    histogram for every target and payload equals the brute enumeration,
    and a deterministic forgery succeeds, and is accepted, exactly when
    that histogram has one label."""
    forged_at_full_rank = tiny_outsider_at_full_rank = 0
    for pp in _criterion_grid():
        mk = keygen(pp, 7)
        vks = distribute(pp, mk)
        packets = ()
        payloads = list(all_vectors(pp.base, pp.l))
        # each coalition's keys after one more generation are among its
        # keys before it, so the brute search is run once per coalition
        # and then re-checks those keys against all the traffic
        earlier = {}
        for j in range(pp.M + 1):
            packets += tag_basis(pp, mk, _generation(pp, j))
            for size in range(pp.V):
                for members in itertools.combinations(range(1, pp.V + 1), size):
                    view = CoalitionView.build(pp, {i: vks[i - 1] for i in members}, packets)
                    r0 = assemble_system(view).r0
                    keys = earlier[members] = list(
                        brute_consistent_keys(
                            pp,
                            members,
                            [vks[i - 1].column for i in members],
                            list(packets),
                            earlier.get(members),
                        )
                    )
                    for target in range(1, pp.V + 1):
                        if target in members:
                            continue
                        qualified = pp.code.forgeable(CoalitionSpec(frozenset(members), target))[0]
                        for payload in payloads:
                            case = (pp.base.order, pp.l, pp.kdim, pp.M, j, members, target, payload)
                            want = brute_label_histogram_over(pp, keys, target, 1, payload)
                            hist = label_distribution(view, target, payload)
                            assert {e.index: c for e, c in hist.items()} == want, case
                            if view.spans(payload):
                                with pytest.raises(PayloadInSubspace):
                                    deterministic_forge(view, target, payload)
                                continue
                            # outside the observed span the traffic fixes the
                            # label only once r0 = M + 1, by the Moore determinant
                            assert (len(want) == 1) == (qualified or r0 == pp.M + 1), case
                            if len(want) > 1:
                                with pytest.raises(NotQualified):
                                    deterministic_forge(view, target, payload)
                                continue
                            pkt = deterministic_forge(view, target, payload)
                            assert verify(pp, vks[target - 1], pkt), case
                            forged_at_full_rank += r0 == pp.M + 1 and not qualified
                    tiny = (pp.base.order, pp.l, pp.kdim, pp.M) == (2, 2, 2, 1)
                    tiny_outsider_at_full_rank += tiny and not members and r0 == pp.M + 1
    assert forged_at_full_rank > 0
    assert tiny_outsider_at_full_rank == 1
