"""Acceptance gate: one test per advertised guarantee.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (echoed
again in the terminal summary) and fails if the guarantee does not hold
at its stated tolerance.  Wherever a guarantee is combinatorial, the
reference answer comes from the brute-force oracles, not from the
library's own linear algebra.
"""

import itertools
import math
import random
import time

from subtag.adversary import (
    CoalitionView,
    assemble_system,
    count_consistent_keys,
    deterministic_forge,
    guess_forge,
    label_distribution,
)
from subtag.codes import CoalitionSpec, LinearCode, rs_code
from subtag.ec import (
    AGCodeSpec,
    EllipticCurve,
    classify_coalition,
    ec_points,
    residue_code,
)
from subtag.errors import NotQualified
from subtag.fields import BaseField, ExtField
from subtag.linalg import Matrix
from subtag.network import butterfly, random_topology, same_span, transmit
from subtag.rng import derive_seed
from subtag.scheme import (
    OpCounter,
    PublicParams,
    TaggedPacket,
    distribute,
    keygen,
    random_payload_basis,
    tag_basis,
    tag_payload,
    verify,
)

from conftest import acceptance_lines, random_full_rank
from oracles import (
    brute_consistent_keys,
    brute_dual_words,
    brute_label_histogram,
    packet_powers,
    spanned_vectors,
)


def _record(num: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    acceptance_lines.append(line)
    assert ok, line


def _brute_rank(field, idx_rows, width: int) -> int:
    span = spanned_vectors(field, idx_rows, width)
    r = 0
    while field.order**r < len(span):
        r += 1
    return r


def test_criterion_1_completeness(rs_pp):
    """100 seeded runs on butterfly plus two random 8-node DAGs: every
    verifier accepts everything it receives, every full-rank sink
    recovers the sent payload space exactly."""
    t0 = time.time()
    failures = []
    for seed in range(100):
        mk = keygen(rs_pp, seed)
        vks = distribute(rs_pp, mk)
        basis = random_payload_basis(rs_pp, seed)
        packets = tag_basis(rs_pp, mk, basis)
        wire = [p.symbols() for p in packets]
        topos = [
            ("butterfly", butterfly()),
            ("dag8a", random_topology(8, derive_seed(seed, "accept1/a"))),
            ("dag8b", random_topology(8, derive_seed(seed, "accept1/b"))),
        ]
        for name, topo in topos:
            tx = transmit(topo, rs_pp.base, wire, derive_seed(seed, name))
            for pos, node in enumerate(topo.verifier_nodes()):
                vk = vks[pos]
                for syms in tx.packets_at(node):
                    pkt = TaggedPacket.from_symbols(rs_pp, syms)
                    if not verify(rs_pp, vk, pkt):
                        failures.append((seed, name, node))
            for node in topo.sink_nodes():
                if tx.kernel_rank_at(node) != rs_pp.n:
                    continue
                rows = [list(s[1 : 1 + rs_pp.l]) for s in tx.packets_at(node)]
                if not same_span(rs_pp.base, rows, [list(b) for b in basis], rs_pp.l):
                    failures.append((seed, name, node, "recovery"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    _record(
        1,
        ok,
        f"completeness over 100 seeded runs x 3 topologies, {elapsed:.1f}s"
        + (f"; first failures {failures[:3]}" if failures else ""),
    )


def test_criterion_2_key_count_grid():
    """Closed-form consistent-key count equals full enumeration over the
    whole small-parameter grid, for every coalition size and every
    observed-payload rank."""
    t0 = time.time()
    mismatches = []
    checked = 0
    for q, l, kdim, M in itertools.product((2, 3), (1, 2), (1, 2), (1, 2)):
        base = BaseField(q)
        ext = ExtField(base, l)
        if ext.order >= 3:
            code = rs_code(ext, [0, 1, 2], kdim)
        else:
            # F_2 has too few evaluation points; use the classic length-3 codes
            rows = [[1, 1, 1]] if kdim == 1 else [[1, 1, 0], [1, 0, 1]]
            code = LinearCode(Matrix.from_indices(ext, rows, ncols=3))
        n = min(l, M)
        pp = PublicParams(base=base, ext=ext, n=n, M=M, code=code)
        assert ext.order ** (pp.kdim * (pp.M + 1)) <= 1 << 24
        mk = keygen(pp, 7)
        vks = distribute(pp, mk)
        basis = tuple(
            tuple(1 if j == i else 0 for j in range(l)) for i in range(n)
        )
        packets = tag_basis(pp, mk, basis)
        for size in range(0, pp.V + 1):
            members = tuple(range(1, size + 1))
            keys = {i: vks[i - 1] for i in members}
            for rho in range(0, n + 1):
                pkts = packets[:rho]
                view = CoalitionView.build(pp, keys, pkts)
                counts = count_consistent_keys(assemble_system(view))
                brute = sum(
                    1
                    for _ in brute_consistent_keys(
                        pp, members, [vks[i - 1].column for i in members], list(pkts)
                    )
                )
                d_rows = [
                    [e.index for e in packet_powers(pp, p.tracker, p.payload)]
                    for p in pkts
                ]
                r0 = _brute_rank(ext, d_rows, pp.M + 1)
                cols = [list(pp.generator_indices(i)) for i in members]
                k0 = _brute_rank(ext, cols, pp.kdim)
                closed = ext.order ** ((pp.M + 1 - r0) * (pp.kdim - k0))
                if not (closed == brute == counts.predicted == counts.measured):
                    mismatches.append(
                        (q, l, kdim, M, size, rho, closed, brute, counts.measured)
                    )
                checked += 1
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300.0
    _record(
        2,
        ok,
        f"consistent-key count: closed form == enumeration on {checked} grid "
        f"scenarios, {elapsed:.0f}s"
        + (f"; mismatches {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_3_uniform_labels_and_guess_rate(rs_pp, tiny_pp):
    """Below threshold the target's label is exactly uniform over the
    consistent keys (exhaustive on the small instance), so guessing
    cannot beat 1/q^l; the sampled guess rate sits within 3 sigma."""
    t0 = time.time()
    problems = []
    mk = keygen(tiny_pp, 5)
    vks = distribute(tiny_pp, mk)
    packets = tag_basis(tiny_pp, mk, ((1, 0),))
    for i in range(1, 4):
        view = CoalitionView.build(tiny_pp, {i: vks[i - 1]}, packets)
        for tgt in range(1, 4):
            if tgt == i:
                continue
            hist = label_distribution(view, tgt, (0, 1))
            if len(hist) != tiny_pp.ext.order or len(set(hist.values())) != 1:
                problems.append(("hist", i, tgt, sorted(hist.values())))
            brute = brute_label_histogram(
                tiny_pp, (i,), [vks[i - 1].column], list(packets), tgt, 1, (0, 1)
            )
            if {e.index: c for e, c in hist.items()} != brute:
                problems.append(("brute", i, tgt, brute))

    mk = keygen(rs_pp, 6)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    view = CoalitionView.build(rs_pp, {1: vks[0], 2: vks[1]}, packets)
    trials = 10_000
    accepted = 0
    for k in range(trials):
        pkt = guess_forge(view, 6, (0, 0, 1), derive_seed(202608, f"accept3/{k}"))
        if verify(rs_pp, vks[5], pkt):
            accepted += 1
    p = 1.0 / rs_pp.ext.order
    sigma = math.sqrt(p * (1 - p) / trials)
    rate = accepted / trials
    if abs(rate - p) > 3 * sigma:
        problems.append(("rate", accepted))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 60.0
    _record(
        3,
        ok,
        f"labels exactly uniform below threshold; guess rate {rate:.4f} vs "
        f"1/q^l = {p:.4f} over 10^4 trials (3 sigma = {3 * sigma:.4f}), "
        f"{elapsed:.0f}s" + (f"; problems {problems[:3]}" if problems else ""),
    )


def test_criterion_4_threshold(rs_pp, tiny_pp):
    """On the [6,3] code every size-3 coalition forges against every
    outsider and every size-2 coalition is refused; below threshold the
    small instance shows exactly uniform labels."""
    problems = []
    mk = keygen(rs_pp, 8)
    vks = distribute(rs_pp, mk)
    packets = tag_basis(rs_pp, mk, ((1, 0, 0), (0, 1, 0)))
    payload = (0, 0, 1)
    forged = 0
    for combo in itertools.combinations(range(1, 7), 3):
        view = CoalitionView.build(rs_pp, {i: vks[i - 1] for i in combo}, packets)
        for tgt in range(1, 7):
            if tgt in combo:
                continue
            try:
                pkt = deterministic_forge(view, tgt, payload)
            except NotQualified:
                problems.append(("refused", combo, tgt))
                continue
            if verify(rs_pp, vks[tgt - 1], pkt):
                forged += 1
            else:
                problems.append(("rejected", combo, tgt))
    blocked = 0
    for combo in itertools.combinations(range(1, 7), 2):
        view = CoalitionView.build(rs_pp, {i: vks[i - 1] for i in combo}, packets)
        for tgt in range(1, 7):
            if tgt in combo:
                continue
            try:
                deterministic_forge(view, tgt, payload)
                problems.append(("forged-below", combo, tgt))
            except NotQualified:
                blocked += 1

    mk2 = keygen(tiny_pp, 9)
    vks2 = distribute(tiny_pp, mk2)
    pkts2 = tag_basis(tiny_pp, mk2, ((1, 0),))
    for i in range(1, 4):
        view = CoalitionView.build(tiny_pp, {i: vks2[i - 1]}, pkts2)
        for tgt in range(1, 4):
            if tgt == i:
                continue
            hist = label_distribution(view, tgt, (0, 1))
            if len(set(hist.values())) != 1 or len(hist) != tiny_pp.ext.order:
                problems.append(("small-hist", i, tgt))

    ok = not problems and forged == 60 and blocked == 60
    _record(
        4,
        ok,
        f"threshold: {forged}/60 size-3 pairs forge, {blocked}/60 size-2 pairs "
        "not qualified, small-instance labels uniform"
        + (f"; problems {problems[:3]}" if problems else ""),
    )


def test_criterion_5_span_equals_dual_support():
    """For random codes the span criterion, the dual-support criterion,
    and the published access structure all agree, exhaustively over
    every coalition and target."""
    t0 = time.time()
    rng = random.Random(502026)
    f4 = BaseField(2, 2)
    f5 = BaseField(5)
    problems = []
    pairs = 0
    for code_no in range(50):
        field = f4 if rng.random() < 0.5 else f5
        ncols = rng.randint(2, 6)
        kdim = rng.randint(1, min(3, ncols))
        gen = random_full_rank(kdim, ncols, field, rng.randrange(1 << 30))
        code = LinearCode(gen)
        words = brute_dual_words(field, gen.to_index_rows(), ncols)
        masks = [sum(1 << j for j, x in enumerate(w) if x) for w in words]
        for tgt in range(1, ncols + 1):
            tgt_masks = [m for w, m in zip(words, masks) if w[tgt - 1]]
            others = [i for i in range(1, ncols + 1) if i != tgt]
            minimal: list[frozenset] = []
            for size in range(len(others) + 1):
                for combo in itertools.combinations(others, size):
                    allowed = (1 << (tgt - 1)) | sum(1 << (i - 1) for i in combo)
                    oracle = any(m & ~allowed == 0 for m in tgt_masks)
                    lib = code.forgeable(CoalitionSpec(frozenset(combo), tgt))[0]
                    if oracle != lib:
                        problems.append((code_no, tgt, combo))
                    pairs += 1
                    s = frozenset(combo)
                    if oracle and not any(prev <= s for prev in minimal):
                        minimal.append(s)
            lib_access = {frozenset(c) for c in code.access_structure(tgt)}
            if lib_access != set(minimal):
                problems.append(("access", code_no, tgt))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 120.0
    _record(
        5,
        ok,
        f"span == dual-support on {pairs} (coalition, target) pairs across 50 "
        f"random codes, access structures exact, {elapsed:.0f}s"
        + (f"; problems {problems[:3]}" if problems else ""),
    )


def test_criterion_6_point_sum_classifier():
    """The group-law classifier and the span criterion name the same
    forgeable pairs on the residue codes of the 9-point curve, for both
    pole budgets and both critical coalition sizes."""
    base = BaseField(5)
    curve = EllipticCurve(base, base.element(1), base.element(1))
    affine = [p for p in ec_points(curve) if not p.is_infinity]
    problems = []
    kinds_seen = set()
    saw_zero_sum_refusal = False
    rows = 0
    for degree in (2, 3):
        spec = AGCodeSpec(curve, tuple(affine[:6]), degree)
        code = residue_code(spec)
        words = brute_dual_words(base, code.generator.to_index_rows(), 6)
        masks = [sum(1 << j for j, x in enumerate(w) if x) for w in words]
        for size in (6 - degree - 1, 6 - degree):
            for combo in itertools.combinations(range(1, 7), size):
                for tgt in range(1, 7):
                    if tgt in combo:
                        continue
                    cls = classify_coalition(spec, combo, tgt)
                    kinds_seen.add(cls.kind.value)
                    if (
                        size == 6 - degree
                        and cls.complement_sum.is_infinity
                        and not cls.against(tgt)
                    ):
                        saw_zero_sum_refusal = True
                    span = code.forgeable(CoalitionSpec(frozenset(combo), tgt))[0]
                    allowed = (1 << (tgt - 1)) | sum(1 << (i - 1) for i in combo)
                    support = any(
                        m & ~allowed == 0
                        for w, m in zip(words, masks)
                        if w[tgt - 1]
                    )
                    if not (cls.against(tgt) == span == support):
                        problems.append((degree, combo, tgt))
                    rows += 1
    coverage = {"none", "single-target", "all-targets"} <= kinds_seen
    ok = not problems and coverage and saw_zero_sum_refusal
    _record(
        6,
        ok,
        f"point-sum classifier == span == dual-support on {rows} pairs; "
        f"kinds seen {sorted(kinds_seen)}, zero-sum refusal exercised"
        + (f"; problems {problems[:3]}" if problems else ""),
    )


def test_criterion_7_cost_table(rs_pp):
    """Serialized packet length, key storage, and the distribution
    multiplication count match the stated schedule exactly."""
    problems = []
    want_symbols = 1 + rs_pp.l + rs_pp.kdim * rs_pp.l
    if rs_pp.packet_symbols != want_symbols or want_symbols != 13:
        problems.append(("packet_symbols", rs_pp.packet_symbols))
    mk = keygen(rs_pp, 4)
    pkt = tag_payload(rs_pp, mk, (1, 0, 0))
    if len(pkt.symbols()) != want_symbols:
        problems.append(("serialized", len(pkt.symbols())))
    counter = OpCounter()
    vks = distribute(rs_pp, mk, counter)
    if counter.ext_mults != (rs_pp.M + 1) * rs_pp.kdim * rs_pp.V:
        problems.append(("distribute_mults", counter.ext_mults))
    if any(len(vk.column) != rs_pp.M + 1 for vk in vks):
        problems.append(("key_storage",))
    ok = not problems
    _record(
        7,
        ok,
        f"cost table: packet = {want_symbols} symbols, key = {rs_pp.M + 1} "
        f"elements, distribution = {(rs_pp.M + 1) * rs_pp.kdim * rs_pp.V} mults"
        + (f"; problems {problems}" if problems else ""),
    )
