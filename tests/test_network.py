import dataclasses
import hashlib
import random

import pytest

from subtag import linalg, rng
from subtag.errors import (
    CyclicGraph,
    DimensionMismatch,
    FieldMismatch,
    InvalidParams,
    LengthMismatch,
    UnknownNode,
)
from subtag.fields import BaseField, Field
from subtag.network import (
    Node,
    Topology,
    _resolve_kernels,
    butterfly,
    parse_topology,
    random_topology,
    same_span,
    transmit,
)

from oracles import spanned_vectors


def test_topology_validation():
    s, a = Node("s", "source"), Node("a", "verifier")
    with pytest.raises(InvalidParams):
        Topology((s, Node("s", "sink")), (("s", "s"),), {})  # duplicate name
    with pytest.raises(InvalidParams):
        Topology((a,), (), {})  # no source
    with pytest.raises(InvalidParams):
        Topology((s, Node("t", "source")), (("s", "t"),), {})  # two sources
    with pytest.raises(InvalidParams):
        # an edge into the source, kept acyclic via a helper node
        Topology(
            (s, Node("x", "internal"), Node("t", "sink")),
            (("x", "s"), ("s", "t")),
            {},
        )
    with pytest.raises(CyclicGraph):
        Topology((s, a), (("a", "a"),), {})  # self loop
    with pytest.raises(UnknownNode):
        Topology((s, a), (("s", "zz"),), {})


def test_cycle_detection():
    nodes = (
        Node("s", "source"),
        Node("a", "internal"),
        Node("b", "internal"),
        Node("t", "sink"),
    )
    edges = (("s", "a"), ("a", "b"), ("b", "a"), ("b", "t"))
    with pytest.raises(CyclicGraph):
        Topology(nodes, edges, {}).topo_order()


def test_butterfly_shape():
    t = butterfly()
    assert t.source == "s"
    assert t.verifier_nodes() == ("a", "b", "c", "d")
    assert t.sink_nodes() == ("t1", "t2")
    assert len(t.edges) == 9
    order = t.topo_order()
    pos = {name: i for i, name in enumerate(order)}
    for a, b in t.edges:
        assert pos[a] < pos[b]


def format_topology(t: Topology) -> str:
    """The text ``parse_topology`` reads, for round trips."""
    lines = [f"node {nd.name} {nd.role}" for nd in t.nodes]
    lines += [f"edge {a} {b}" for a, b in t.edges]
    for name in sorted(t.kernels):
        flat = " ".join(str(v) for row in t.kernels[name] for v in row)
        lines.append(f"kernel {name} {flat}")
    return "\n".join(lines) + "\n"


def test_parse_format_round_trip():
    t = butterfly()
    text = format_topology(t)
    t2 = parse_topology(text)
    assert [(n.name, n.role) for n in t2.nodes] == [(n.name, n.role) for n in t.nodes]
    assert t2.edges == t.edges
    assert t2.kernels == t.kernels


def test_parse_rejects_garbage():
    with pytest.raises(InvalidParams):
        parse_topology("node s source\nnode a dancer\n")
    with pytest.raises(InvalidParams):
        parse_topology("node s source\nedge s\n")
    with pytest.raises(UnknownNode):
        parse_topology("node s source\nnode t sink\nedge s t\nkernel q 1\n")


def test_parse_ignores_comments_and_blanks():
    t = parse_topology(
        """
        # toy line
        node s source
        node t sink

        edge s t
        """
    )
    assert t.source == "s" and t.sink_nodes() == ("t",)


def test_butterfly_global_kernels_frozen():
    t = butterfly()
    base = BaseField(5)
    f = transmit(t, base, [(1, 0), (0, 1)], seed=0).global_vectors
    # edges in declaration order: s-a, s-b, a-t1, a-c, b-c, b-t2, c-d, d-t1, d-t2
    assert f == (
        (1, 0),
        (0, 1),
        (1, 0),
        (1, 0),
        (0, 1),
        (0, 1),
        (1, 1),
        (1, 1),
        (1, 1),
    )


def test_butterfly_flow_frozen():
    t = butterfly()
    base = BaseField(5)
    p1, p2 = (1, 0), (0, 1)
    tx = transmit(t, base, [p1, p2], seed=0)
    assert tx.packets_at("t1") == ((1, 0), (1, 1))
    assert tx.packets_at("t2") == ((0, 1), (1, 1))
    assert tx.packets_at("c") == ((1, 0), (0, 1))
    assert tuple(tx.global_vectors[i] for i in t.in_edges("t1")) == ((1, 0), (1, 1))
    assert tx.kernel_rank_at("t1") == 2
    assert tx.kernel_rank_at("t2") == 2
    assert tx.kernel_rank_at("d") == 1
    # the source receives nothing, so its observed rank is zero
    assert tx.kernel_rank_at("s") == 0


def test_transmit_respects_global_rows():
    # received packets must equal global_rows @ sent packets, node by node
    t = random_topology(7, seed=3)
    base = BaseField(3)
    packets = [(1, 0, 2, 1), (0, 1, 1, 1)]
    tx = transmit(t, base, packets, seed=9)
    for node in t.verifier_nodes() + t.sink_nodes():
        rows = [tx.global_vectors[i] for i in t.in_edges(node)]
        got = tx.packets_at(node)
        for vec, pkt in zip(rows, got):
            expect = [0] * 4
            for c, src in zip(vec, packets):
                if c:
                    for i in range(4):
                        expect[i] = base.add_idx(expect[i], base.mul_idx(c, src[i]))
            assert tuple(expect) == pkt


def test_transmit_validation(monkeypatch):
    t = butterfly()
    base = BaseField(5)
    with pytest.raises(InvalidParams):
        transmit(t, base, [], seed=0)
    with pytest.raises(LengthMismatch):
        transmit(t, base, [(1, 0), (0,)], seed=0)
    with pytest.raises(InvalidParams):
        # butterfly source has out-degree 2; cannot push three packets
        transmit(t, base, [(1, 0), (0, 1), (1, 1)], seed=0)
    with pytest.raises(UnknownNode):
        transmit(t, base, [(1, 0), (0, 1)], seed=0, inject_at="zz", fake=(1, 1))
    with pytest.raises(LengthMismatch):
        transmit(t, base, [(1, 0), (0, 1)], seed=0, inject_at="b", fake=(1,))
    with pytest.raises(InvalidParams, match=r"^index 5 out of range for GF\(5\)$"):
        transmit(t, base, [(1, 0), (0, 5)], seed=0)
    with pytest.raises(InvalidParams, match=r"^index -1 out of range for GF\(5\)$"):
        transmit(t, base, [(1, 0), (0, 1)], seed=0, inject_at="b", fake=(1, -1))
    # an honest run checks symbol ranges on indices, building no element
    calls = []
    original = Field.element

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Field, "element", counting)
    tx = transmit(t, base, [(1, 0), (0, 1)], seed=0)
    assert tx.packets_at("t1") == ((1, 0), (1, 1))
    assert calls == []


def test_topology_keeps_its_own_kernels():
    nodes = (Node("s", "source"), Node("a", "verifier"), Node("t", "sink"))
    kernels = {"a": [[1]]}
    t = Topology(nodes, (("s", "a"), ("a", "t")), kernels)
    assert kernels == {"a": [[1]]}
    before = transmit(t, BaseField(5), [(1, 2)], seed=0)
    # editing the caller's dict afterwards reaches neither the topology nor
    # a transmission
    kernels["a"] = ((),)
    assert dict(t.kernels) == {"a": ((1,),)}
    after = transmit(t, BaseField(5), [(1, 2)], seed=0)
    assert after.edge_packets == before.edge_packets == ((1, 2), (1, 2))
    with pytest.raises(TypeError):
        t.kernels["a"] = ((2,),)


def test_kernel_shape_checking():
    text = "node s source\nnode m internal\nnode t sink\nedge s m\nedge m t\nkernel m 1 1\n"
    with pytest.raises(DimensionMismatch):
        transmit(parse_topology(text), BaseField(2), [(1,)], seed=0)


def test_injection_changes_downstream():
    t = butterfly()
    base = BaseField(5)
    p1, p2 = (1, 0), (0, 1)
    tx = transmit(t, base, [p1, p2], seed=0, inject_at="b", fake=(3, 3))
    # a's side is untouched, b's outputs are the fake, c mixes honest + fake
    assert tx.packets_at("c") == ((1, 0), (3, 3))
    assert tx.packets_at("t2")[0] == (3, 3)
    assert tx.injected_at == "b"


def test_honest_transmit_mixes_each_edge_once(monkeypatch):
    # one Field._mix call per sending node mixes all of its out-edges, the
    # global vectors and the packets together (width n + w = 5), and one
    # more mixes every edge's global vector against the source packets for
    # the identity check (width 3); no row goes through combine alone
    mixes, combines = [], []
    original = Field._mix

    def counting(self, rows, vectors, width):
        rows = tuple(rows)
        mixes.append((len(rows), len(vectors), width))
        return original(self, rows, vectors, width)

    monkeypatch.setattr(Field, "_mix", counting)
    monkeypatch.setattr(Field, "combine", lambda *args: combines.append(args))
    transmit(butterfly(), BaseField(5), [(1, 0, 2), (0, 1, 4)], seed=0)
    # nodes s, a, b, c, d in topological order: (out-edges, in-packets, width)
    assert mixes == [(2, 2, 5), (2, 1, 5), (2, 1, 5), (1, 2, 5), (2, 1, 5), (9, 2, 3)]
    assert combines == []


@pytest.mark.parametrize("inject_at", ("s", "a", "b", "c", "d"))
def test_injected_run_keeps_the_honest_global_vectors(inject_at):
    t = butterfly()
    base = BaseField(5)
    packets, fake = [(1, 0, 2), (0, 1, 4)], (3, 3, 1)
    honest = transmit(t, base, packets, seed=4)
    tx = transmit(t, base, packets, seed=4, inject_at=inject_at, fake=fake)
    assert tx.global_vectors == honest.global_vectors
    assert tx.kernels == honest.kernels
    assert all(tx.edge_packets[i] == fake for i in t.out_edges(inject_at))


def test_random_topology_properties():
    for seed in range(6):
        t = random_topology(8, seed)
        assert t.nodes[0].role == "source"
        assert len(t.nodes) == 8
        order = t.topo_order()  # raises if cyclic
        assert len(order) == 8
        # every non-source node is reachable: it has at least one in-edge
        for i, node in enumerate(t.nodes):
            if node.role != "source":
                assert t.in_edges(node.name)
        assert len(t.out_edges(t.source)) >= 2
        # same seed reproduces the topology
        t2 = random_topology(8, seed)
        assert t2.edges == t.edges and [n.role for n in t2.nodes] == [
            n.role for n in t.nodes
        ]


def test_same_span_compares_echelon_bases():
    base = BaseField(3)
    rows = [(1, 0, 2), (0, 1, 1), (1, 1, 0)]
    span = spanned_vectors(base, rows, 3)
    assert len(span) == 3**2
    assert same_span(base, rows, [(1, 0, 2), (0, 1, 1)], 3)
    assert not same_span(base, rows, [(1, 0, 0), (0, 1, 0)], 3)
    # cross-check against full enumeration of both spans
    for other in ([(2, 2, 0), (1, 0, 2)], [(1, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], []):
        assert same_span(base, rows, other, 3) == (span == spanned_vectors(base, other, 3))
    assert same_span(base, [], [(0, 0, 0)], 3)


def test_sinks_eliminate_the_source_basis_once(monkeypatch):
    # every sink compares what it received with the one source basis: the
    # basis is eliminated for the first sink and read back for the others,
    # and no rows are eliminated twice
    base = BaseField(5)
    t = random_topology(14, 5)
    basis = ((1, 0, 2), (0, 1, 4))
    tx = transmit(t, base, basis, 11)
    sinks = [n.name for n in t.nodes if n.role == "sink"]
    assert len(sinks) == 4
    linalg._echelon.cache_clear()
    eliminated = []
    rref = linalg.Matrix.rref
    monkeypatch.setattr(
        linalg.Matrix, "rref", lambda self: eliminated.append(self.to_index_rows()) or rref(self)
    )
    for name in sinks:
        same_span(base, tx.packets_at(name), [list(b) for b in basis], 3)
    assert eliminated.count(basis) == 1
    assert len(eliminated) == len(set(eliminated)) > 1


def test_same_span_checks_its_rows():
    base = BaseField(5)
    for rows, error in (
        ([(1, 2), (3,)], DimensionMismatch),  # ragged
        ([(1, 2, 3)], DimensionMismatch),  # wider than width
        ([(7, 1)], InvalidParams),  # past GF(5)
        ([(1.0, 2)], FieldMismatch),  # not an index
    ):
        with pytest.raises(error):
            same_span(base, rows, [(1, 0)], 2)
        with pytest.raises(error):
            same_span(base, [(1, 0)], rows, 2)


def _scan_in_edges(t, name):
    return tuple(i for i, (_, b) in enumerate(t.edges) if b == name)


def _scan_out_edges(t, name):
    return tuple(i for i, (a, _) in enumerate(t.edges) if a == name)


def _scan_topo_order(t):
    """Kahn's algorithm over edge-list scans, FIFO, in declaration order."""
    indeg = {nd.name: len(_scan_in_edges(t, nd.name)) for nd in t.nodes}
    ready = [nd.name for nd in t.nodes if indeg[nd.name] == 0]
    order = []
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        for i in _scan_out_edges(t, cur):
            b = t.edges[i][1]
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return tuple(order)


def _indexed_topologies():
    yield butterfly()
    yield parse_topology(format_topology(butterfly()))
    for num_nodes, seed in [(3, 0), (8, 1), (25, 2), (60, 3), (110, 4), (200, 5)]:
        t = random_topology(num_nodes, seed, extra_edge_prob=0.05)
        yield t
        yield parse_topology(format_topology(t))


def test_indexed_adjacency_matches_edge_scans():
    for t in _indexed_topologies():
        for nd in t.nodes:
            assert t.in_edges(nd.name) == _scan_in_edges(t, nd.name)
            assert t.out_edges(nd.name) == _scan_out_edges(t, nd.name)
        assert t.in_edges("no-such-node") == t.out_edges("no-such-node") == ()
        assert t.topo_order() == _scan_topo_order(t)
        assert len(t.topo_order()) == len(t.nodes)


def test_topology_is_frozen():
    t = butterfly()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.edges = t.edges[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.nodes = ()
    assert len(t.edges) == 9 and t.out_edges("s") == (0, 1)


def test_kernels_come_from_one_stream_per_transmission(monkeypatch):
    t = random_topology(110, seed=6, extra_edge_prob=0.034)
    coding = [nd.name for nd in t.nodes if t.out_edges(nd.name)]
    assert len(coding) > 50
    labels = []
    stream = rng.stream

    def counting(seed, label):
        labels.append(label)
        return stream(seed, label)

    monkeypatch.setattr(rng, "stream", counting)
    kernels = _resolve_kernels(t, BaseField(5), 2, seed=11)
    assert labels == ["network/kernels"]
    assert sorted(kernels) == sorted(coding)


def _internal_with_in_edges(t):
    return [
        nd.name
        for nd in t.nodes
        if nd.role != "source" and t.in_edges(nd.name) and t.out_edges(nd.name)
    ]


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("seed", range(6))
def test_a_given_kernel_shifts_no_other_nodes_draws(n, seed):
    base = BaseField(5)
    t = random_topology(14, seed)
    drawn = _resolve_kernels(t, base, n, seed=seed + 100)
    r = random.Random(seed)
    for name in (r.choice(_internal_with_in_edges(t)), t.source):
        rows = n if name == t.source else len(t.in_edges(name))
        width = len(t.out_edges(name))
        given = tuple(tuple(r.randrange(5) for _ in range(width)) for _ in range(rows))
        t2 = Topology(t.nodes, t.edges, {name: given})
        kernels = _resolve_kernels(t2, base, n, seed=seed + 100)
        assert kernels == {**drawn, name: given}


def test_resolved_kernels_frozen():
    # pins the order of the draws: nodes in declaration order, relays row by
    # row, the source's drawn columns one after another
    t = random_topology(25, seed=7, extra_edge_prob=0.1)
    kernels = _resolve_kernels(t, BaseField(5), 2, seed=2013)
    assert len(t.out_edges(t.source)) > 2
    text = repr(sorted(kernels.items()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "e185537f78793ba76d607bd044c33608bbcc3b8c5e289423b7ab74cc5ea46bfa"


ORPHAN = """
node s source
node x internal
node a verifier
node t sink
edge s a
edge s t
edge x a
edge a t
"""


@pytest.mark.parametrize("inject_at", (None, "a", "s"))
def test_node_without_in_edges_sends_zeros(inject_at):
    # x has an out-edge but no in-edge: an empty kernel, so it sends zeros
    t = parse_topology(ORPHAN)
    base = BaseField(5)
    packets = [(1, 2, 3), (4, 0, 1)]
    fake = (1, 1, 1) if inject_at else None
    tx = transmit(t, base, packets, seed=3, inject_at=inject_at, fake=fake)
    (x_out,) = t.out_edges("x")
    assert tx.kernels["x"] == ()
    assert tx.edge_packets[x_out] == (0, 0, 0)
    assert tx.global_vectors[x_out] == (0, 0)
    assert tx.packets_at("a")[1] == (0, 0, 0)
