"""Single-source network coding over a directed acyclic topology.

Nodes forward F_q-linear combinations of their incoming packets; the
combination coefficients live in per-node local kernels (|In| x |Out|
matrices, row per incoming edge in declaration order).  The source's
kernel has one row per message packet, and by convention its first n
out-edges carry the unit combinations e_1..e_n.  Each edge's global
vector f_e rides in front of its packet, as in practical network coding:
source packet j goes out behind e_j, so one mixing pass yields both, and
on honest runs transmit() checks the defining property that the packet
on e equals f_e applied to the stacked source packets (InvariantViolated
otherwise).  A node mixes all of its out-edges in one ``Field._mix``
call, and the check mixes every edge's prediction in one more, so each
in-packet is packed into its byte-lane int once per node.  A sink
decodes the span of the payloads it received to its canonical basis, the
``linalg._echelon`` basis, which is kept by value: the source basis that
``same_span`` compares every sink with is eliminated once.

A Topology is immutable.  Its per-node in- and out-edge indices and its
topological order are built once, in one pass over the edges, when it is
constructed; transmit() and every per-node query read those indices
instead of scanning the edge list.  It keeps its own read-only copy of
the kernels it is given, so later edits to the caller's dict reach
neither the topology nor a transmission.

Topology files are plain text: ``node <name> <role>``, ``edge <from>
<to>``, ``kernel <node> <row-major entries>``, with blank lines and #
comments ignored.  Any kernel not given in the file is drawn uniformly
from the run's network stream, so a file fully determines a run only
together with a seed.

Each transmission seeds one stream, ``network/kernels``, and every coding
node draws from it in declaration order as many entries as its kernel's
shape asks for.  A kernel the topology gives still consumes its draws, so
it never shifts what another node draws.  A node with out-edges but no
in-edges has the empty kernel and sends zero vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    CyclicGraph,
    DimensionMismatch,
    InvalidParams,
    InvariantViolated,
    LengthMismatch,
    UnknownNode,
)
from .fields import BaseField
from .linalg import Matrix, _echelon, _rank
from . import rng as _rng

__all__ = [
    "Node",
    "Topology",
    "Transmission",
    "parse_topology",
    "butterfly",
    "random_topology",
    "transmit",
    "same_span",
]

ROLES = ("source", "internal", "verifier", "sink")


@dataclass(frozen=True)
class Node:
    name: str
    role: str


@dataclass(frozen=True)
class Topology:
    """Nodes, directed edges, and optional per-node kernels.

    The structure helpers are lookups into indices built once in
    ``__post_init__``.  ``kernels`` becomes a read-only mapping of int
    rows, copied from the mapping passed in; no entry is coerced.
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    kernels: Mapping[str, tuple[tuple[int, ...], ...]] = dc_field(default_factory=dict)
    _source: str = dc_field(init=False, repr=False, compare=False)
    _in: dict[str, tuple[int, ...]] = dc_field(init=False, repr=False, compare=False)
    _out: dict[str, tuple[int, ...]] = dc_field(init=False, repr=False, compare=False)
    _order: tuple[str, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = tuple((a, b) for a, b in self.edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        names = [nd.name for nd in nodes]
        if len(set(names)) != len(names):
            raise InvalidParams("node names must be unique")
        for nd in nodes:
            if nd.role not in ROLES:
                raise InvalidParams(f"unknown role {nd.role!r} for node {nd.name}")
        sources = [nd.name for nd in nodes if nd.role == "source"]
        if len(sources) != 1:
            raise InvalidParams(f"need exactly one source, found {len(sources)}")
        ins: dict[str, list[int]] = {name: [] for name in names}
        outs: dict[str, list[int]] = {name: [] for name in names}
        for i, (a, b) in enumerate(edges):
            if a not in ins or b not in ins:
                raise UnknownNode(f"edge {a}->{b} references an unknown node")
            if a == b:
                raise CyclicGraph(f"self-loop at {a}")
            if b == sources[0]:
                raise InvalidParams("the source cannot have incoming edges")
            outs[a].append(i)
            ins[b].append(i)
        object.__setattr__(self, "_source", sources[0])
        object.__setattr__(self, "_in", {k: tuple(v) for k, v in ins.items()})
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in outs.items()})
        object.__setattr__(self, "_order", self._kahn_order())
        kernels = {}
        for name, given in self.kernels.items():
            if name not in ins:
                raise UnknownNode(f"kernel for unknown node {name}")
            rows = kernels[name] = tuple(map(tuple, given))
            if any(type(v) is not int for r in rows for v in r):  # a bool neither
                raise InvalidParams(f"a kernel entry at {name} is not an int")
            out_deg = len(self._out[name])
            if any(len(r) != out_deg for r in rows):
                raise DimensionMismatch(
                    f"kernel at {name} must have {out_deg} columns"
                )
            if name != sources[0] and len(rows) != len(self._in[name]):
                raise DimensionMismatch(
                    f"kernel at {name} must have one row per incoming edge"
                )
        object.__setattr__(self, "kernels", MappingProxyType(kernels))

    def _kahn_order(self) -> tuple[str, ...]:
        indeg = {name: len(e) for name, e in self._in.items()}
        order = [nd.name for nd in self.nodes if indeg[nd.name] == 0]
        # order doubles as the FIFO queue: the loop reaches each name
        # appended behind it
        for cur in order:
            for i in self._out[cur]:
                b = self.edges[i][1]
                indeg[b] -= 1
                if indeg[b] == 0:
                    order.append(b)
        if len(order) != len(self.nodes):
            raise CyclicGraph("topology contains a directed cycle")
        return tuple(order)

    # -- structure helpers -------------------------------------------------

    @property
    def source(self) -> str:
        return self._source

    def node(self, name: str) -> Node:
        for nd in self.nodes:
            if nd.name == name:
                return nd
        raise UnknownNode(f"unknown node {name!r}")

    def in_edges(self, name: str) -> tuple[int, ...]:
        """Indices of the edges into ``name``, in declaration order."""
        return self._in.get(name, ())

    def out_edges(self, name: str) -> tuple[int, ...]:
        """Indices of the edges out of ``name``, in declaration order."""
        return self._out.get(name, ())

    def verifier_nodes(self) -> tuple[str, ...]:
        """Verifier names in declaration order; order fixes key indices."""
        return tuple(nd.name for nd in self.nodes if nd.role == "verifier")

    def sink_nodes(self) -> tuple[str, ...]:
        return tuple(nd.name for nd in self.nodes if nd.role == "sink")

    def topo_order(self) -> tuple[str, ...]:
        """Kahn order: sources of the DAG first, ties in declaration order."""
        return self._order


def parse_topology(text: str) -> Topology:
    nodes: list[Node] = []
    edges: list[tuple[str, str]] = []
    raw_kernels: list[tuple[str, list[int]]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node" and len(parts) == 3:
            nodes.append(Node(parts[1], parts[2]))
        elif kind == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        elif kind == "kernel" and len(parts) >= 3:
            try:
                flat = [int(v) for v in parts[2:]]
            except ValueError:
                raise InvalidParams(
                    f"non-integer kernel entry on topology line {lineno}: {line!r}"
                ) from None
            raw_kernels.append((parts[1], flat))
        else:
            raise InvalidParams(f"cannot parse topology line {lineno}: {line!r}")
    names = {nd.name for nd in nodes}
    out_degree = Counter(a for a, _ in edges)
    kernels = {}
    for name, flat in raw_kernels:
        if name not in names:
            raise UnknownNode(f"unknown node {name!r}")
        out_deg = out_degree[name]
        if out_deg == 0 or len(flat) % out_deg:
            raise DimensionMismatch(
                f"kernel at {name}: {len(flat)} entries do not tile {out_deg} columns"
            )
        kernels[name] = tuple(
            tuple(flat[k : k + out_deg]) for k in range(0, len(flat), out_deg)
        )
    return Topology(tuple(nodes), tuple(edges), kernels)


def butterfly() -> Topology:
    """The classic two-sink butterfly with all-ones forwarding kernels."""
    nodes = (
        Node("s", "source"),
        Node("a", "verifier"),
        Node("b", "verifier"),
        Node("c", "verifier"),
        Node("d", "verifier"),
        Node("t1", "sink"),
        Node("t2", "sink"),
    )
    edges = (
        ("s", "a"),
        ("s", "b"),
        ("a", "t1"),
        ("a", "c"),
        ("b", "c"),
        ("b", "t2"),
        ("c", "d"),
        ("d", "t1"),
        ("d", "t2"),
    )
    kernels = {
        "a": ((1, 1),),
        "b": ((1, 1),),
        "c": ((1,), (1,)),
        "d": ((1, 1),),
    }
    return Topology(nodes, edges, kernels)


def random_topology(
    num_nodes: int, seed: int, extra_edge_prob: float = 0.3
) -> Topology:
    """A random connected DAG on n0..n{k-1}; n0 is the source.

    Every later node picks at least one earlier parent, extra forward
    edges appear independently, and the source gets random extra
    out-edges until it has at least two.  Nodes without outgoing edges
    become sinks and the rest verifiers.
    """
    if num_nodes < 3:
        raise InvalidParams("need at least source, one relay, one sink")
    r = _rng.stream(seed, "topology")
    names = [f"n{i}" for i in range(num_nodes)]
    edges: list[tuple[str, str]] = []
    for j in range(1, num_nodes):
        parent = names[r.randrange(j)]
        edges.append((parent, names[j]))
        for i in range(j):
            if names[i] != parent and r.random() < extra_edge_prob:
                edges.append((names[i], names[j]))
    out_count = {nm: 0 for nm in names}
    for a, _ in edges:
        out_count[a] += 1
    while out_count[names[0]] < 2:
        j = r.randrange(1, num_nodes)
        edges.append((names[0], names[j]))
        out_count[names[0]] += 1
    nodes = [Node(names[0], "source")]
    for nm in names[1:]:
        nodes.append(Node(nm, "sink" if out_count[nm] == 0 else "verifier"))
    return Topology(tuple(nodes), tuple(edges))


@dataclass(frozen=True)
class Transmission:
    """Everything observable after one run through the network."""

    topology: Topology
    base: BaseField
    n: int
    kernels: Mapping[str, tuple[tuple[int, ...], ...]]
    global_vectors: tuple[tuple[int, ...], ...]  # nominal f_e per edge
    edge_packets: tuple[tuple[int, ...], ...]
    injected_at: Optional[str] = None

    def packets_at(self, name: str) -> tuple[tuple[int, ...], ...]:
        return tuple(self.edge_packets[i] for i in self.topology.in_edges(name))

    def kernel_rank_at(self, name: str) -> int:
        rows = tuple(self.global_vectors[i] for i in self.topology.in_edges(name))
        return _rank(self.base, rows, self.n)


def _resolve_kernels(
    t: Topology, base: BaseField, n: int, seed: int
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Every coding node's local kernel, given or drawn.

    One stream, ``network/kernels``, serves the whole transmission.  Nodes
    draw from it in declaration order, each as many uniform entries as its
    shape asks for: in_deg x out_deg, row by row, for a relay; for the
    source, n entries per out-edge past the first n, column by column.  A
    node whose kernel the topology gives draws its entries all the same and
    then uses the given kernel, so giving one kernel never shifts another
    node's draws.
    """
    order = base.order
    draw = _rng.stream(seed, "network/kernels").randrange
    out: dict[str, tuple[tuple[int, ...], ...]] = {}
    for nd in t.nodes:
        out_deg = len(t.out_edges(nd.name))
        if out_deg == 0:
            continue
        source = nd.role == "source"
        nrows = n if source else len(t.in_edges(nd.name))
        # the source draws only the columns past its n unit columns
        ncols = max(out_deg - n, 0) if source else out_deg
        flat = list(map(draw, repeat(order, nrows * ncols)))
        given = t.kernels.get(nd.name)
        if given is not None:
            if len(given) != nrows:
                raise DimensionMismatch(
                    f"kernel at {nd.name} needs {nrows} rows, has {len(given)}"
                )
            for row in given:
                for v in row:
                    if not 0 <= v < order:
                        raise InvalidParams(
                            f"kernel entry {v} at {nd.name} outside 0..{order - 1}"
                        )
            out[nd.name] = given
        elif not source:
            out[nd.name] = tuple(
                tuple(flat[k : k + out_deg]) for k in range(0, len(flat), out_deg)
            )
        elif out_deg < n:
            raise InvalidParams(f"source out-degree {out_deg} below message count {n}")
        else:
            # convention: first n out-edges carry the unit combinations; the
            # drawn columns follow, n entries each
            cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
            cols += [flat[k : k + n] for k in range(0, len(flat), n)]
            out[nd.name] = tuple(zip(*cols))
    return out


def _propagate(
    t: Topology, base: BaseField, kernels: Mapping[str, tuple[tuple[int, ...], ...]],
    sent: Sequence[tuple[int, ...]], width: int,
    inject_at: Optional[str] = None, fake: Optional[tuple[int, ...]] = None,
) -> tuple[tuple[int, ...], ...]:
    """The ``width``-symbol vector on every edge when the source sends ``sent``
    and every node mixes by its kernel; ``inject_at`` then replaces the last
    len(fake) symbols of each vector it sends by ``fake``."""
    y: list[Optional[tuple[int, ...]]] = [None] * len(t.edges)
    for name in t.topo_order():
        outs = t.out_edges(name)
        if not outs:
            continue
        kern = kernels[name]
        ins = sent if name == t.source else [y[i] for i in t.in_edges(name)]
        # one row per out-edge; a node with no in-edges has the empty kernel
        # () and sends zeros
        cols = zip(*kern) if kern else ((),) * len(outs)
        vecs = base._mix(cols, ins, width)
        if name == inject_at:
            vecs = [vec[: width - len(fake)] + fake for vec in vecs]
        for edge_idx, vec in zip(outs, vecs):
            y[edge_idx] = vec
    return tuple(y)


def transmit(
    t: Topology,
    base: BaseField,
    packets: Sequence[Sequence[int]],
    seed: int,
    inject_at: Optional[str] = None,
    fake: Optional[Sequence[int]] = None,
) -> Transmission:
    """Push n source packets, each behind its unit vector, through the
    network in one mixing pass.

    With ``inject_at`` set, that node sends ``fake`` on all of its
    out-edges instead of its packets, behind the global vectors an honest
    node would send; downstream packets then mix the fake as usual, and
    every edge keeps its nominal global vector.
    """
    n = len(packets)
    if n == 0:
        raise InvalidParams("nothing to transmit")
    width = len(packets[0])
    pkts = []
    for p in packets:
        if len(p) != width:
            raise LengthMismatch("packets must share one width")
        pkts.append(base._symbols(p))
    if inject_at is not None:
        t.node(inject_at)  # raises UnknownNode
        if fake is None or len(fake) != width:
            raise LengthMismatch("injected packet must match the packet width")
        fake = base._symbols(fake)

    kernels = _resolve_kernels(t, base, n, seed)
    sent = [(0,) * j + (1,) + (0,) * (n - 1 - j) + p for j, p in enumerate(pkts)]
    mixed = _propagate(t, base, kernels, sent, n + width, inject_at, fake)
    f = tuple(v[:n] for v in mixed)
    y = tuple(v[n:] for v in mixed)

    if inject_at is None:
        # defining property of the global vectors, checked edge by edge on
        # honest runs; one call mixes every edge's prediction
        predicted = base._mix(f, pkts, width)
        for edge_idx, (want, got) in enumerate(zip(predicted, y)):
            if want != got:
                raise InvariantViolated(
                    f"edge {edge_idx} carries a packet its global vector does not predict"
                )

    return Transmission(
        topology=t,
        base=base,
        n=n,
        kernels=kernels,
        global_vectors=f,
        edge_packets=y,
        injected_at=inject_at,
    )


def same_span(
    base: BaseField,
    rows_a: Sequence[Sequence[int]],
    rows_b: Sequence[Sequence[int]],
    width: int,
) -> bool:
    """Do the rows span one subspace, that is, have one ``_echelon`` basis?
    Each row is checked as ``Matrix.from_indices`` checks it."""
    a, b = (Matrix.from_indices(base, r, ncols=width).to_index_rows() for r in (rows_a, rows_b))
    return _echelon(base, a, width) == _echelon(base, b, width)
