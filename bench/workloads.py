"""The benchmark's three workloads, each closed loop with one client.

A workload object is built from the workload seed (its set-up), runs one
op per index with ``op(i)`` and checks that op's output with
``check(i, out)``, which returns ``(ok, summary)``.  Op inputs depend
only on the seed and the index, so a rerun of index i repeats the same
work and the same summary.  Every library call goes through its module
attribute (``scheme.verify``, not an imported name), so a traced pass
sees it.

* relay: the network operator's path on the paper's flagship parameters.
* coalition: the analyst's attack sweep on a field too large for tables.
* access: the ``subtag analyze`` path on elliptic-curve residue codes.
"""

from __future__ import annotations

from collections import Counter

from subtag import adversary, cli, ec, network, params, scheme, schemas
from subtag.codes import CoalitionSpec, rs_code
from subtag.errors import NotQualified
from subtag.fields import BaseField, ExtField
from subtag.linalg import Matrix
from subtag.rng import derive_seed, stream


def payload_outside(pp: scheme.PublicParams, rows) -> tuple[int, ...]:
    """First payload, by extension index, outside the span of rows."""
    rows = [list(r) for r in rows]
    rank0 = Matrix.from_indices(pp.base, rows, ncols=pp.l).rank()
    for idx in range(pp.ext.order):
        cand = list(pp.ext.coords_of(idx))
        if Matrix.from_indices(pp.base, rows + [cand], ncols=pp.l).rank() > rank0:
            return tuple(cand)
    raise ValueError("the rows already span the whole payload space")


def in_row_space(base: BaseField, span, v) -> bool:
    """Does v reduce to zero against rref rows with the given pivots?"""
    rows, pivots = span
    v = list(v)
    for row, col in zip(rows, pivots):
        f = v[col]
        if f:
            v = [base.sub_idx(a, base.mul_idx(f, b)) for a, b in zip(v, row)]
    return not any(v)


class Relay:
    """One generation per op through a fixed sparse random DAG.

    q=5, l=3, n=M=2 and an RS code over F_125 with one key column per
    verifier node.  An op draws a payload basis, tags it, transmits it,
    verifies every packet at every verifier and decodes at every sink.
    Every fourth generation a seeded internal node sends a seeded fake.
    """

    name = "relay"
    traced_ops = 8
    inject_every = 4
    # nodes, accepted edge counts, accepted verifier counts.  Rejection
    # sampling keeps op and set-up cost nearly the same on every seed.
    sizes = {False: (110, (296, 304), (86, 86)), True: (14, (1, 200), (1, 125))}
    edge_prob = 0.034

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.base, self.ext = self.build_fields()
        self.topo = self._topology(*self.sizes[small])
        self.verifiers = self.topo.verifier_nodes()
        self.sinks = self.topo.sink_nodes()
        code = rs_code(self.ext, range(len(self.verifiers)), 3)
        self.pp = scheme.PublicParams(base=self.base, ext=self.ext, n=2, M=2, code=code)
        self.mk = scheme.keygen(self.pp, derive_seed(seed, "relay/key"))
        self.vks = scheme.distribute(self.pp, self.mk)
        self.counter = scheme.OpCounter()
        self.tally: Counter[str] = Counter()

    @staticmethod
    def build_fields() -> tuple[BaseField, ExtField]:
        base = BaseField(5)
        return base, ExtField(base, 3)

    @property
    def probe_field(self) -> ExtField:
        return self.ext

    def _topology(self, nodes, edges, verifiers) -> network.Topology:
        for attempt in range(10_000):
            topo = network.random_topology(
                nodes,
                derive_seed(self.seed, f"relay/topology/{attempt}"),
                extra_edge_prob=self.edge_prob,
            )
            if (
                edges[0] <= len(topo.edges) <= edges[1]
                and verifiers[0] <= len(topo.verifier_nodes()) <= verifiers[1]
            ):
                return topo
        raise ValueError("no topology of the wanted size")

    def inputs(self) -> dict:
        return {
            "q": self.base.order,
            "ext_order": self.ext.order,
            "n": self.pp.n,
            "M": self.pp.M,
            "kdim": self.pp.kdim,
            "V": self.pp.V,
            "nodes": len(self.topo.nodes),
            "edges": len(self.topo.edges),
            "sinks": len(self.sinks),
            "inject_every": self.inject_every,
        }

    def op(self, i: int):
        pp = self.pp
        basis = scheme.random_payload_basis(pp, derive_seed(self.seed, f"relay/source/{i}"))
        packets = scheme.tag_basis(pp, self.mk, basis, self.counter)
        wire = [p.symbols() for p in packets]
        inject_at = fake = None
        if i % self.inject_every == self.inject_every - 1:
            r = stream(self.seed, f"relay/inject/{i}")
            inject_at = r.choice(self.verifiers)
            fake = tuple(r.randrange(pp.base.order) for _ in range(pp.packet_symbols))
        tx = network.transmit(
            self.topo,
            pp.base,
            wire,
            derive_seed(self.seed, f"relay/generation/{i}"),
            inject_at=inject_at,
            fake=fake,
        )
        accepts = tuple(
            tuple(
                scheme.verify(pp, vk, scheme.TaggedPacket.from_symbols(pp, syms), self.counter)
                for syms in tx.packets_at(name)
            )
            for name, vk in zip(self.verifiers, self.vks)
        )
        sent = [list(b) for b in basis]
        recovered = tuple(
            network.same_span(
                pp.base, [list(s[1 : 1 + pp.l]) for s in tx.packets_at(name)], sent, pp.l
            )
            for name in self.sinks
        )
        return wire, tx, accepts, recovered

    def check(self, i: int, out):
        wire, tx, accepts, recovered = out
        pp = self.pp
        honest = tx.injected_at is None
        reduced, rank, pivots = Matrix.from_indices(pp.base, wire, ncols=pp.packet_symbols).rref()
        span = (reduced.to_index_rows()[:rank], pivots)
        ok = True
        for name, verdicts in zip(self.verifiers, accepts):
            for syms, accepted in zip(tx.packets_at(name), verdicts):
                if in_row_space(pp.base, span, syms):
                    ok = ok and accepted
                else:
                    # Only a polluted generation may carry out-of-span
                    # packets.  A random fake passes one verifier with
                    # probability 1/q^l, so rejection is counted, not required.
                    ok = ok and not honest
                    self.tally["relay.out_of_span"] += 1
                    self.tally["relay.out_of_span_rejected"] += not accepted
        if honest:
            for name, got in zip(self.sinks, recovered):
                if tx.kernel_rank_at(name) == pp.n:
                    ok = ok and got
        return ok, (tx.injected_at, accepts, recovered)


class Coalition:
    """One attack sweep per op against a fixed target verifier.

    q=2^8, l=3, n=M=2 and RS[8,3] over the 2^24-element extension, whose
    arithmetic runs on polynomials.  Each op draws a fresh key and basis,
    and for coalitions of size 0..kdim+1 builds the view, counts the
    consistent keys, then forges deterministically when qualified and
    guesses otherwise.
    """

    name = "coalition"
    traced_ops = 4
    guesses = 32
    length, kdim = 8, 3

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.base, self.ext = self.build_fields()
        code = rs_code(self.ext, range(self.length), self.kdim)
        self.pp = scheme.PublicParams(base=self.base, ext=self.ext, n=2, M=2, code=code)
        r = stream(seed, "coalition/plan")
        self.target = r.randrange(1, self.length + 1)
        others = [j for j in range(1, self.length + 1) if j != self.target]
        self.coalitions = tuple(
            tuple(sorted(r.sample(others, size))) for size in range(self.kdim + 2)
        )
        self.counter = scheme.OpCounter()
        self.tally: Counter[str] = Counter()

    @staticmethod
    def build_fields() -> tuple[BaseField, ExtField]:
        base = BaseField(2, 8)
        return base, ExtField(base, 3)

    @property
    def probe_field(self) -> ExtField:
        return self.ext

    def inputs(self) -> dict:
        return {
            "q": self.base.order,
            "ext_order": self.ext.order,
            "n": self.pp.n,
            "M": self.pp.M,
            "V": self.pp.V,
            "kdim": self.pp.kdim,
            "target": self.target,
            "coalitions": [list(c) for c in self.coalitions],
            "guesses": self.guesses,
        }

    def op(self, i: int):
        pp = self.pp
        mk = scheme.keygen(pp, derive_seed(self.seed, f"coalition/key/{i}"))
        vks = scheme.distribute(pp, mk, self.counter)
        basis = scheme.random_payload_basis(pp, derive_seed(self.seed, f"coalition/source/{i}"))
        packets = scheme.tag_basis(pp, mk, basis, self.counter)
        payload = payload_outside(pp, basis)
        target_vk = vks[self.target - 1]
        rows = []
        for members in self.coalitions:
            view = adversary.CoalitionView.build(pp, {j: vks[j - 1] for j in members}, packets)
            count = adversary.count_consistent_keys(adversary.assemble_system(view))
            forgeable = pp.code.forgeable(CoalitionSpec(frozenset(members), self.target))[0]
            try:
                forged = [adversary.deterministic_forge(view, self.target, payload)]
                qualified = True
            except NotQualified:
                qualified = False
                forged = [
                    adversary.guess_forge(
                        view, self.target, payload, derive_seed(self.seed, f"coalition/guess/{i}/{k}")
                    )
                    for k in range(self.guesses)
                ]
            accepts = tuple(scheme.verify(pp, target_vk, pkt, self.counter) for pkt in forged)
            rows.append((members, count.predicted, count.measured, forgeable, qualified, accepts))
        return tuple(rows)

    def check(self, i: int, out):
        ok = True
        for members, predicted, measured, forgeable, qualified, accepts in out:
            ok = ok and predicted == measured
            # RS codes are MDS: any kdim columns span the whole column space.
            ok = ok and forgeable == qualified == (len(members) >= self.kdim)
            if qualified:
                ok = ok and all(accepts)
            else:
                self.tally["adversary.guess.accepted"] += sum(accepts)
        return ok, out


class Access:
    """One ``subtag analyze`` report per op, over a fixed cycle of codes.

    Residue codes of y^2 = x^3 + x + 1 on the first affine points, against
    verifier 1.  The dual of a degree-d code has order^d words, so the
    cycle has codes on both sides of the 4096-word limit up to which
    ``LinearCode.forgeable`` cross-checks its span test.  The cost of a
    report depends on the support and the target, so both are fixed and
    the seed only rotates the cycle; a seeded support would make the
    spread across seeds a spread of inputs, not of the program.
    """

    name = "access"
    # (extension degree over GF(5), support size, degree)
    codes = ((1, 8, 2), (1, 8, 3), (2, 6, 3))
    target = 1
    traced_ops = len(codes)

    def __init__(self, seed: int, small: bool = False):
        base, exts = self.build_fields()
        self.exts = exts
        self.docs = []
        for l, size, degree in self.codes:
            ext = exts[l]
            curve = ec.EllipticCurve(ext, ext.one, ext.one)
            affine = [p for p in ec.ec_points(curve) if not p.is_infinity]
            spec = ec.AGCodeSpec(curve, tuple(affine[:size]), degree)
            pp = scheme.PublicParams(base=base, ext=ext, n=l, M=l, code=ec.residue_code(spec))
            self.docs.append(params.params_to_dict(pp, spec))
        self.offset = stream(seed, "access/plan").randrange(len(self.codes))
        self.counter = scheme.OpCounter()
        self.tally: Counter[str] = Counter()

    @staticmethod
    def build_fields() -> tuple[BaseField, dict[int, ExtField]]:
        base = BaseField(5)
        return base, {l: ExtField(base, l) for l in (1, 2)}

    @property
    def probe_field(self) -> ExtField:
        return self.exts[2]

    def inputs(self) -> dict:
        return {
            "codes": [
                {"ext_order": 5**l, "support": size, "degree": degree, "dual_words": 5 ** (l * degree)}
                for l, size, degree in self.codes
            ],
            "target": self.target,
            "offset": self.offset,
        }

    def op(self, i: int):
        doc = self.docs[(i + self.offset) % len(self.docs)]
        pp, spec = params.params_from_dict(doc)
        report = cli.build_analyze_report(pp, spec, self.target)
        schemas.validate_report("analyze", report)
        return report, params.dump_json(report)

    def check(self, i: int, out):
        report, text = out
        rows = report["ec_table"]
        ok = bool(rows) and all(row["span_agrees"] for row in rows)
        return ok, text


WORKLOADS = {cls.name: cls for cls in (Relay, Coalition, Access)}
