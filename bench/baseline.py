"""A fixed probe pass over every layer, the same for every workload.

It re-measures the rows of the ROADMAP baseline table on fixed inputs:
F_125 and GF(2^8) construction, one ``verify`` on rs_pp (F_125, M=2,
kdim=3), ``transmit`` per edge on a 100-node, 328-edge DAG,
``LinearCode.forgeable`` on RS[8,6] over F_25 and ``count_consistent_keys``
on a two-member view of rs_pp.  It also runs a deterministic forgery, a
few guesses and one small ``analyze`` report, so that a traced pass of
any workload touches every layer.  Every outcome is checked.

The object follows the workload interface (``op``/``check``), so the
runner times, traces and checks it the same way.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from subtag import adversary, cli, ec, network, params, scheme, schemas
from subtag.codes import CoalitionSpec, rs_code
from subtag.fields import BaseField, ExtField
from subtag.rng import stream
from workloads import payload_outside

SEED = 1303
MIXES = 48
GUESSES = 8
ROWS = {
    "baseline.f125_build_ms": "ms",
    "baseline.gf256_build_ms": "ms",
    "baseline.verify_us": "us",
    "baseline.transmit_us_per_edge": "us",
    "baseline.forgeable_ms": "ms",
    "baseline.count_keys_ms": "ms",
}


def _median_ms(fn, repeats):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, result


class Baseline:
    name = "baseline"

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.topo = network.random_topology(100, SEED, extra_edge_prob=0.05)
        base = BaseField(5)
        ext = ExtField(base, 1)
        curve = ec.EllipticCurve(ext, ext.one, ext.one)
        affine = [p for p in ec.ec_points(curve) if not p.is_infinity]
        spec = ec.AGCodeSpec(curve, tuple(affine[:6]), 2)
        pp = scheme.PublicParams(base=base, ext=ext, n=1, M=1, code=ec.residue_code(spec))
        self.ec_doc = params.params_to_dict(pp, spec)
        self.counter = scheme.OpCounter()
        self.tally: Counter[str] = Counter()

    def op(self, i: int):
        rows, outcomes = {}, {}
        base = BaseField(5)
        rows["baseline.f125_build_ms"], ext = _median_ms(lambda: ExtField(base, 3), self.repeats)
        rows["baseline.gf256_build_ms"], _ = _median_ms(lambda: BaseField(2, 8), self.repeats)

        pp = scheme.PublicParams(base=base, ext=ext, n=2, M=2, code=rs_code(ext, range(6), 3))
        mk = scheme.keygen(pp, SEED)
        vks = scheme.distribute(pp, mk, self.counter)
        basis = scheme.random_payload_basis(pp, SEED)
        packets = scheme.tag_basis(pp, mk, basis, self.counter)
        r = stream(SEED, "baseline/mix")
        mixes = [
            scheme.combine_packets(pp, packets, [r.randrange(1, base.order) for _ in packets])
            for _ in range(MIXES)
        ]

        def verify_all():
            return all(scheme.verify(pp, vk, p, self.counter) for vk in vks for p in mixes)

        ms, outcomes["honest_accepted"] = _median_ms(verify_all, self.repeats)
        rows["baseline.verify_us"] = ms * 1e3 / (len(vks) * MIXES)

        wire = [p.symbols() for p in packets]
        ms, tx = _median_ms(lambda: network.transmit(self.topo, base, wire, SEED), self.repeats)
        rows["baseline.transmit_us_per_edge"] = ms * 1e3 / len(self.topo.edges)
        outcomes["sinks"] = tuple(
            network.same_span(base, [s[1:4] for s in tx.packets_at(name)], basis, 3)
            or tx.kernel_rank_at(name) < 2
            for name in self.topo.sink_nodes()
        )

        rs86 = rs_code(ExtField(base, 2), range(8), 6)
        specs = [
            CoalitionSpec(frozenset([j for j in range(1, 9) if j != t][:size]), t)
            for t in range(1, 9)
            for size in (5, 6)
        ]
        ms, outcomes["forgeable"] = _median_ms(
            lambda: tuple(rs86.forgeable(s)[0] for s in specs), self.repeats
        )
        rows["baseline.forgeable_ms"] = ms / len(specs)
        outcomes["forgeable_expected"] = tuple(len(s.members) >= 6 for s in specs)

        pair = adversary.CoalitionView.build(pp, {1: vks[0], 2: vks[1]}, packets)
        system = adversary.assemble_system(pair)
        rows["baseline.count_keys_ms"], count = _median_ms(
            lambda: adversary.count_consistent_keys(system), self.repeats
        )
        outcomes["key_count"] = (count.predicted, count.measured)

        payload = payload_outside(pp, basis)
        trio = adversary.CoalitionView.build(pp, {j: vks[j - 1] for j in (1, 2, 3)}, packets)
        forged = adversary.deterministic_forge(trio, 4, payload)
        outcomes["forged_accepted"] = scheme.verify(pp, vks[3], forged, self.counter)
        guesses = [adversary.guess_forge(pair, 3, payload, SEED + k) for k in range(GUESSES)]
        accepted = sum(scheme.verify(pp, vks[2], g, self.counter) for g in guesses)
        self.tally["adversary.guess.accepted"] += accepted

        ec_pp, ec_spec = params.params_from_dict(self.ec_doc)
        report = cli.build_analyze_report(ec_pp, ec_spec, 1)
        schemas.validate_report("analyze", report)
        params.dump_json(report)
        outcomes["span_agrees"] = all(row["span_agrees"] for row in report["ec_table"])
        return rows, outcomes

    def check(self, i: int, out):
        rows, o = out
        ok = (
            o["honest_accepted"]
            and all(o["sinks"])
            and o["forgeable"] == o["forgeable_expected"]
            and o["key_count"][0] == o["key_count"][1]
            and o["forged_accepted"]
            and o["span_agrees"]
        )
        return ok, tuple(sorted((k, v) for k, v in o.items()))
