"""Command-line driver: setup, simulate, attack, analyze, ec-code.

Every command reads and writes plain files and emits one JSON report
(stdout by default, ``--out`` to write a file).  Reports are validated
against the schemas in ``subtag.schemas`` before they leave the process,
and all randomness flows from ``--seed`` through labelled streams, so a
command line is reproducible byte for byte.  Set SUBTAG_LOG=debug for
progress chatter on stderr; a value that names no logging level, such as
1, falls back to INFO.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Optional, Sequence

from . import adversary, network, params as paramsio, scheme
from .codes import rs_code
from .ec import AGCodeSpec, EllipticCurve, classify_coalition, ec_points, residue_code
from .errors import InvalidParams, NotQualified, SubtagError
from .fields import MAX_BASE_ORDER, BaseField, ExtField, _prime_factors
from .linalg import _in_span, _walk
from .rng import derive_seed, stream
from .schemas import validate_report

log = logging.getLogger("subtag")


def _factor_prime_power(q: int) -> tuple[int, int]:
    # refuse before factoring: trial division runs up to sqrt(q)
    if q > MAX_BASE_ORDER:
        raise InvalidParams(f"base field order {q} exceeds {MAX_BASE_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise InvalidParams(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return p, m


def _build_fields(q: int, l: int) -> tuple[BaseField, ExtField]:
    p, m = _factor_prime_power(q)
    base = BaseField(p, m)
    return base, ExtField(base, l)


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v != ""]
    except ValueError:
        raise InvalidParams(f"expected comma-separated integers, got {text!r}") from None


def _emit(kind: str, report: dict, out: Optional[str]) -> None:
    validate_report(kind, report)
    text = paramsio.dump_json(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s report to %s", kind, out)
    else:
        sys.stdout.write(text)


def _load_topology(spec: str) -> network.Topology:
    if spec == "butterfly":
        return network.butterfly()
    with open(spec, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InvalidParams(f"{spec} is not UTF-8 text") from None
    return network.parse_topology(text)


def _payload_outside(view: adversary.CoalitionView) -> tuple[int, ...]:
    """First payload (by extension index order) outside the view's observed
    span: the first unit vector e_k outside it, since every index below q^k
    lies in the span of e_0 .. e_(k-1)."""
    pp = view.pp
    for k in range(pp.l):
        unit = pp.ext.coords_of(pp.base.order**k)
        if not view.spans(unit):
            return unit
    raise InvalidParams("the observed payloads already span the whole space")


# -- setup -------------------------------------------------------------------


def cmd_setup(args) -> None:
    base, ext = _build_fields(args.q, args.l)
    points = _csv_ints(args.points) if args.points else list(range(args.V))
    if len(points) != args.V:
        raise InvalidParams(f"need {args.V} evaluation points, got {len(points)}")
    code = rs_code(ext, points, args.kdim)
    pp = scheme.PublicParams(base=base, ext=ext, n=args.n, M=args.M, code=code)
    paramsio.write_params(args.out, pp)
    log.info("parameters written to %s", args.out)
    _emit(
        "setup",
        {
            "format": "subtag-report/setup/1",
            "path": args.out,
            "q": base.order,
            "l": pp.l,
            "n": pp.n,
            "M": pp.M,
            "V": pp.V,
            "kdim": pp.kdim,
            "packet_symbols": pp.packet_symbols,
        },
        args.report,
    )


# -- simulate ------------------------------------------------------------------


def build_simulate_report(
    pp: scheme.PublicParams,
    topo: network.Topology,
    seed: int,
    topology_name: str,
    inject_at: Optional[str] = None,
) -> dict:
    verifier_names = topo.verifier_nodes()
    if len(verifier_names) > pp.V:
        raise InvalidParams(
            f"{len(verifier_names)} verifier nodes but the code only keys {pp.V}"
        )
    mk = scheme.keygen(pp, seed)
    vks = scheme.distribute(pp, mk)
    basis = scheme.random_payload_basis(pp, seed)
    packets = scheme.tag_basis(pp, mk, basis)
    wire = [p.symbols() for p in packets]

    fake = None
    if inject_at is not None:
        adv = stream(seed, "adversary/inject")
        fake = tuple(adv.randrange(pp.base.order) for _ in range(pp.packet_symbols))
    tx = network.transmit(topo, pp.base, wire, seed, inject_at=inject_at, fake=fake)

    verifiers = []
    all_accepted = True
    for pos, name in enumerate(verifier_names):
        vk = vks[pos]
        accepts = []
        for syms in tx.packets_at(name):
            pkt = scheme.TaggedPacket.from_symbols(pp, syms)
            accepts.append(scheme.verify(pp, vk, pkt))
        all_accepted = all_accepted and all(accepts)
        verifiers.append(
            {
                "node": name,
                "index": pos + 1,
                "accepts": accepts,
                "kernel_rank": tx.kernel_rank_at(name),
            }
        )

    sinks = []
    for name in topo.sink_nodes():
        rank = tx.kernel_rank_at(name)
        payload_rows = [
            list(syms[1 : 1 + pp.l]) for syms in tx.packets_at(name)
        ]
        recovered = network.same_span(
            pp.base, payload_rows, [list(b) for b in basis], pp.l
        )
        sinks.append(
            {
                "node": name,
                "kernel_rank": rank,
                "full_rank": rank == pp.n,
                "recovered": recovered,
            }
        )

    return {
        "format": "subtag-report/simulate/1",
        "seed": seed,
        "topology": topology_name,
        "packet_symbols": pp.packet_symbols,
        "verifiers": verifiers,
        "sinks": sinks,
        "all_accepted": all_accepted,
        "injected_at": inject_at,
    }


def cmd_simulate(args) -> None:
    pp, _ = paramsio.read_params(args.params)
    topo = _load_topology(args.topology)
    report = build_simulate_report(
        pp, topo, args.seed, args.topology, inject_at=args.inject_at
    )
    _emit("simulate", report, args.out)


# -- attack --------------------------------------------------------------------


def build_attack_report(
    pp: scheme.PublicParams,
    curve_spec: Optional[AGCodeSpec],
    seed: int,
    coalition: Sequence[int],
    target: int,
    mode: str,
    trials: int,
    payload: Optional[Sequence[int]] = None,
) -> dict:
    if len(set(coalition)) != len(coalition):
        raise InvalidParams(f"coalition {list(coalition)} repeats a member")
    for i in (*coalition, target):
        if not 1 <= i <= pp.V:
            raise InvalidParams(f"verifier index {i} outside 1..{pp.V}")
    if mode == "guess" and trials < 1:
        raise InvalidParams(f"guessing needs at least one trial, got {trials}")
    mk = scheme.keygen(pp, seed)
    vks = scheme.distribute(pp, mk)
    basis = scheme.random_payload_basis(pp, seed)
    packets = scheme.tag_basis(pp, mk, basis)
    # traffic is public: even an empty coalition has seen the packets
    view = adversary.CoalitionView.build(
        pp,
        {i: vks[i - 1] for i in coalition},
        packets,
    )
    system = adversary.assemble_system(view)
    counts = adversary.count_consistent_keys(system)
    if payload is None:
        payload = _payload_outside(view)
    payload = tuple(int(v) for v in payload)

    report = {
        "format": "subtag-report/attack/1",
        "seed": seed,
        "mode": mode,
        "coalition": sorted(int(i) for i in coalition),
        "target": target,
        "r0": counts.r0,
        "k0": counts.k0,
        "predicted_keys": counts.predicted,
        "measured_keys": counts.measured,
        "payload": list(payload),
        "outcome": "",
    }

    if mode == "deterministic":
        try:
            pkt = adversary.deterministic_forge(view, target, payload)
        except NotQualified:
            report["outcome"] = "not_qualified"
            report["target_accepts"] = None
        else:
            report["outcome"] = "forged"
            report["target_accepts"] = scheme.verify(pp, vks[target - 1], pkt)
            report["others_accept"] = [
                {"index": j, "accepts": scheme.verify(pp, vks[j - 1], pkt)}
                for j in range(1, pp.V + 1)
                if j != target
            ]
    elif mode == "guess":
        accepted = 0
        for k in range(trials):
            pkt = adversary.guess_forge(
                view, target, payload, derive_seed(seed, f"guess-trial/{k}")
            )
            if scheme.verify(pp, vks[target - 1], pkt):
                accepted += 1
        report["outcome"] = "guessed"
        report["acceptance"] = {
            "trials": trials,
            "accepted": accepted,
            "rate": accepted / trials,
            "expected_rate": 1.0 / pp.ext.order,
        }
    elif mode == "histogram":
        hist = adversary.label_distribution(view, target, payload)
        counts_by_label = {str(e.index): c for e, c in sorted(
            ((e, c) for e, c in hist.items()), key=lambda item: item[0].index
        )}
        values = list(hist.values())
        block = {
            "labels": len(hist),
            "min_count": min(values),
            "max_count": max(values),
            "uniform": len(hist) == pp.ext.order and min(values) == max(values),
        }
        if len(hist) <= 64:
            block["counts"] = counts_by_label
        report["outcome"] = "analyzed"
        report["histogram"] = block
    else:
        raise InvalidParams(f"unknown attack mode {mode!r}")

    if curve_spec is not None:
        cls = classify_coalition(curve_spec, coalition, target)
        report["ec_classification"] = {
            "kind": cls.kind.value,
            "against_target": cls.against(target),
            "complement_sum": paramsio._point_to_json(cls.complement_sum),
        }
    return report


def cmd_attack(args) -> None:
    pp, curve_spec = paramsio.read_params(args.params)
    coalition = _csv_ints(args.coalition) if args.coalition else []
    payload = _csv_ints(args.payload) if args.payload else None
    report = build_attack_report(
        pp,
        curve_spec,
        args.seed,
        coalition,
        args.target,
        args.mode,
        args.trials,
        payload,
    )
    _emit("attack", report, args.out)


# -- analyze ---------------------------------------------------------------------


def build_analyze_report(
    pp: scheme.PublicParams, curve_spec: Optional[AGCodeSpec], target: int
) -> dict:
    code = pp.code
    dual = code.dual()
    dual_distance = dual.min_distance()
    mds = dual_distance == pp.kdim + 1  # C is MDS exactly when its dual is
    coords = pp.ext.coords_of
    minimal = [
        [list(coords(v)) for v in word] for word in dual.minimal_codewords_wrt(target)
    ]
    report = {
        "format": "subtag-report/analyze/1",
        "length": pp.V,
        "kdim": pp.kdim,
        "dual_distance": dual_distance,
        "mds": mds,
        "target": target,
        "minimal_dual_codewords": minimal,
        "access_structure": [list(s) for s in code.access_structure(target)],
    }
    if curve_spec is not None:
        # a coalition's class and column span do not depend on the target
        n, k = curve_spec.n, curve_spec.degree
        ext, columns, kdim = pp.ext, pp.code.columns, pp.kdim
        ranks = {}  # the rank of each walked subset of n-k-1 or n-k columns
        coalitions = []  # those subsets with their bases, in walk order

        def visit(members, basis, _):
            if len(members) >= n - k - 1:
                ranks[members] = len(basis[0])
                coalitions.append((members, basis))
            return True

        def spanned(members, basis, t):
            if len(members) < n - k:
                # column t lies in the span exactly when adding it, a subset
                # the walk also visited, leaves the rank unchanged
                return ranks[tuple(sorted(members + (t,)))] == ranks[members]
            return ranks[members] == kdim or _in_span(ext, basis, columns[t])

        _walk(ext, columns, n - k, visit)
        coalitions.sort(key=lambda c: len(c[0]))  # stable: combinations order per size
        rows = []
        for members, basis in coalitions:
            combo = tuple(j + 1 for j in members)
            outside = [t for t in range(1, n + 1) if t not in combo]
            cls = classify_coalition(curve_spec, combo, outside[0])
            for tgt in outside:
                against = cls.against(tgt)
                rows.append({
                    "coalition": list(combo),
                    "target": tgt,
                    "kind": cls.kind.value,
                    "against_target": against,
                    "span_agrees": against == spanned(members, basis, tgt - 1),
                })
        report["ec_table"] = rows
    return report


def cmd_analyze(args) -> None:
    pp, curve_spec = paramsio.read_params(args.params)
    report = build_analyze_report(pp, curve_spec, args.target)
    _emit("analyze", report, args.out)


# -- ec-code ----------------------------------------------------------------------


def _curve_coefficient(ext, text: str):
    """A curve coefficient given as l coordinates, or as one base symbol."""
    coords = _csv_ints(text)
    if "," not in text:
        coords += [0] * (ext.l - 1)
    return ext.from_coords(coords)


def cmd_ec_code(args) -> None:
    base, ext = _build_fields(args.q, args.l)
    a = _curve_coefficient(ext, args.a)
    b = _curve_coefficient(ext, args.b)
    curve = EllipticCurve(ext, a, b)
    pts = ec_points(curve)
    affine = [p for p in pts if not p.is_infinity]
    if args.points:
        chosen = []
        for pair in args.points.split(";"):
            xy = _csv_ints(pair)
            if len(xy) != 2:
                raise InvalidParams(f"--points entry {pair!r} is not an x,y index pair")
            point = next(
                (p for p in affine if (p.x.index, p.y.index) == tuple(xy)), None
            )
            if point is None:
                raise InvalidParams(f"({xy[0]}, {xy[1]}) is not an affine point of the curve")
            chosen.append(point)
    else:
        if args.num_points < 0:
            raise InvalidParams(f"--num-points must be non-negative, got {args.num_points}")
        if args.num_points > len(affine):
            raise InvalidParams(
                f"curve has {len(affine)} affine points, {args.num_points} requested"
            )
        chosen = affine[: args.num_points]
    spec = AGCodeSpec(curve, tuple(chosen), args.degree)
    code = residue_code(spec)
    pp = scheme.PublicParams(base=base, ext=ext, n=args.n, M=args.M, code=code)
    paramsio.write_params(args.out, pp, spec)
    log.info("curve parameters written to %s", args.out)
    _emit(
        "ec-code",
        {
            "format": "subtag-report/ec-code/1",
            "path": args.out,
            "num_points": spec.n,
            "degree": spec.degree,
            "length": code.length,
            "kdim": code.kdim,
            "curve_points": len(pts),
        },
        args.report,
    )


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subtag",
        description="tagging and verification of subspace messages over coded networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="write Reed-Solomon scheme parameters")
    p.add_argument("--q", type=int, required=True, help="base field order (prime power)")
    p.add_argument("--l", type=int, required=True, help="extension degree")
    p.add_argument("--n", type=int, required=True, help="message subspace dimension")
    p.add_argument("--M", type=int, required=True, help="tagging degree (M >= n)")
    p.add_argument("--V", type=int, required=True, help="number of verifiers")
    p.add_argument("--kdim", type=int, required=True, help="code dimension")
    p.add_argument("--points", help="comma-separated evaluation point indices")
    p.add_argument("--out", default="params.json", help="params file to write")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("simulate", help="run one honest (or polluted) transmission")
    p.add_argument("--params", required=True)
    p.add_argument("--topology", default="butterfly", help="'butterfly' or a file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-at", dest="inject_at", help="node that emits garbage")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="mount a coalition attack on one verifier")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coalition", default="", help="comma-separated member indices")
    p.add_argument("--target", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=["deterministic", "guess", "histogram"],
        default="deterministic",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--payload", help="substituted payload coordinates (comma list)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="code-level security report")
    p.add_argument("--params", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ec-code", help="write parameters whose code is an AG residue code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", required=True, help="curve coefficient a (coords or index)")
    p.add_argument("--b", required=True, help="curve coefficient b (coords or index)")
    p.add_argument("--degree", type=int, required=True, help="pole-order budget")
    p.add_argument("--num-points", dest="num_points", type=int, default=0)
    p.add_argument("--points", help="semicolon list of x,y point index pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="params.json")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_ec_code)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("SUBTAG_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(name)s %(levelname)s %(message)s",
        )
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (SubtagError, OSError, UnicodeDecodeError) as exc:
        # OSError and UnicodeDecodeError: unreadable input or output files
        # (missing, a directory, not text)
        print(f"subtag: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
