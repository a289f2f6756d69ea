#!/usr/bin/env python3
"""Honest and polluted transmissions over the butterfly, side by side.

Sets up the q=5, l=3 instance with the [6,3] Reed-Solomon code, pushes a
random 2-dimensional payload space through the classic butterfly, and
prints what every verifier and sink concludes.  A second pass injects a
random fake packet at an intermediate node to show where verification
starts failing downstream.
"""

import argparse

from subtag.codes import rs_code
from subtag.fields import BaseField, ExtField
from subtag.network import butterfly, same_span, transmit
from subtag.rng import stream
from subtag.scheme import (
    PublicParams,
    TaggedPacket,
    distribute,
    keygen,
    random_payload_basis,
    tag_basis,
    verify,
)


def flagship_params() -> PublicParams:
    base = BaseField(5)
    ext = ExtField(base, 3)
    return PublicParams(
        base=base, ext=ext, n=2, M=2, code=rs_code(ext, list(range(6)), 3)
    )


def run(pp: PublicParams, seed: int, inject_at: str | None) -> None:
    topo = butterfly()
    mk = keygen(pp, seed)
    vks = distribute(pp, mk)
    basis = random_payload_basis(pp, seed)
    packets = tag_basis(pp, mk, basis)
    wire = [p.symbols() for p in packets]

    fake = None
    if inject_at is not None:
        adv = stream(seed, "adversary/inject")
        fake = tuple(adv.randrange(pp.base.order) for _ in range(pp.packet_symbols))
    tx = transmit(topo, pp.base, wire, seed, inject_at=inject_at, fake=fake)

    title = "honest run" if inject_at is None else f"garbage injected at '{inject_at}'"
    print(f"--- {title} (seed {seed}) ---")
    print(f"payload basis: {[list(b) for b in basis]}")
    for pos, node in enumerate(topo.verifier_nodes()):
        vk = vks[pos]
        verdicts = []
        for syms in tx.packets_at(node):
            pkt = TaggedPacket.from_symbols(pp, syms)
            verdicts.append("ok" if verify(pp, vk, pkt) else "REJECT")
        rank = tx.kernel_rank_at(node)
        print(f"  verifier {node} (key {vk.index}): rank {rank}, packets {verdicts}")
    for node in topo.sink_nodes():
        rank = tx.kernel_rank_at(node)
        rows = [list(s[1 : 1 + pp.l]) for s in tx.packets_at(node)]
        got = same_span(pp.base, rows, [list(b) for b in basis], pp.l)
        print(
            f"  sink {node}: rank {rank}/{pp.n}, "
            f"payload space {'recovered' if got else 'NOT recovered'}"
        )
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # default chosen so the injected payload falls outside the honest span;
    # roughly one seed in five makes the fake land inside it, which still
    # rejects at the verifiers but leaves the sink span intact
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--inject-at", default="b", help="node for the polluted pass")
    args = ap.parse_args()

    pp = flagship_params()
    print(
        f"instance: q={pp.base.order}, l={pp.l}, n={pp.n}, M={pp.M}, "
        f"[{pp.V},{pp.kdim}] code, {pp.packet_symbols} symbols per packet\n"
    )
    run(pp, args.seed, None)
    run(pp, args.seed, args.inject_at)


if __name__ == "__main__":
    main()
