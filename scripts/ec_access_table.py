#!/usr/bin/env python3
"""Forgeability on residue codes of the 9-point curve y^2 = x^3 + x + 1 / GF(5).

Walks the curve group, builds the residue code on the first six affine
points for each pole budget, and tabulates the point-sum classifier
against the span criterion for the two interesting coalition sizes.
The two verdicts must agree everywhere; the table shows how often each
kind occurs and picks out the boundary cases.
"""

import itertools
from collections import Counter

from subtag.codes import CoalitionSpec
from subtag.ec import (
    AGCodeSpec,
    EllipticCurve,
    classify_coalition,
    ec_add,
    ec_points,
    residue_code,
)
from subtag.fields import BaseField


def point_order(p):
    acc, k = p, 1
    while not acc.is_infinity:
        acc = ec_add(acc, p)
        k += 1
    return k


def main() -> None:
    base = BaseField(5)
    curve = EllipticCurve(base, base.element(1), base.element(1))
    points = ec_points(curve)
    print(f"curve y^2 = x^3 + x + 1 over GF(5): {len(points)} points")
    for p in points:
        order = 1 if p.is_infinity else point_order(p)
        print(f"  {p}  (order {order})")
    affine = [p for p in points if not p.is_infinity]
    support = tuple(affine[:6])
    print(f"\nsupport: first {len(support)} affine points, n = 6")

    for degree in (2, 3):
        spec = AGCodeSpec(curve, support, degree)
        code = residue_code(spec)
        n, k = spec.n, spec.degree
        print(f"\npole budget k = {k}: residue code [{code.length},{code.kdim}]")
        for size in (n - k - 1, n - k):
            kinds = Counter()
            disagreements = 0
            examples = {}
            for combo in itertools.combinations(range(1, n + 1), size):
                # classification is a property of the coalition alone: the
                # target only needs to lie outside it
                outside = [t for t in range(1, n + 1) if t not in combo]
                cls = classify_coalition(spec, combo, outside[0])
                kinds[cls.kind.value] += 1
                examples.setdefault(cls.kind.value, (combo, cls))
                for tgt in outside:
                    span = code.forgeable(CoalitionSpec(frozenset(combo), tgt))[0]
                    if cls.against(tgt) != span:
                        disagreements += 1
            total = sum(kinds.values())
            print(f"  size {size}: {total} coalitions -> {dict(kinds)}")
            for kind, (combo, cls) in sorted(examples.items()):
                extra = ""
                if cls.kind.value == "single-target":
                    extra = f", only against support index {cls.single_target}"
                if cls.complement_sum.is_infinity:
                    extra += ", complement sums to O"
                print(f"    e.g. {combo}: {kind}{extra}")
            print(f"    span-criterion disagreements: {disagreements}")


if __name__ == "__main__":
    main()
