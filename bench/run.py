"""Benchmark runner for subtag: three closed-loop workloads, one client.

    python3 bench/run.py --workload relay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ``src/`` next
to this directory, and the run fails at once when it is not there.

``--trace 0`` reports the end-to-end metrics.  After three warm-up ops
it runs the same op inputs in ROUNDS rounds spread over ``--seconds``,
checks every output, and takes the median of each input's rounds as its
latency.  The workload is set up again before every round, and
``setup_s`` is the median of all set-ups.  Times are paced: each is
scaled by a reference loop timed next to it (see ``Pace``), so that a
machine slowed by other load reports nearly the same figures; the stamp
also carries the unpaced figures and the reference loop's own time.

``--trace 1`` alternates, for ``--seconds``, untraced and traced passes
over a fixed amount of work: the workload's first ``traced_ops`` ops,
plus in traced passes one baseline pass, which is the same for every
workload, so every layer is measured on every workload.  Per-layer self
times are per-pass means; counts must repeat exactly in every traced
pass, and the checked outputs in every pass, traced or not.
``trace.overhead`` compares the two kinds of pass on the same ops.  The
ROADMAP baseline rows come from one untraced baseline pass.

The last stdout line is the result object; the line before it is a stamp
with the interpreter, nproc, commit, seed, input sizes, sample count and
``fail_ratio``, plus an output digest in traced runs.  Seeds 1-20 were
used while tuning; seed ``HOLDOUT_SEED`` was not, so later claims can be
rechecked on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOLDOUT_SEED = 20130304
ROUNDS = 5
# Before each round set-up runs at least once and for SETUP_SECONDS / ROUNDS,
# so set-up samples are spread over the run and a cheap set-up has many.
SETUP_SECONDS = 2.5
BASELINE_REPEATS = 3
PROBE_SAMPLES = 2000
# End-to-end times are quoted at the speed where the reference loop takes
# this long (about its time on an idle 2 GHz core).
REFERENCE_MS = 4.0


def _import_library() -> None:
    package = SRC / "subtag" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: no library sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import subtag

    if Path(subtag.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported subtag from {subtag.__file__}, not {package}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


_TABLE = tuple(tuple((i * j) % 251 for j in range(64)) for i in range(64))


def _cell(a: int, b: int) -> int:
    return _TABLE[a & 63][b & 63]


def _reference_loop() -> int:
    """Fixed pure-Python work: calls, list, tuple and dict traffic, no library code."""
    seen = {}
    acc = [0] * 64
    for i in range(800):
        row = [_cell(i, j) for j in range(16)]
        acc = [a ^ b for a, b in zip(acc, row * 4)]
        seen[i % 97] = tuple(row)
    return len(seen) + sum(acc)


class Pace:
    """Machine speed, from a fixed reference loop timed between measurements.

    Other load on a shared machine slows a whole process by a factor that
    holds for seconds to minutes, long enough to move every figure of a
    run.  ``scale`` divides a measured time by the reference loop's time
    around it and quotes it at REFERENCE_MS per loop, which cancels most
    of that.  The loop uses no library code, so a change to the library
    shows in full.
    """

    def __init__(self):
        self.loops = [self._loop()]

    @staticmethod
    def _loop() -> float:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        before = self.loops[-1]
        self.loops.append(self._loop())
        return seconds * REFERENCE_MS / 1e3 / ((before + self.loops[-1]) / 2)


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def step(self, i: int, tracer=None):
        """Time op i and check it: (seconds, output, summary or None)."""
        self.attempted += 1
        ok, out, summary = False, None, None
        t0 = time.perf_counter()
        try:
            with tracer.span(self.wl.name, op_id=i) if tracer else nullcontext():
                out = self.wl.op(i)
            elapsed = time.perf_counter() - t0
            with tracer.paused() if tracer else nullcontext():
                ok, summary = self.wl.check(i, out)
        except Exception:  # one failed op is counted, the run goes on
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            summary = None
        return elapsed, out, summary

    def rounds(self, seconds: float, pace: Pace, between=None):
        """Median of ROUNDS runs of each op input, the rounds spread over ``seconds``.

        Three untimed ops warm up and size the number of inputs so that
        the rounds (with their checks) fill ``seconds``.  Returns the
        paced and the raw seconds per input.  ``between`` runs before each
        round after the first; no round starts after 1.5 x ``seconds``.
        """
        walls = []
        for i in range(3):
            t0 = time.perf_counter()
            self.step(i)
            walls.append(time.perf_counter() - t0)
        n = max(1, round(seconds / ROUNDS / statistics.median(walls)))
        paced, raw = [[] for _ in range(n)], [[] for _ in range(n)]
        deadline = time.perf_counter() + 1.5 * seconds
        for r in range(ROUNDS):
            if r and time.perf_counter() > deadline:
                break
            if r and between is not None:
                between()
            for i in range(n):
                elapsed = self.step(i)[0]
                paced[i].append(pace.scale(elapsed))
                raw[i].append(elapsed)
        return [statistics.median(t) for t in paced], [statistics.median(t) for t in raw]


def _summary(setups: list[float], times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms.p90": (_p90(times) * 1e3, "ms"),
    }


def timed_run(cls, seed: int, seconds: float, small: bool):
    pace = Pace()
    setups, raw_setups = [], []

    def set_up():
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl = cls(seed, small)
            elapsed = time.perf_counter() - t0
            raw_setups.append(elapsed)
            setups.append(pace.scale(elapsed))
            if small or time.perf_counter() - start >= SETUP_SECONDS / ROUNDS:
                return wl

    runner = Runner(set_up())
    times, raw_times = runner.rounds(seconds, pace, between=set_up)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {**_summary(setups, times), "peak_rss_mb": (rss_kb / 1024, "MB")}
    info = {
        "inputs": runner.wl.inputs(),
        "samples": len(times),
        "rounds": ROUNDS,
        "setup_runs": len(setups),
        "reference_loop_ms": statistics.median(pace.loops) * 1e3,
        "unpaced": {k: v for k, (v, _) in _summary(raw_setups, raw_times).items()},
        "tally": dict(runner.wl.tally),
    }
    return runner, metrics, info


def field_probe(ext, seed: int) -> tuple[float, float]:
    """ns per extension multiply and per Frobenius step, seeded sample."""
    from subtag import fields
    from subtag.rng import stream

    r = stream(seed, "bench/field-probe")
    xs = [ext.element(r.randrange(1, ext.order)) for _ in range(PROBE_SAMPLES)]
    ys = [ext.element(r.randrange(1, ext.order)) for _ in range(PROBE_SAMPLES)]
    mul, frob = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        for x, y in zip(xs, ys):
            x * y
        t1 = time.perf_counter()
        for x in xs:
            fields.frobenius(x)
        t2 = time.perf_counter()
        mul.append((t1 - t0) / PROBE_SAMPLES)
        frob.append((t2 - t1) / PROBE_SAMPLES)
    return statistics.median(mul) * 1e9, statistics.median(frob) * 1e9


def _ops(runner, n: int, tracer=None):
    """Ops 0..n-1: (digest of the checked outputs, seconds per op)."""
    digest = hashlib.sha256()
    times = []
    for i in range(n):
        elapsed, _, summary = runner.step(i, tracer)
        times.append(elapsed)
        digest.update(repr((i, summary)).encode())
    return digest.hexdigest(), times


def traced_pass(runner, bl_runner, n: int):
    """Ops 0..n-1 and one baseline pass, traced: (tracer, counts, digest, seconds per op)."""
    from spans import Tracer
    from subtag import scheme

    counter = scheme.OpCounter()
    tally: Counter[str] = Counter()
    runners = (runner, bl_runner)
    saved = [(r.wl.counter, r.wl.tally) for r in runners]
    try:
        for r in runners:
            r.wl.counter, r.wl.tally = counter, tally
        with Tracer() as tracer:
            digest, times = _ops(runner, n, tracer)
            bl_runner.step(0, tracer)
    finally:
        for r, (c, t) in zip(runners, saved):
            r.wl.counter, r.wl.tally = c, t
    counts = Counter(tracer.counts)
    counts["scheme.ext_mults"] = counter.ext_mults
    counts["scheme.frobenius_steps"] = counter.frobenius_steps
    counts.update(tally)
    return tracer, counts, digest, times


def _layer_metrics(tracers, counts) -> dict:
    selfs = [t.self_times() for t in tracers]

    def ms(prefix):
        total = sum(
            v for st in selfs for k, v in st.items() if k == prefix or k.startswith(prefix + ".")
        )
        return total / len(selfs) * 1e3

    def per(value, count):
        return value / count if count else 0.0

    return {
        "linalg.rref.calls": (counts["linalg.rref.calls"], "count"),
        "linalg.rref.cells": (counts["linalg.rref.cells"], "count"),
        "linalg.rref.self_ms": (ms("linalg"), "ms"),
        "codes.codewords": (counts["codes.codewords"], "count"),
        "codes.forgeable.calls": (counts["codes.forgeable.calls"], "count"),
        "codes.self_ms": (ms("codes"), "ms"),
        "ec.classify.calls": (counts["ec.classify.calls"], "count"),
        "ec.self_ms": (ms("ec"), "ms"),
        "scheme.tag.us_per_packet": (
            per(ms("scheme.tag") * 1e3, counts["scheme.tag.packets"]),
            "us",
        ),
        "scheme.verify.us_per_packet": (
            per(ms("scheme.verify") * 1e3, counts["scheme.verify.calls"]),
            "us",
        ),
        "scheme.verify.calls": (counts["scheme.verify.calls"], "count"),
        "scheme.verify.accept_ratio": (
            per(counts["scheme.verify.accepted"], counts["scheme.verify.calls"]),
            "ratio",
        ),
        "scheme.ext_mults": (counts["scheme.ext_mults"], "count"),
        "scheme.frobenius_steps": (counts["scheme.frobenius_steps"], "count"),
        "network.edges": (counts["network.edges"], "count"),
        "network.transmit.us_per_edge": (
            per(ms("network.transmit") * 1e3, counts["network.edges"]),
            "us",
        ),
        "network.transmit.self_ms": (ms("network.transmit"), "ms"),
        "network.decode.self_ms": (ms("network.decode"), "ms"),
        "adversary.assemble.self_ms": (ms("adversary.assemble"), "ms"),
        "adversary.count.self_ms": (ms("adversary.count"), "ms"),
        "adversary.forge.self_ms": (ms("adversary.forge"), "ms"),
        "adversary.guess.calls": (counts["adversary.guess.calls"], "count"),
        "adversary.guess.accept_ratio": (
            per(counts["adversary.guess.accepted"], counts["adversary.guess.calls"]),
            "ratio",
        ),
        "params.read_ms": (ms("params.read"), "ms"),
        "schemas.validate_ms": (ms("schemas.validate"), "ms"),
        "params.dump_ms": (ms("params.dump"), "ms"),
    }


def traced_run(cls, seed: int, seconds: float, small: bool):
    from baseline import ROWS, Baseline

    wl = cls(seed, small)
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        cls.build_fields()
        builds.append(time.perf_counter() - t0)
    mul_ns, frob_ns = field_probe(wl.probe_field, seed)

    n = cls.traced_ops
    runner = Runner(wl)
    _ops(runner, n)  # warm-up
    rows_runner = Runner(Baseline(1 if small else BASELINE_REPEATS))
    _, out, _ = rows_runner.step(0)
    rows = out[0] if out else {}

    # Untraced and traced passes over the same ops alternate, so load on
    # the machine falls on both alike.
    bl_runner = Runner(Baseline(1))
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(_ops(runner, n))
        traced.append(traced_pass(runner, bl_runner, n))
    tracers = [t for t, _, _, _ in traced]
    counts = [c for _, c, _, _ in traced]
    digests = {d for d, _ in plain} | {d for _, _, d, _ in traced}
    repeated = len(digests) == 1 and all(c == counts[0] for c in counts)
    if not repeated:
        diff = sorted(k for c in counts for k in c if c[k] != counts[0][k])
        print(f"bench: passes differ (outputs {len(digests)}, counts {diff})", file=sys.stderr)
    best_plain = [min(ts) for ts in zip(*(t for _, t in plain))]
    best_traced = [min(ts) for ts in zip(*(t for _, _, _, t in traced))]

    metrics = {
        "fields.build_ms": (statistics.median(builds) * 1e3, "ms"),
        "fields.ext_mul_ns": (mul_ns, "ns"),
        "fields.frobenius_ns": (frob_ns, "ns"),
        **_layer_metrics(tracers, counts[0]),
        "trace.overhead": (statistics.median(best_traced) / statistics.median(best_plain), "ratio"),
    }
    for name, unit in ROWS.items():
        metrics[name] = (rows.get(name, 0.0), unit)
    info = {
        "inputs": wl.inputs(),
        "passes": len(traced),
        "traced_ops": n,
        "repeat_ok": repeated,
        "digest": digests.pop() if repeated else None,
        "tally": dict(wl.tally),
    }
    attempted = runner.attempted + rows_runner.attempted + bl_runner.attempted
    failed = runner.failed + rows_runner.failed + bl_runner.failed + (not repeated)
    return attempted, failed, metrics, info


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run: (stamp, result) as printed."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if trace:
        attempted, failed, metrics, info = traced_run(cls, seed, seconds, small)
    else:
        runner, metrics, info = timed_run(cls, seed, seconds, small)
        attempted, failed = runner.attempted, runner.failed
    stamp = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "workload": name,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "fail_ratio": failed / attempted,
        **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return stamp, result


def smoke() -> int:
    """Every workload at minimum size in both modes; checks names, units, failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            stamp, result = run(w["name"], 1, 0.2, bool(trace), small=True)
            metrics = result["metrics"]
            where = f"{w['name']} trace {trace}"
            if stamp["fail_ratio"] != 0 or not result["correct"]:
                problems.append(f"{where}: fail_ratio {stamp['fail_ratio']}")
            if set(metrics) != set(wanted[trace]):
                problems.append(f"{where}: metrics differ by {sorted(set(metrics) ^ set(wanted[trace]))}")
            for name, m in metrics.items():
                if not m["unit"] or not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} has no unit or value")
            print(json.dumps({"smoke": where, "fail_ratio": stamp["fail_ratio"]}))
    for p in problems:
        print(f"bench smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads at minimum size")
    args = ap.parse_args(argv)
    _import_library()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    stamp, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
