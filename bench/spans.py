"""Span tracing around the library's public layer functions.

The benchmark records spans from its own files: while a ``Tracer`` is
installed it replaces selected public functions and methods of the
library with wrappers that open a span (name, start, end, parent, op id)
and bump exact counters, and it puts the originals back on exit.  Nothing
under ``src/`` knows about it, and untraced runs install nothing, so they
pay no tracing cost at all.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans, so time spent in
``linalg`` under a ``codes`` call is charged to ``linalg`` only.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from subtag import adversary, cli, codes, ec, linalg, network, params, scheme, schemas


def _rref_cells(counts, args, kwargs, result):
    m = args[0]
    counts["linalg.rref.calls"] += 1
    counts["linalg.rref.cells"] += m.nrows * m.ncols


def _forgeable(counts, args, kwargs, result):
    counts["codes.forgeable.calls"] += 1


def _classify(counts, args, kwargs, result):
    counts["ec.classify.calls"] += 1


def _tagged(counts, args, kwargs, result):
    counts["scheme.tag.packets"] += len(result)


def _verified(counts, args, kwargs, result):
    counts["scheme.verify.calls"] += 1
    counts["scheme.verify.accepted"] += bool(result)


def _transmitted(counts, args, kwargs, result):
    counts["network.edges"] += len(result.topology.edges)


def _guessed(counts, args, kwargs, result):
    counts["adversary.guess.calls"] += 1


# (span name, owners holding the name, attribute, counter hook).  A function
# imported by name into another module is patched in each module that
# calls it; methods are patched once on their class.
INSTRUMENTED = (
    ("linalg.rref", (linalg.Matrix,), "rref", _rref_cells),
    ("codes.dual", (codes.LinearCode,), "dual", None),
    ("codes.min_distance", (codes.LinearCode,), "min_distance", None),
    ("codes.minimal", (codes.LinearCode,), "minimal_codewords_wrt", None),
    ("codes.access", (codes.LinearCode,), "access_structure", None),
    ("codes.forgeable", (codes.LinearCode,), "forgeable", _forgeable),
    ("ec.classify", (ec, cli), "classify_coalition", _classify),
    ("ec.residue", (ec, params), "residue_code", None),
    ("ec.eval", (ec,), "eval_code", None),
    ("scheme.keys", (scheme,), "keygen", None),
    ("scheme.keys", (scheme,), "distribute", None),
    ("scheme.basis", (scheme,), "random_payload_basis", None),
    ("scheme.tag", (scheme,), "tag_basis", _tagged),
    ("scheme.verify", (scheme,), "verify", _verified),
    ("scheme.label", (adversary,), "scheme_label", None),
    ("scheme.unpack", (scheme.TaggedPacket,), "from_symbols", None),
    ("network.transmit", (network,), "transmit", _transmitted),
    ("network.decode", (network,), "same_span", None),
    ("adversary.assemble", (adversary,), "assemble_system", None),
    ("adversary.count", (adversary,), "count_consistent_keys", None),
    ("adversary.forge", (adversary,), "deterministic_forge", None),
    ("adversary.forge", (adversary,), "guess_forge", _guessed),
    ("params.read", (params,), "params_from_dict", None),
    ("params.dump", (params,), "dump_json", None),
    ("schemas.validate", (schemas, cli), "validate_report", None),
)


class Tracer:
    """In-memory spans and exact counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter[str] = Counter()
        self.active = True
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id=None):
        if op_id is not None:
            self.op_id = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run correctness checks without charging them to any layer."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return dict(out)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_codewords(self, fn):
        tracer = self

        @functools.wraps(fn)
        def codewords(*args, **kwargs):
            for word in fn(*args, **kwargs):
                if tracer.active:
                    tracer.counts["codes.codewords"] += 1
                yield word

        return codewords

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for name, owners, attr, hook in INSTRUMENTED:
            for owner in owners:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, hook)))
                else:
                    self._patch(owner, attr, self._wrap(name, raw, hook))
        cw = vars(codes.LinearCode)["codewords"]
        self._patch(codes.LinearCode, "codewords", self._wrap_codewords(cw))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
