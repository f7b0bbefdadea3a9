"""Spans around saptkit's public entry points, and the per-layer metrics made from them.

The benchmark measures each layer from outside: ``instrument`` replaces every
public function of every layer module, and the public methods of the oracle's
``PairSum`` and ``FockSpace``, with a wrapper that records a span.  Every
binding site is rebound, including names other modules took with
``from ... import``, so calls between layers are seen too.  Spans stay in
memory and are written out when the pass ends.

All times come from a :class:`Clock` whose paused intervals (output checks,
counter extraction, speed probes) are removed, so work the benchmark does for
itself never lands in a layer's time.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("archive", "tensors", "active", "factorize", "norms", "costing", "fock", "verify", "cli")
TRACED_CLASSES = {"fock": ("PairSum", "FockSpace")}
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class Clock:
    """perf_counter with paused intervals subtracted; pauses may nest."""

    def __init__(self):
        self.paused = 0.0
        self._depth = 0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    @property
    def is_paused(self) -> bool:
        return self._depth > 0

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if not self._depth:  # a speed probe firing inside a check counts once
                self.paused += time.perf_counter() - t0


class SpeedProbe:
    """Samples the measured thread's CPU speed while a pass runs.

    The machine's speed drifts by tens of percent within seconds (other
    tenants share the host), so one pass's wall time is noisy.  Every
    ``interval`` seconds a SIGALRM handler runs a fixed ~2.5 ms kernel in the
    measured thread itself, with the clock paused: small eigh calls and a
    Python loop, then cache-sized complex matmuls, the mix saptkit runs.
    ``slowdown`` is the mean kernel time over ``REF_S``; dividing wall time by
    it rescales the pass to reference speed.
    """

    REF_S = 0.0025  # kernel time at full speed on the machine the baseline was taken on

    def __init__(self, clock: Clock, interval: float = 0.2):
        import numpy as np

        self.clock = clock
        self.interval = interval
        rng = np.random.default_rng(0)
        mats = rng.normal(size=(8, 40, 40))
        self._sym = mats + mats.transpose(0, 2, 1)
        self._cplx = rng.normal(size=(2, 128, 128)) + 1j * rng.normal(size=(2, 128, 128))
        self._out = np.empty((128, 128), dtype=complex)  # no allocation, no page faults
        self._eigh, self._matmul = np.linalg.eigh, np.matmul
        self.samples: list[tuple[float, float]] = []  # (small eigh + loop, matmul) seconds
        self._previous = None

    def kernel(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        for m in self._sym:
            self._eigh(m)
        acc = 0
        for i in range(3000):
            acc += i
        t1 = time.perf_counter()
        a, b = self._cplx
        for _ in range(2):
            self._matmul(a, b, out=self._out)
        return t1 - t0, time.perf_counter() - t1

    def _on_alarm(self, signum, frame):
        with self.clock.pause():
            self.samples.append(self.kernel())

    def __enter__(self):
        import signal

        self.kernel()  # first call pays lazy set-up; not a sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        if not self.samples:  # a pass shorter than one interval is not rescaled
            return 1.0
        return sum(a + b for a, b in self.samples) / len(self.samples) / self.REF_S


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    pass_id: int = 0
    peak_mb: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb() -> float:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except OSError:
        return _maxrss_mb()


class Tracer:
    """In-memory span recorder.

    A span that enters a layer (its parent belongs to another layer) also
    records peak RSS: the new process high-water mark if the mark rose during
    the span, which is exact, otherwise the RSS at its end, a lower bound.
    """

    def __init__(self, clock: Clock, pass_id: int = 0):
        self.clock = clock
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, counter=None):
        clock, spans, stack = self.clock, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if clock.is_paused:  # the benchmark's own calls (checks, counters) make no span
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            entry = parent < 0 or spans[parent].layer != layer
            mark = _maxrss_mb() if entry else 0.0
            span = Span(name, layer, clock.now(), parent=parent, pass_id=self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock.now()
                stack.pop()
            if entry or counter is not None:
                with clock.pause():
                    if entry:
                        high = _maxrss_mb()
                        span.peak_mb = high if high > mark else rss_mb()
                    if counter is not None:
                        span.counters = counter(args, kwargs, result)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries


def _file_mb(path) -> float:
    return os.path.getsize(path) / 2**20


def _count_load(args, kwargs, result):
    return {"mb": _file_mb(args[0]), "arrays": len(result.arrays)}


def _count_save(args, kwargs, result):
    return {"mb": _file_mb(args[0]), "arrays": len(args[1].arrays)}


def factor_matrices(fop) -> int:
    """Matrices held by a FactorizedOperator: one-body, overlap, outer and inner."""
    n = len(fop.one_body) + (fop.overlap is not None)
    for bf in fop.blocks.values():
        n += 1 + len(bf.inner_left) + (0 if bf.inner_right is bf.inner_left else len(bf.inner_right))
    return n


def inner_factors(bf) -> int:
    """Inner singular values/eigenvalues held by one block."""
    n = sum(f.rank for f in bf.inner_left)
    if bf.inner_right is not bf.inner_left:
        n += sum(f.rank for f in bf.inner_right)
    return n


def _count_truncate(args, kwargs, result):
    return {"inner_before": inner_factors(args[0]), "inner_after": inner_factors(result)}


def graph_nodes(graph) -> int:
    todo, n = [graph.root], 0
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(child for _, child in node.children)
    return n


def apply_gflop(pairs, k: int, dim_a: int, dim_b: int, is_complex: bool) -> float:
    """Computed flops of ``PairSum.apply_block``: two matmuls per Kronecker pair."""
    return (8 if is_complex else 2) * len(pairs) * k * dim_a * dim_b * (dim_a + dim_b) / 1e9


def _count_apply_block(args, kwargs, result):
    op, vecs = args[0], args[1]
    pairs = op.pairs
    is_complex = bool(pairs) and (pairs[0][0].dtype.kind == "c" or vecs.dtype.kind == "c")
    return {
        "pairs": len(pairs),
        "gflop": apply_gflop(pairs, vecs.shape[1], op.space.dim_A, op.space.dim_B, is_complex),
    }


COUNTERS = {
    "load_archive": _count_load,
    "save_archive": _count_save,
    "truncate_block": _count_truncate,
    "factorize_coefficients": lambda a, k, r: {"matrices": factor_matrices(r)},
    "estimate_observable": lambda a, k, r: {"nodes": graph_nodes(r)},
    "PairSum.apply_block": _count_apply_block,
}


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap saptkit's public entry points and rebind every binding site.

    Returns the rebindings as (owner, name, original) for :func:`restore`.
    """
    import saptkit  # noqa: F401  (loads every layer module)
    import saptkit.cli  # noqa: F401
    import saptkit.verify  # noqa: F401

    bindings = []
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"saptkit.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            replaced[id(obj)] = tracer.wrap(layer, name, obj, COUNTERS.get(name))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for name, obj in list(vars(cls).items()):
                public = not name.startswith("_") or name in ("__add__", "__matmul__")
                if public and inspect.isfunction(obj):
                    label = f"{cls_name}.{name}"
                    setattr(cls, name, tracer.wrap(layer, label, obj, COUNTERS.get(label)))
                    bindings.append((cls, name, obj))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "saptkit" and not mod_name.startswith("saptkit."):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
                bindings.append((mod, name, obj))
    return bindings


def restore(bindings) -> None:
    for owner, name, original in reversed(bindings):
        setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics from a span list

# metric -> span names whose outermost occurrences are summed
OP_TIMES = {
    "archive.load_s": ("load_archive", "load_factor_cache"),
    "archive.save_s": ("save_archive", "save_factor_cache"),
    "archive.fcidump_s": ("read_fcidump", "merge_fcidump"),
    "tensors.build_s": ("build_majorana_coefficients",),
    "active.renormalize_s": ("renormalize_electrostatic", "renormalize_exchange", "renormalize_vp"),
    "factorize.outer_s": ("first_factorize",),
    "factorize.inner_s": ("second_factorize",),
    "factorize.truncate_s": ("truncate_block",),
    "norms.tf_s": ("tf_norm", "tf_norms"),
    "norms.df_s": ("factorize_monomer_hamiltonian", "df_hamiltonian_norm"),
    "costing.budget_s": ("budget_errors",),
    "costing.estimate_s": ("estimate_observable",),
    "costing.emit_s": ("emit_callgraph", "summary_tsv"),
    "fock.assemble_s": (
        "assemble_electrostatic", "assemble_exchange", "assemble_vp_excitation",
        "assemble_majorana", "assemble_modified_factors", "assemble_vp_majorana_families",
        "assemble_monomer_hamiltonian", "build_operator_matrix", "shared_span_tensors",
        "PairSum.__add__", "PairSum.__matmul__", "PairSum.scaled", "PairSum.dagger",
        "PairSum.hermitized", "PairSum.add_monomer", "PairSum.add_scalar",
    ),
    "fock.apply_s": (
        "PairSum.apply", "PairSum.apply_block", "PairSum.norm_estimate", "PairSum.to_dense",
        "PairSum.expectation", "PairSum.expectation_product",
    ),
}

# metric -> (span name, counter key) summed over spans
COUNTS = {
    "archive.load_mb": ("load_archive", "mb"),
    "archive.save_mb": ("save_archive", "mb"),
    "factorize.matrices": ("factorize_coefficients", "matrices"),
    "costing.nodes": ("estimate_observable", "nodes"),
    "fock.pairs": ("PairSum.apply_block", "pairs"),
    "fock.apply_gflop": ("PairSum.apply_block", "gflop"),
}

PEAKS = {"factorize.peak_mb": "factorize", "fock.peak_mb": "fock"}


def op_time(spans: list[Span], names) -> float:
    """Summed duration of spans named in ``names`` that have no such ancestor."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            total += span.duration
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span durations minus the time covered by their direct children."""
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        out[span.layer] += span.duration
        if span.parent >= 0:
            out[spans[span.parent].layer] -= span.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric; layers a pass never entered read 0."""
    out = {name: op_time(spans, names) for name, names in OP_TIMES.items()}
    for name, (span_name, key) in COUNTS.items():
        out[name] = sum(s.counters.get(key, 0) for s in spans if s.name == span_name)
    out["archive.arrays"] = sum(
        s.counters.get("arrays", 0) for s in spans if s.name in ("load_archive", "save_archive")
    )
    trunc = [s.counters for s in spans if s.name == "truncate_block"]
    before = sum(c["inner_before"] for c in trunc)
    out["factorize.kept_ratio"] = sum(c["inner_after"] for c in trunc) / before if before else 1.0
    out["factorize.kept_base"] = before
    for name, layer in PEAKS.items():
        out[name] = max((s.peak_mb for s in spans if s.layer == layer), default=0.0)
    for layer, secs in self_times(spans).items():
        out[f"{layer}.self_s"] = secs
    out["trace.spans"] = len(spans)
    return out


def spans_to_json(spans: list[Span]) -> list[list]:
    return [
        [s.name, s.layer, s.start, s.end, s.parent, s.pass_id, round(s.peak_mb, 3), s.counters]
        for s in spans
    ]
