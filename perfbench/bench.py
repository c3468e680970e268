"""Run one workload for a fixed wall-time window and compute its metrics.

A run is: set up ``SETUP_REPS`` times (the last set-up is kept), then
execute the workload's operations closed-loop, one caller, until
``seconds`` of timed work have passed *and* the seed-determined prefix
is complete.  Answers are checked outside the timed regions.

Two kinds of numbers come out:

* wall metrics (``qps``, ``query_ms.*``) over every query in the window;
* deterministic metrics (``messages_per_query``, ``net_kb_per_query``,
  ``sim_*``, per-layer ``calls`` and counters, answer digests) over the
  prefix only, so two runs of one seed agree exactly.

Query-weighted figures are normalised to the nominal template mix: each
template's mean (or its samples, for percentiles) is weighted by the
mix weight rather than by how often the seed happened to draw it.  A
seed that draws a few more paper queries therefore does not move them.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, QUERY_LAYER, Tracer, installed

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: Wall times are reported as on a reference host, one on which
#: :func:`calibrate` takes ``REFERENCE_S``; the unscaled figures are
#: printed too.  The host's speed drifts by more than the bounds allow
#: (see README.md), and scaling by a calibration taken next to each
#: measurement removes most of that drift.
CALIBRATION_LOOPS = 30_000
REFERENCE_S = 0.0025
CALIBRATE_EVERY_S = 0.25

#: Work counters reported per query in the traced run.
WORK_FIELDS = (
    "objects_scanned",
    "objects_shipped",
    "assistants_checked",
    "comparisons",
    "checks_failed_over",
    "conditions_discharged",
)


@dataclass
class Sample:
    """One query's numbers (its report is dropped right away)."""

    template: str
    op: int
    wall_s: float
    sim_response_s: float
    sim_total_s: float
    messages: int
    net_bytes: int
    resource_wait_s: float
    cache_hits: int
    cache_misses: int
    work: Tuple[int, ...]
    #: Wall time of the operation charged to this query beyond its own
    #: execution: its repair, or its share of the traffic engine's work.
    extra_s: float = 0.0

    @classmethod
    def of(cls, template: str, op: int, wall_s: float, report) -> "Sample":
        m = report.metrics
        w = m.work
        return cls(
            template=template,
            op=op,
            wall_s=wall_s,
            sim_response_s=m.response_time,
            sim_total_s=m.total_time,
            messages=w.messages,
            net_bytes=w.bytes_network,
            resource_wait_s=sum(m.resource_wait.values()),
            cache_hits=w.cache_hits,
            cache_misses=w.cache_misses,
            work=tuple(getattr(w, name) for name in WORK_FIELDS),
        )


@dataclass
class OpResult:
    """What one operation did: its timed wall and its queries."""

    timed_s: float
    samples: List[Sample] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    repairs: List[float] = field(default_factory=list)
    #: Scale to the reference host, set by :class:`HostSpeed`.
    factor: float = 1.0


@dataclass
class Outcome:
    """Everything a run measured."""

    workload: str
    seed: int
    attempted: int
    failed: int
    end_to_end: Dict[str, Tuple[float, str]]
    per_layer: Dict[str, Tuple[float, str]]
    extra: Dict[str, Tuple[float, str]]
    digests: List[str]
    inputs: str
    coverage: float = 0.0
    window_queries: int = 0
    prefix_queries: int = 0


def weighted_percentile(pairs: List[Tuple[float, float]], q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= q * total * (1 - 1e-12):
            return value
    return pairs[-1][0]


def _by_template(samples: List[Sample], weights: Dict[str, float]):
    groups: Dict[str, List[Sample]] = {t: [] for t in weights}
    for s in samples:
        groups[s.template].append(s)
    empty = [t for t, g in groups.items() if not g]
    if empty:
        raise RuntimeError(f"no {', '.join(empty)} query was measured")
    return groups


def mix_mean(samples, weights, value) -> float:
    """Mean of *value* per query on the nominal mix."""
    groups = _by_template(samples, weights)
    return sum(
        weights[t] * sum(value(s) for s in g) / len(g)
        for t, g in groups.items()
    )


def mix_percentile(samples, weights, value, q) -> float:
    """Percentile of *value* per query on the nominal mix."""
    groups = _by_template(samples, weights)
    return weighted_percentile(
        [(value(s), weights[t] / len(g)) for t, g in groups.items()
         for s in g],
        q,
    )


def rss_mb() -> float:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def calibrate() -> float:
    """Time a fixed loop of integer arithmetic.

    It allocates nothing the garbage collector tracks and touches none
    of the engine's data, so only the host's speed changes its time.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Scale factors from wall time on this host to the reference host.

    A calibration runs after every ``CALIBRATE_EVERY_S`` of timed work;
    the operations in between get ``REFERENCE_S`` over the mean of the
    calibrations on either side.
    """

    def __init__(self) -> None:
        self.last = statistics.median(calibrate() for _ in range(5))
        self.pending: List[OpResult] = []
        self.since = 0.0
        self.calibrations = [self.last]

    def add(self, op: OpResult) -> None:
        self.pending.append(op)
        self.since += op.timed_s
        if self.since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = calibrate()
        factor = REFERENCE_S / ((self.last + now) / 2)
        for op in self.pending:
            op.factor = factor
        self.pending, self.since, self.last = [], 0.0, now
        self.calibrations.append(now)

    def timed(self, fn) -> Tuple[float, float]:
        """(raw, scaled) wall time of ``fn()``, calibrated either side."""
        before = calibrate()
        start = time.perf_counter()
        fn()
        raw = time.perf_counter() - start
        return raw, raw * REFERENCE_S / ((before + calibrate()) / 2)


def _wall_metrics(ops: List[OpResult], weights, scaled: bool):
    """qps and latency percentiles, on the reference host if *scaled*."""
    samples: List[Sample] = []
    writes: List[float] = []
    repairs: List[float] = []
    loose = 0.0
    for op in ops:
        k = op.factor if scaled else 1.0
        # Operation time not spent inside a query (writes, the traffic
        # engine's own work) is shared evenly by the window's queries.
        loose += k * (op.timed_s
                      - sum(s.wall_s + s.extra_s for s in op.samples))
        samples += [
            replace(s, wall_s=s.wall_s * k, extra_s=s.extra_s * k)
            for s in op.samples
        ]
        writes += [w * k for w in op.writes]
        repairs += [r * k for r in op.repairs]
    cost = mix_mean(samples, weights, lambda s: s.wall_s + s.extra_s)
    cost += loose / len(samples)
    out = {"qps": (1.0 / cost, "1/s")}
    for name, q in (("query_ms.p50", 0.50), ("query_ms.p95", 0.95)):
        out[name] = (
            mix_percentile(samples, weights, lambda s: s.wall_s, q) * 1e3,
            "ms",
        )
    for name, values in (("write_ms.p50", writes),
                         ("repair_ms.p50", repairs)):
        if values:
            out[name] = (statistics.median(values) * 1e3, "ms")
    return out


def run(workload, seed: int, seconds: float, trace: bool,
        spans_path: Optional[str] = None) -> Outcome:
    """Set up, measure for *seconds*, verify; see the module docstring."""
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        workload.reset()
        gc.collect()
        setups.append(host.timed(lambda: workload.setup(seed)))

    tracer = Tracer()
    layers = LAYERS if trace else (QUERY_LAYER,)
    ops: List[OpResult] = []
    rss = 0.0
    with installed(tracer, layers):
        measured = 0.0
        i = 0
        while i < workload.prefix_ops or measured < seconds:
            tracer.op = i
            tracer.in_prefix = i < workload.prefix_ops
            tracer.active = True
            ops.append(workload.op(i, tracer))
            tracer.active = False
            measured += ops[-1].timed_s
            host.add(ops[-1])
            if tracer.in_prefix:
                rss = max(rss, rss_mb())
            i += 1
        host.flush()
        attempted, failed = workload.verify()
    prefix_ops = workload.prefix_ops

    weights = workload.weights
    samples = [s for op in ops for s in op.samples]
    prefix = [s for s in samples if s.op < prefix_ops]
    wall = _wall_metrics(ops, weights, scaled=True)
    e2e = {
        name: wall.pop(name) for name in ("qps", "query_ms.p50",
                                          "query_ms.p95")
    }
    e2e.update({
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "messages_per_query": (
            mix_mean(prefix, weights, lambda s: s.messages), "count"
        ),
        "net_kb_per_query": (
            mix_mean(prefix, weights, lambda s: s.net_bytes / 1024.0), "KB"
        ),
    })
    # The paper's two metrics.  They are not gated: CA's simulated cost
    # does not depend on query constants, so on ca-hotset they read the
    # same for every seed.
    sim = {
        "sim_response_s": (
            mix_mean(prefix, weights, lambda s: s.sim_response_s), "s"
        ),
        "sim_total_s": (
            mix_mean(prefix, weights, lambda s: s.sim_total_s), "s"
        ),
    }
    extra = {**sim, **wall}
    extra["failed_ratio"] = (failed / attempted if attempted else 1.0,
                             "ratio")
    raw = _wall_metrics(ops, weights, scaled=False)
    raw["setup_s"] = (statistics.median(r for r, _ in setups), "s")
    extra.update({f"unscaled.{k}": v for k, v in raw.items()})
    extra["host.calibration_ms"] = (
        statistics.median(host.calibrations) * 1e3, "ms"
    )

    per_layer: Dict[str, Tuple[float, str]] = {}
    coverage = 0.0
    if trace:
        factors = {op_index: op.factor for op_index, op in enumerate(ops)}
        per_layer = _layer_metrics(tracer, samples, prefix, prefix_ops,
                                   factors)
        per_layer.update(sim)
        timed = sum(op.timed_s for op in ops)
        coverage = tracer.root_ns() / 1e9 / timed if timed else 0.0
        if spans_path:
            tracer.write_jsonl(spans_path)
    return Outcome(
        workload=workload.name,
        seed=seed,
        attempted=attempted,
        failed=failed,
        end_to_end=e2e,
        per_layer=per_layer,
        extra=extra,
        digests=workload.digests,
        inputs=workload.inputs_fingerprint(),
        coverage=coverage,
        window_queries=len(samples),
        prefix_queries=len(prefix),
    )


def _layer_metrics(tracer: Tracer, samples, prefix, prefix_ops, factors):
    n_window, n_prefix = len(samples), len(prefix)
    calls = tracer.calls(lambda op: 0 <= op < prefix_ops)
    self_ns = tracer.self_ns(factors)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.calls"] = (calls.get(layer, 0) / n_prefix,
                                       "count")
        out[f"layer.{layer}.self_ms"] = (
            self_ns.get(layer, 0) / 1e6 / n_window, "ms"
        )
    for index, name in enumerate(WORK_FIELDS):
        out[f"work.{name}"] = (
            sum(s.work[index] for s in prefix) / n_prefix, "count"
        )
    hits = sum(s.cache_hits for s in prefix)
    lookups = hits + sum(s.cache_misses for s in prefix)
    out["cache.hit_rate"] = (hits / lookups if lookups else 0.0, "ratio")
    out["sim.resource_wait_s"] = (
        sum(s.resource_wait_s for s in prefix) / n_prefix, "s"
    )
    c = tracer.counters
    outcomes = c.get("certify.outcomes", 0)
    out["certify.resolved_ratio"] = (
        c.get("certify.resolved", 0) / outcomes if outcomes else 0.0,
        "ratio",
    )
    for key in ("recertify.promoted", "recertify.discharged"):
        out[key] = (c.get(key, 0) / n_prefix, "count")
    return out
