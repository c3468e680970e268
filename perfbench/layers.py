"""Layer spans recorded from outside the engine.

Every layer of the engine is timed by wrapping its public entry point
for the duration of a run: the wrapper records one span (name, start,
end, parent span, operation index, query id) per call into an
in-memory list.  Nothing under ``src/`` knows about it.  A target that
no longer exists raises :class:`LayerError`, so a refactor that moves
an entry point breaks the traced run instead of silently zeroing it.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) — the public entry points wrapped in a
#: traced run.  A layer may own several targets (one span name each).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sqlx.parse", "repro.sqlx", "parse_query"),
    ("core.decompose", "repro.core.system", "DistributedSystem.decompose"),
    ("objectdb.local_eval", "repro.objectdb.database",
     "ComponentDatabase.execute_local"),
    ("objectdb.collect_unsolved", "repro.objectdb.database",
     "ComponentDatabase.collect_unsolved"),
    ("objectdb.export_scan", "repro.objectdb.database",
     "ComponentDatabase.scan_for_export"),
    ("objectdb.checks", "repro.objectdb.database",
     "ComponentDatabase.check_assistants"),
    ("objectdb.columnar_build", "repro.objectdb.columnar",
     "ColumnarExtent.__init__"),
    ("objectdb.predicate_column", "repro.objectdb.columnar",
     "ColumnarExtent.predicate_column"),
    ("integration.outerjoin", "repro.core.strategies.centralized",
     "materialize"),
    ("strategies.global_eval", "repro.core.strategies.centralized",
     "evaluate_global_extent"),
    ("core.certify", "repro.core.strategies.localized", "certify"),
    ("core.binding_resolution", "repro.core.strategies.localized",
     "resolve_missing_bindings"),
    # Repair imports the resolver from its home module at call time.
    ("core.binding_resolution", "repro.core.binding_resolution",
     "resolve_missing_bindings"),
    ("conditions.recertify", "repro.core.engine",
     "GlobalQueryEngine.recertify"),
    ("sim.run", "repro.sim.taskgraph", "FederationSim.run"),
    ("core.report", "repro.core.report", "ExecutionReport.from_result"),
    ("difftest.digest", "repro.traffic.driver", "answer_digest"),
    ("system.write", "repro.core.system",
     "DistributedSystem.register_entity"),
    ("engine.self", "repro.core.engine", "GlobalQueryEngine.execute"),
    ("engine.self", "repro.core.session", "EngineSession.execute"),
    ("traffic.self", "repro.traffic.driver", "TrafficEngine.run"),
)

#: Every concrete ``Strategy.execute`` override is wrapped as this layer.
STRATEGY_LAYER = "strategies.self"

#: A span of this layer starts a new query (and gives it its id).
QUERY_LAYER = "engine.self"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([name for name, _, _ in TARGETS] + [STRATEGY_LAYER])
)


class LayerError(RuntimeError):
    """A layer's entry point is missing, or a layer that must work did not."""


class Tracer:
    """Records spans around the wrapped entry points while ``active``.

    ``op`` is set by the harness before each benchmark operation and
    ``in_prefix`` marks the operations whose counts are reported (the
    fixed, seed-determined part of a run).  ``reports`` collects
    ``(span index, report)`` for every finished query.
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.in_prefix = False
        # Span tuples: (layer, start_ns, end_ns, parent index, op, query).
        self.spans: List[Optional[tuple]] = []
        self.reports: List[Tuple[int, object]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._query: Optional[int] = None
        self._next_query = 0

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer_query = tracer._query
            if layer == QUERY_LAYER and outer_query is None:
                tracer._query = tracer._next_query
                tracer._next_query += 1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (
                    layer, start, end, parent, tracer.op, tracer._query
                )
                tracer._query = outer_query
            if layer == QUERY_LAYER and outer_query is None:
                tracer.reports.append((index, result))
            if after is not None and tracer.in_prefix:
                after(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        """Run reference computations without recording anything."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take_reports(self) -> List[Tuple[int, object]]:
        out, self.reports = self.reports, []
        return out

    def span_seconds(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1]) / 1e9

    def self_ns(self, factors: Dict[int, float]) -> Dict[str, float]:
        """Per-layer self time: span duration minus its children's.

        Each span's self time is scaled by the factor of its operation.
        """
        child: Dict[int, int] = {}
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] = child.get(span[3], 0) + span[2] - span[1]
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span[2] - span[1] - child.get(index, 0)
            out[span[0]] = out.get(span[0], 0) + own * factors[span[4]]
        return out

    def root_ns(self) -> int:
        """Wall time covered by top-level spans."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def calls(self, counted: Callable[[int], bool]) -> Dict[str, int]:
        """Calls per layer in the operations *counted* accepts."""
        out: Dict[str, int] = {}
        for span in self.spans:
            if counted(span[4]):
                out[span[0]] = out.get(span[0], 0) + 1
        return out

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = min((s[1] for s in self.spans), default=0)
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": s[0],
                    "start_us": (s[1] - base) / 1000.0,
                    "end_us": (s[2] - base) / 1000.0,
                    "parent": s[3], "op": s[4], "query": s[5],
                }) + "\n")


def _certify_stats(counters, args, kwargs, result) -> None:
    stats = args[5] if len(args) > 5 else kwargs.get("stats")
    if stats is None:
        raise LayerError("certify was called without a CertificationStats")
    eliminated = stats.eliminated_by_absence + stats.eliminated_by_violation
    resolved = eliminated + stats.promoted_to_certain
    counters["certify.resolved"] = counters.get(
        "certify.resolved", 0) + resolved
    counters["certify.outcomes"] = counters.get(
        "certify.outcomes", 0) + resolved + stats.remained_maybe


def _repair_counts(counters, args, kwargs, result) -> None:
    summary = result.repair_summary
    for key in ("promoted", "discharged"):
        name = f"recertify.{key}"
        counters[name] = counters.get(name, 0) + getattr(summary, key)


AFTER = {
    "core.certify": _certify_stats,
    "conditions.recertify": _repair_counts,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) of one target, or LayerError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerError(f"{module_name}: {exc}") from None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LayerError(f"{module_name}.{path}: no {part!r}")
    raw = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(
        attr
    )
    if raw is None:
        raise LayerError(f"{module_name}.{path}: entry point is gone")
    return owner, attr, raw


def _strategy_targets():
    from repro.core.strategies.base import Strategy
    import repro.core.strategies  # noqa: F401  (imports every strategy)

    seen, todo, out = set(), list(Strategy.__subclasses__()), []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if "execute" in cls.__dict__:
            out.append((cls, "execute", cls.__dict__["execute"]))
    if not out:
        raise LayerError("no Strategy subclass defines execute")
    return out


@contextmanager
def installed(tracer: Tracer, layers=None):
    """Wrap the entry points of *layers* (default: all) for the block."""
    layers = set(LAYERS if layers is None else layers)
    targets = [
        (name,) + _resolve(module, path)
        for name, module, path in TARGETS
        if name in layers
    ]
    if STRATEGY_LAYER in layers:
        targets += [(STRATEGY_LAYER,) + t for t in _strategy_targets()]
    patched = []
    try:
        for name, owner, attr, raw in targets:
            after = AFTER.get(name)
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, after))
            else:
                new = tracer.wrap(name, raw, after)
            setattr(owner, attr, new)
            patched.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
