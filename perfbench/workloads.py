"""The benchmark's workloads: traffic-bl, ca-hotset and churn-pl.

All three run on the same federation, ``make_workload(1996, scale=0.1)``
(3 sites, about 1.35k entities per class), and draw their queries from
the point/scan/paper template mix at 4:2:1.  The benchmark seed decides
only the generated inputs: query constants, order, faults and writes.
Each workload keeps what it needs to check the answers afterwards; the
engine only ever sees the inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import time
import traceback
from typing import Dict, List, Tuple

from bench import OpResult, Sample

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import certified_subset
from repro.difftest.oracle import answer_digest
from repro.faults import FaultPlan
from repro.objectdb.ids import LOid
from repro.traffic import AdmissionControl, TrafficEngine, default_mix
from repro.traffic.templates import INT_UNIFORM
from repro.workload.generator import generate
from repro.workload.params import sample_params

FEDERATION_SEED = 1996
SCALE = 0.1
#: Template weights of the mix (point lookups, range scans, the paper's
#: query with re-drawn thresholds).
MIX = {"point": 4.0, "scan": 2.0, "paper": 1.0}
WEIGHTS = {name: w / sum(MIX.values()) for name, w in MIX.items()}


def stream(seed: int, *scope: object) -> random.Random:
    """An independent RNG for one named input stream of *seed*."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def federation():
    """The generated workload every benchmark workload runs on."""
    rng = random.Random(FEDERATION_SEED)
    params = sample_params(rng)
    params.seed = FEDERATION_SEED
    return generate(params, scale=SCALE)


def deck(mix, rng: random.Random) -> list:
    """Bound queries in exact mix proportions (4 point, 2 scan, 1 paper)."""
    templates = {e.template.name: e.template for e in mix.entries}
    return [
        templates[name].instantiate(rng)
        for name, count in MIX.items()
        for _ in range(int(count))
    ]


def stratified(template, n: int, rng: random.Random) -> list:
    """*n* bindings of *template* that cover each uniform parameter evenly.

    Every such parameter's range is cut into *n* equal slices, each
    binding draws from a different slice, and slices of different
    parameters are paired at random (a Latin hypercube), so pools drawn
    from two seeds have the same spread of selectivities.
    """
    slices = {
        spec.name: rng.sample(range(n), n)
        for spec in template.params if spec.kind == INT_UNIFORM
    }

    def narrowed(spec, k):
        if spec.name not in slices:
            return spec
        width, part = spec.high - spec.low, slices[spec.name][k]
        return dataclasses.replace(
            spec, low=spec.low + width * part // n,
            high=spec.low + width * (part + 1) // n,
        )

    return [
        dataclasses.replace(
            template, params=tuple(narrowed(p, k) for p in template.params)
        ).instantiate(rng)
        for k in range(n)
    ]


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Shared bookkeeping; subclasses define set-up, one op and checks."""

    name = ""
    strategy = ""
    #: Operations always run; counts and digests come from these only.
    prefix_ops = 0
    weights = WEIGHTS

    def reset(self) -> None:
        """Drop the previous set-up so it is freed before the next."""
        self.__dict__.clear()
        self.digests: List[str] = []
        self.inputs: List[str] = []

    def _build(self, seed: int, options=None) -> None:
        """Generate the federation, build the engine and warm it up.

        The warm-up runs one deck from its own seed stream, so the lazy
        columnar extents exist before timing but none of the measured
        queries is cached yet.
        """
        self.seed = seed
        workload = federation()
        self.system = workload.system
        self.mix = default_mix(workload, MIX)
        self.engine = GlobalQueryEngine(
            self.system, default_strategy=self.strategy, options=options
        )
        rng = stream(seed, "warmup")
        for n, bound in enumerate(deck(self.mix, rng)):
            self._warm_up(bound.query, n, rng)

    def _warm_up(self, query, n: int, rng: random.Random) -> None:
        self.engine.execute(query)

    def inputs_fingerprint(self) -> str:
        return hashlib.sha256("\n".join(self.inputs).encode()).hexdigest()


class TrafficBL(Workload):
    """BL under the traffic engine, constants redrawn for every query.

    One operation is one traffic run of ``BATCH`` queries from 4
    simulated workers behind smooth-4 admission; runs share the
    federation, so its caches grow from run to run.
    """

    name = "traffic-bl"
    strategy = "BL"
    #: Queries per traffic run; short runs keep host-speed calibrations
    #: close together (see bench.HostSpeed).
    BATCH = 14
    prefix_ops = 16
    ADMISSION = AdmissionControl(max_in_flight=8, queue_depth=32)

    def _traffic(self, scope: str, total: int) -> TrafficEngine:
        return TrafficEngine(
            self.system, self.mix, workers=4, total_queries=total,
            seed=stream(self.seed, scope).getrandbits(63),
            strategy=self.strategy, admission=self.ADMISSION,
        )

    def setup(self, seed: int) -> None:
        self._build(seed)
        self.runs: List[Tuple[TrafficEngine, object]] = []

    def op(self, i: int, tracer) -> OpResult:
        traffic = self._traffic(f"batch-{i}", self.BATCH)
        templates = {
            str(b.query): b.template
            for worker in range(traffic.workers)
            for b in traffic.replay_worker(worker)
        }
        start = time.perf_counter()
        report = traffic.run()
        timed = time.perf_counter() - start
        self.runs.append((traffic, report))
        if i < self.prefix_ops:
            self.inputs.extend(sorted(templates))
            self.digests.extend(r.digest for r in report.records)
        return OpResult(timed, [
            Sample.of(templates[rep.query_text], i,
                      tracer.span_seconds(span), rep)
            for span, rep in tracer.take_reports()
        ])

    def verify(self) -> Tuple[int, int]:
        """The traffic engine's serial verification of every run."""
        attempted = failed = 0
        for traffic, report in self.runs:
            traffic._verify_serial(report)
            attempted += len(report.records)
            failed += report.shed + len(report.violations)
            failed += report.completed - report.verified
        return attempted, failed


class CaHotset(Workload):
    """CA over a small fixed pool of SQL/X texts, in seeded order."""

    name = "ca-hotset"
    strategy = "CA"
    #: Pool size per template (4:2:1, 35 distinct queries).
    POOL = {"point": 20, "scan": 10, "paper": 5}
    prefix_ops = 70

    def setup(self, seed: int) -> None:
        self._build(seed)
        templates = {e.template.name: e.template for e in self.mix.entries}
        rng = stream(seed, "pool")
        self.pool: List[Tuple[str, str]] = [
            (str(bound.query), name)
            for name, count in self.POOL.items()
            for bound in stratified(templates[name], count, rng)
        ]
        self.order: List[int] = []
        self.answers: List[Tuple[int, str]] = []
        self.failed = 0

    def op(self, i: int, tracer) -> OpResult:
        rounds, k = divmod(i, len(self.pool))
        if k == 0:
            self.order = list(range(len(self.pool)))
            stream(self.seed, "order", rounds).shuffle(self.order)
        index = self.order[k]
        text, template = self.pool[index]
        start = time.perf_counter()
        try:
            report = self.engine.execute(text)
        except Exception:
            timed = time.perf_counter() - start
            _report_failure(f"CA query {text!r}")
            self.failed += 1
            tracer.take_reports()
            return OpResult(timed)
        timed = time.perf_counter() - start
        (span, _), = tracer.take_reports()
        digest = answer_digest(report.results)
        self.answers.append((index, digest))
        if i < self.prefix_ops:
            self.inputs.append(text)
            self.digests.append(digest)
        return OpResult(timed, [
            Sample.of(template, i, tracer.span_seconds(span), report)
        ])

    def verify(self) -> Tuple[int, int]:
        """Every CA answer must equal BL's, computed on a fresh engine."""
        reference = GlobalQueryEngine(self.system)
        expected = {
            index: answer_digest(
                reference.execute(self.pool[index][0], "BL").results
            )
            for index in sorted({index for index, _ in self.answers})
        }
        wrong = sum(d != expected[index] for index, d in self.answers)
        return len(self.answers) + self.failed, wrong + self.failed


class ChurnPL(Workload):
    """PL with entity writes, single-site loss and answer repair.

    Every ``WRITE_EVERY``-th operation registers a new root entity.  Of
    the queries of each template, every second one runs with one
    component site down for the whole execution (policy ``degrade``,
    failover and conditions on); a degraded answer is then repaired with
    ``recertify`` on the healed federation.
    """

    name = "churn-pl"
    strategy = "PL"
    WRITE_EVERY = 10
    #: Templates of the queries that follow the writes, in turn.  The
    #: query after a write pays the extent rebuild; cycling it through
    #: the mix gives every seed the same share of rebuilds per template.
    AFTER_WRITE = ("point", "scan", "point", "paper", "point", "scan",
                   "point")
    prefix_ops = 200
    OPTIONS = ExecutionOptions(policy="degrade", failover=True,
                               conditions=True)

    def setup(self, seed: int) -> None:
        self._build(seed, self.OPTIONS)
        self.sites = sorted(self.system.databases)
        self.templates = {e.template.name: e.template
                          for e in self.mix.entries}
        self.root = self.mix.entries[0].template.range_class
        self.faulted: Dict[str, int] = {}
        self.queries = 0
        self.failed = 0
        self.wrong = 0

    def _warm_up(self, query, n: int, rng: random.Random) -> None:
        report = self.engine.execute(
            query, options=self._faulted(rng) if n % 2 else None
        )
        if not report.availability.complete:
            self.engine.recertify(report)

    def _faulted(self, rng: random.Random) -> ExecutionOptions:
        site = rng.choice(sorted(self.system.databases))
        fault_seed = rng.getrandbits(32)
        return self.OPTIONS.with_(
            fault_plan=FaultPlan.single_site_loss(site, seed=fault_seed),
            fault_seed=fault_seed,
        )

    def _entity(self, rng: random.Random, key: int):
        """Copies of a new root entity, modelled on an existing one."""
        home = rng.choice(self.sites)
        local = self.system.global_schema.constituent_class(home, self.root)
        model = rng.choice(list(self.system.db(home).extent(local).values()))
        values = dict(model.values, key=key)
        ref = values.get("ref")
        if isinstance(ref, LOid):
            domain = self.system.global_schema.cls(self.root).attribute(
                "ref").domain
            values["ref"] = self.system.catalog.goid_of(domain, ref)
        homes = [home] + [
            s for s in self.sites if s != home and rng.random() < 0.25
        ]
        return {site: values for site in homes}

    def op(self, i: int, tracer) -> OpResult:
        rng = stream(self.seed, "op", i)
        rounds, phase = divmod(i, self.WRITE_EVERY)
        if phase == self.WRITE_EVERY - 1:
            copies = self._entity(rng, 10_000_000 + i)
            start = time.perf_counter()
            self.system.register_entity(self.root, copies)
            timed = time.perf_counter() - start
            if i < self.prefix_ops:
                self.inputs.append(repr(sorted(copies.items())))
            return OpResult(timed, writes=[timed])
        if phase == 0 and rounds > 0:
            name = self.AFTER_WRITE[(rounds - 1) % len(self.AFTER_WRITE)]
            template = self.templates[name]
        else:
            template = self.mix.choose(rng)
        bound = template.instantiate(rng)
        n = self.faulted.get(bound.template, 0)
        self.faulted[bound.template] = n + 1
        options = self._faulted(rng) if n % 2 else None
        self.queries += 1
        start = time.perf_counter()
        try:
            report = self.engine.execute(bound.query, options=options)
            executed = time.perf_counter()
            repaired = None
            if not report.availability.complete:
                repaired = self.engine.recertify(report)
            end = time.perf_counter()
        except Exception:
            _report_failure(f"PL query {bound.query}")
            self.failed += 1
            tracer.take_reports()
            return OpResult(time.perf_counter() - start)
        (span, _), = tracer.take_reports()
        sample = Sample.of(bound.template, i, tracer.span_seconds(span),
                           report)
        sample.extra_s = end - executed
        if repaired is not None:
            with tracer.paused():
                baseline = self.engine.execute(bound.query)
            expected = answer_digest(baseline.results)
            if (answer_digest(repaired.results) != expected
                    or not certified_subset(report.results,
                                            baseline.results)):
                self.wrong += 1
        if i < self.prefix_ops:
            self.inputs.append(f"{bound.query} | {options}")
            self.digests.append(answer_digest(report.results))
            if repaired is not None:
                self.digests.append(answer_digest(repaired.results))
        return OpResult(
            end - start, [sample],
            repairs=[end - executed] if repaired is not None else [],
        )

    def verify(self) -> Tuple[int, int]:
        """Repairs were checked as they ran, against fault-free answers."""
        return self.queries, self.failed + self.wrong


WORKLOADS = {w.name: w for w in (TrafficBL, CaHotset, ChurnPL)}
