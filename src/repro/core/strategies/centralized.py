"""CA — the centralized approach (phase order O -> I -> P).

Every object of the local root and branch classes is shipped to the
global processing site (projected on the LOid and the attributes the
query involves, step CA_C1).  The site outerjoins the constituent extents
of each global class over GOid (phases O and I fused, step CA_G2) and
evaluates the predicates on the materialized global classes (phase P,
step CA_G3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.conditions.algebra import NullAttr, SiteDown, attach
from repro.conditions.reasons import DegradationReason
from repro.core.decompose import attributes_needed
from repro.core.predicates import EvalMeter, evaluate_dnf, walk_path
from repro.core.query import Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.strategies.base import Strategy, StrategyResult, fault_wait_chain
from repro.core.system import DistributedSystem
from repro.core.tvl import TV
from repro.faults.injector import ExecutionContext
from repro.integration.outerjoin import IntegrationStats, materialize
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import NULL
from repro.obs.spans import TraceEvent
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import PHASE_I, PHASE_P, PHASE_SCAN


def evaluate_global_extent(
    query: Query,
    extent,
    meter: Optional[EvalMeter] = None,
    conditions: bool = True,
) -> ResultSet:
    """Step CA_G3: evaluate the query over a materialized global extent.

    Pure over its inputs, which is what makes CA repair cheap: the
    re-certifier re-materializes with the recovered exports merged in
    and calls this again — no site re-evaluates anything.  With
    *conditions*, maybe rows carry ``NullAttr`` atoms (site ``""``: the
    null was observed on the fused global object, not at one site).
    """
    meter = meter if meter is not None else EvalMeter()
    results = ResultSet(targets=query.targets)
    for goid in sorted(
        extent.extent(query.range_class), key=lambda g: g.value
    ):
        obj = extent.extent(query.range_class)[goid]
        outcome = evaluate_dnf(obj, query.where, extent.deref, meter)
        if outcome.tv is TV.FALSE:
            continue
        bindings = {}
        for target in query.targets:
            walk = walk_path(obj, target, extent.deref, meter)
            bindings[target] = NULL if walk.is_missing else walk.value
        if outcome.tv is TV.TRUE:
            results.add(
                GlobalResult(
                    goid=goid, kind=ResultKind.CERTAIN, bindings=bindings
                )
            )
        else:
            unsolved = tuple(o.predicate for o in outcome.unsolved)
            result = GlobalResult(
                goid=goid,
                kind=ResultKind.MAYBE,
                bindings=bindings,
                unsolved=unsolved,
            )
            if conditions:
                attach(result, *(
                    NullAttr(site="", goid=goid, attr=str(p))
                    for p in unsolved
                ))
            results.add(result)
    return results


def demote_outerjoin_incomplete(
    results: ResultSet,
    skipped_sites: Iterable[str],
    conditions: bool = True,
) -> int:
    """Degraded-answer semantics of a partial CA materialization.

    CA fuses every shipped extent into one outerjoin, erasing per-site
    provenance: with any extent missing, a TRUE predicate can rest on an
    incomplete materialization, so no row can be soundly *certified* —
    every certain result demotes to maybe.  With *conditions*, a
    ``SiteDown`` atom per skipped site lands on **all** rows (existing
    maybes included: their missing values may equally stem from the
    unshipped extent), which is what lets repair later re-materialize
    from exactly the named sites.  Returns the number of demoted rows.
    """
    skipped = sorted(skipped_sites)
    note = str(DegradationReason.outerjoin_incomplete(skipped))
    demoted = results.certain
    results.certain = []
    for result in demoted:
        result.kind = ResultKind.MAYBE
        result.notes = result.notes + (note,)
        results.maybe.append(result)
    if conditions:
        atoms = [SiteDown(site=site) for site in skipped]
        for result in results.maybe:
            attach(result, *atoms)
    return len(demoted)


class CentralizedStrategy(Strategy):
    """The paper's algorithm CA."""

    name = "CA"

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
    ) -> StrategyResult:
        query.validate(system.global_schema.schema)
        fed = system.simulator(ctx.plan)
        work = WorkCounters()
        cost = system.cost_model
        fault_events: List[TraceEvent] = []
        skipped_sites: List[str] = []

        involved_classes = (query.range_class,) + query.branch_classes(
            system.global_schema.schema
        )

        # --- step CA_C1: each site retrieves, projects and ships extents ---
        exports_by_class: Dict[str, Dict[str, List[LocalObject]]] = {
            cls: {} for cls in involved_classes
        }
        ship_nodes = []
        for db_name, db in system.databases.items():
            negotiation = ctx.contact(system.global_site, db_name)
            entry_deps = fault_wait_chain(fed, ctx, negotiation, fault_events)
            if not negotiation.ok:
                # The extent never ships: the fused outerjoin will run
                # over a partial materialization.
                skipped_sites.append(db_name)
                fault_events.append(
                    TraceEvent.of(
                        "fault.site_skipped",
                        site=db_name,
                        reason=negotiation.reason,
                        attempts=len(negotiation.attempts),
                    )
                )
                continue
            site_bytes = 0
            site_objects = 0
            shipped: List[Tuple[str, List[LocalObject]]] = []
            for global_class in involved_classes:
                local_class = system.global_schema.constituent_class(
                    db_name, global_class
                )
                if local_class is None:
                    continue
                needed = attributes_needed(
                    query, system.global_schema, global_class
                )
                local_needed = tuple(
                    a
                    for a in needed
                    if db.schema.cls(local_class).has_attribute(a)
                )
                objs = db.scan_for_export(local_class, local_needed)
                exports_by_class[global_class][db_name] = objs
                obj_bytes = cost.object_bytes(len(local_needed))
                site_bytes += len(objs) * obj_bytes
                site_objects += len(objs)
                shipped.append((global_class, objs))
            if not shipped:
                continue
            work.objects_scanned += site_objects
            work.objects_shipped += site_objects
            work.bytes_disk += site_bytes
            work.bytes_network += site_bytes
            work.messages += 1
            scan = fed.disk(
                db_name,
                nbytes=site_bytes,
                label=f"CA_C1 scan@{db_name}",
                phase=PHASE_SCAN,
                deps=entry_deps,
            )
            project = fed.cpu(
                db_name,
                comparisons=site_objects,
                label=f"CA_C1 project@{db_name}",
                phase=PHASE_SCAN,
                deps=[scan],
            )
            ship_nodes.append(
                fed.transfer(
                    db_name,
                    system.global_site,
                    nbytes=site_bytes,
                    label="CA_C1 ship",
                    deps=[project],
                )
            )

        # --- step CA_G2: outerjoin over GOid at the global site (O + I) ----
        stats = IntegrationStats()
        extent = materialize(
            involved_classes,
            system.global_schema,
            system.catalog,
            exports_by_class,
            stats,
            columnar=ctx.options.columnar,
        )
        work.comparisons += stats.comparisons
        integrate = fed.cpu(
            system.global_site,
            comparisons=stats.comparisons,
            label="CA_G2 outerjoin",
            phase=PHASE_I,
            deps=ship_nodes,
        )

        # --- step CA_G3: evaluate predicates on materialized classes (P) ---
        use_conditions = ctx.options.conditions
        meter = EvalMeter()
        results = evaluate_global_extent(
            query, extent, meter, conditions=use_conditions
        )
        work.comparisons += meter.comparisons
        fed.cpu(
            system.global_site,
            comparisons=meter.comparisons,
            label="CA_G3 evaluate",
            phase=PHASE_P,
            deps=[integrate],
        )

        # --- degraded-answer semantics under site loss ---------------------
        repair_state = None
        if skipped_sites:
            demoted = demote_outerjoin_incomplete(
                results, skipped_sites, conditions=use_conditions
            )
            fault_events.append(
                TraceEvent.of(
                    "fault.degraded",
                    strategy=self.name,
                    demoted=demoted,
                    sites_skipped=",".join(sorted(skipped_sites)),
                )
            )
            if use_conditions:
                from repro.conditions.recertify import (
                    CentralizedRepairState,
                )

                repair_state = CentralizedRepairState(
                    query=query,
                    columnar=ctx.options.columnar,
                    involved_classes=involved_classes,
                    exports_by_class=exports_by_class,
                    skipped_sites=tuple(sorted(skipped_sites)),
                )
                fault_events.append(
                    TraceEvent.of(
                        "conditions.attached",
                        strategy=self.name,
                        sites=",".join(sorted(skipped_sites)),
                        rows=len(results.maybe),
                    )
                )

        work.retries = ctx.retries
        work.timeouts = ctx.timeouts
        work.messages_lost = ctx.messages_lost

        outcome_sim = fed.run()
        metrics = ExecutionMetrics.from_outcome(
            self.name,
            outcome_sim,
            work,
            certain_results=len(results.certain),
            maybe_results=len(results.maybe),
            events=[TraceEvent.of(
                "ca.integrate",
                classes=len(involved_classes),
                objects_shipped=work.objects_shipped,
                outerjoin_comparisons=stats.comparisons,
            )] + fault_events,
            fault_windows=ctx.plan.fault_windows(fed.sites),
        )
        return StrategyResult(
            results=results.sort(),
            metrics=metrics,
            availability=ctx.availability(),
            repair=repair_state,
        )
