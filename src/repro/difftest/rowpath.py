"""The per-object row path as a test double: the kernels' reference.

Every :class:`~repro.objectdb.database.ComponentDatabase` entry point
tries its columnar kernel first and runs the per-object row evaluator
only where the kernel cannot (error-marker rows, unhashable operands,
LOids outside the class extent).  The row evaluator is also the
reference the kernels must reproduce byte for byte.  This module
reaches it without an engine option: :class:`RowPathDatabase` is a view
of a database whose kernel attempts always decline, and
:func:`row_path_view` swaps such views into a copy of a federation.
CA runs on columns only; its per-object references are
:func:`materialize_query_rows` (steps CA_C1 and CA_G2: projected
objects merged group by group in :func:`integrate_class_rows`) and
:func:`evaluate_global_extent_rows` (step CA_G3).

The oracle's ``columnar`` invariant, the hot-path bench's row cells and
the kernel parity tests all compare a federation against its row-path
view (and CA against these references).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional

from repro.conditions.algebra import NullAttr, attach
from repro.core.predicates import EvalMeter, evaluate_dnf, walk_path
from repro.core.query import Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.strategies.centralized import export_targets
from repro.core.system import DistributedSystem
from repro.core.tvl import TV
from repro.errors import MappingError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import MappingCatalog
from repro.integration.outerjoin import GlobalExtent, IntegrationStats
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject
from repro.objectdb.values import NULL, MultiValue, Value, is_null


class RowPathDatabase(ComponentDatabase):
    """A database view that always evaluates on the per-object row path.

    The view shares the original's whole state (extents, indexes,
    ``data_version``, cached columnar extents), so writes through
    either side are seen by both.  Its kernel attempts return ``None``,
    so it never builds or reads a columnar extent itself.
    """

    @classmethod
    def view(cls, db: ComponentDatabase) -> "RowPathDatabase":
        view = cls.__new__(cls)
        view.__dict__ = db.__dict__
        return view

    def _execute_local_columnar(self, query):
        return None

    def _collect_unsolved_columnar(self, query):
        return None

    def _check_assistants_columnar(self, request):
        return None


def row_path_view(system: DistributedSystem) -> DistributedSystem:
    """*system* with every database replaced by its row-path view.

    Everything else (schemas, mapping catalog, caches, signature and
    evolution state) is shared with *system*.
    """
    return dataclasses.replace(
        system,
        databases={
            name: RowPathDatabase.view(db)
            for name, db in system.databases.items()
        },
    )


def export_rows(
    system: DistributedSystem, query: Query
) -> Dict[str, Dict[str, List[LocalObject]]]:
    """Step CA_C1 at every site, one projected object copy per object.

    global class -> site -> the objects the site ships, each restricted
    to the LOid and the attributes of its
    :func:`~repro.core.strategies.centralized.export_targets` entry.
    """
    involved = (query.range_class,) + query.branch_classes(
        system.global_schema.schema
    )
    exports: Dict[str, Dict[str, List[LocalObject]]] = {
        cls: {} for cls in involved
    }
    for db_name, db in system.databases.items():
        for global_class, local_class, attrs in export_targets(
            system, db_name, query, involved
        ):
            exports[global_class][db_name] = [
                LocalObject(
                    obj.loid,
                    obj.class_name,
                    {a: obj.values[a] for a in attrs if a in obj.values},
                )
                for obj in db.extent(local_class).values()
            ]
    return exports


def materialize_query_rows(
    system: DistributedSystem,
    query: Query,
    stats: Optional[IntegrationStats] = None,
) -> GlobalExtent:
    """Steps CA_C1 and CA_G2 one object at a time, every site reachable.

    The reference :func:`~repro.core.strategies.centralized.
    materialize_query` must reproduce: the same extent, *stats* and
    mapping-table probe counts.
    """
    exports = export_rows(system, query)
    return materialize_rows(
        tuple(exports), system.global_schema, system.catalog, exports, stats
    )


def materialize_rows(
    global_classes: Iterable[str],
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports_by_class: Mapping[str, Mapping[str, Iterable[LocalObject]]],
    stats: Optional[IntegrationStats] = None,
) -> GlobalExtent:
    """:func:`~repro.integration.outerjoin.materialize` on the reference."""
    extent = GlobalExtent()
    for class_name in global_classes:
        extent.install(class_name, integrate_class_rows(
            class_name,
            global_schema,
            catalog,
            exports_by_class.get(class_name, {}),
            stats,
        ))
    return extent


def integrate_class_rows(
    global_class: str,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports: Mapping[str, Iterable[LocalObject]],
    stats: Optional[IntegrationStats] = None,
) -> Dict[GOid, IntegratedObject]:
    """Step CA_G2 one GOid group at a time: the column merge's reference.

    Groups the exported objects by GOid (sites in constituent order,
    objects in export order), then merges each group attribute by
    attribute, contributor by contributor, with the policy of
    :func:`~repro.integration.outerjoin.integrate_class`; the first
    error raised is the first in (group, attribute, contributor) order.
    """
    stats = stats if stats is not None else IntegrationStats()
    table = catalog.table(global_class)
    cdef = global_schema.cls(global_class)

    grouped: Dict[GOid, List[LocalObject]] = {}
    for db_name in global_schema.databases_of(global_class):
        for obj in exports.get(db_name, ()):
            stats.objects_in += 1
            stats.comparisons += 1  # hash probe on the join attribute
            goid = table.goid_of(obj.loid)
            if goid is None:
                raise MappingError(
                    f"exported object {obj.loid} of class {global_class!r} "
                    "has no GOid in the mapping catalog"
                )
            grouped.setdefault(goid, []).append(obj)

    domains = [
        catalog.table(attr.domain)
        if attr.is_complex and attr.domain is not None
        else None
        for attr in cdef.attributes
    ]
    integrated: Dict[GOid, IntegratedObject] = {}
    for goid, contributors in grouped.items():
        values: Dict[str, Value] = {}
        for attr, domain_table in zip(cdef.attributes, domains):
            collected: List[Value] = []
            for obj in contributors:
                raw = obj.get(attr.name)
                if is_null(raw):
                    continue
                members = (
                    list(raw) if isinstance(raw, MultiValue) else [raw]
                )
                for member in members:
                    if not attr.is_complex or isinstance(member, GOid):
                        collected.append(member)
                        continue
                    if not isinstance(member, LOid):
                        raise MappingError(
                            "complex attribute holds non-reference "
                            f"value {member!r}"
                        )
                    if domain_table is None:
                        raise MappingError(
                            "complex attribute without a domain class"
                        )
                    stats.translations += 1
                    stats.comparisons += 1  # mapping-table probe
                    translated = domain_table.goid_of(member)
                    if translated is not None:  # dangling -> missing
                        collected.append(translated)
                if collected and not attr.multi_valued:
                    break  # first non-null contributor wins
            if collected:
                values[attr.name] = (
                    MultiValue(collected)
                    if attr.multi_valued
                    else collected[0]
                )
        integrated[goid] = IntegratedObject(
            goid=goid,
            class_name=global_class,
            values=values,
            sources=tuple(obj.loid for obj in contributors),
        )
        stats.objects_out += 1
    return integrated


def evaluate_global_extent_rows(
    query: Query,
    extent: GlobalExtent,
    meter: Optional[EvalMeter] = None,
    conditions: bool = True,
) -> ResultSet:
    """Step CA_G3 one global object at a time, in GOid order.

    The reference the kernel,
    :func:`~repro.core.strategies.centralized.evaluate_global_extent`,
    must reproduce: the same rows, ``NullAttr`` atoms, *meter* charges
    and first exception.
    """
    meter = meter if meter is not None else EvalMeter()
    results = ResultSet(targets=query.targets)
    members = extent.extent(query.range_class)
    for goid in sorted(members, key=lambda g: g.value):
        obj = members[goid]
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
