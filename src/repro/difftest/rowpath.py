"""The per-object row path as a test double: the kernels' reference.

Every :class:`~repro.objectdb.database.ComponentDatabase` entry point
tries its columnar kernel first and runs the per-object row evaluator
only where the kernel cannot (error-marker rows, unhashable operands,
LOids outside the class extent).  The row evaluator is also the
reference the kernels must reproduce byte for byte.  This module
reaches it without an engine option: :class:`RowPathDatabase` is a view
of a database whose kernel attempts always decline, and
:func:`row_path_view` swaps such views into a copy of a federation.
CA's step CA_G3 runs on the kernels only; its per-object reference is
:func:`evaluate_global_extent_rows`.

The oracle's ``columnar`` invariant, the hot-path bench's row cells and
the kernel parity tests all compare a federation against its row-path
view (and CA_G3 against :func:`evaluate_global_extent_rows`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.conditions.algebra import NullAttr, attach
from repro.core.predicates import EvalMeter, evaluate_dnf, walk_path
from repro.core.query import Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.system import DistributedSystem
from repro.core.tvl import TV
from repro.integration.outerjoin import GlobalExtent
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.values import NULL


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
