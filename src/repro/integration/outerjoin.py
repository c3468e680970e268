"""Materializing global classes: outerjoin over GOids.

The centralized strategy ships every object of the local root and branch
classes to the global processing site, then integrates the constituent
extents of each global class with an *outerjoin over the join attribute
GOid* (paper, step CA_G2 and Figure 6):

* isomeric objects (same GOid) merge into one integrated object; an
  object with missing data "gets the data from its isomeric objects";
* LOids stored in complex attributes are translated to GOids;
* every object appears in the output even when it has no isomeric partner
  (that is what makes the join *outer*);
* multi-valued global attributes collect all distinct contributed values.

Sites ship column slices of their cached columnar views
(:class:`~repro.objectdb.columnar.ExportSlice`), and the join runs on
them: every exported row gets its GOid's rank, then each attribute is
merged over the slices' columns by rank.  The per-object merge this
replaces is the reference it must reproduce,
:func:`repro.difftest.rowpath.integrate_class_rows`.

Under faults the outerjoin may run over a *partial* materialization
(some export sites unreachable).  The centralized strategy then demotes
every answer row, attaching ``SiteDown`` condition atoms naming the
missing extents (:mod:`repro.conditions`); the re-certifier later
fetches only those extents, re-runs this integration on the completed
inputs, and promotes — without re-shipping the extents that arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import MappingError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import MappingCatalog, MappingTable
from repro.objectdb.columnar import ExportSlice
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject
from repro.objectdb.values import NULL, MultiValue, Value


@dataclass
class IntegrationStats:
    """Work performed by one class integration (for the cost model)."""

    objects_in: int = 0
    objects_out: int = 0
    comparisons: int = 0
    translations: int = 0

    def merge(self, other: "IntegrationStats") -> None:
        self.objects_in += other.objects_in
        self.objects_out += other.objects_out
        self.comparisons += other.comparisons
        self.translations += other.translations


#: One site's export of one class: a column slice (what
#: :meth:`~repro.objectdb.database.ComponentDatabase.scan_for_export`
#: ships) or, equivalently, the projected objects themselves.
SiteExport = Union[ExportSlice, Iterable[LocalObject]]


class SiteExports(Mapping[str, ExportSlice]):
    """Typed per-site export slices of one global class.

    Values are :class:`~repro.objectdb.columnar.ExportSlice` objects;
    a site given as objects is turned into a slice at construction
    (re-iterable, never mutated by the join), and :meth:`for_db`
    returns an empty slice for a site that shipped nothing.
    """

    __slots__ = ("_by_db",)

    def __init__(
        self, exports: Optional[Mapping[str, SiteExport]] = None
    ) -> None:
        self._by_db: Dict[str, ExportSlice] = {}
        if exports is not None:
            for db_name, shipped in exports.items():
                self._by_db[db_name] = (
                    shipped
                    if isinstance(shipped, ExportSlice)
                    else ExportSlice.of_objects(shipped)
                )

    @classmethod
    def coerce(cls, exports: Mapping[str, SiteExport]) -> "SiteExports":
        """Wrap a plain mapping (identity when already wrapped)."""
        if isinstance(exports, cls):
            return exports
        return cls(exports)

    def for_db(self, db_name: str) -> ExportSlice:
        """The slice *db_name* shipped — an empty one for absent sites."""
        return self._by_db.get(db_name, _EMPTY)

    def __getitem__(self, db_name: str) -> ExportSlice:
        return self._by_db[db_name]

    def __iter__(self):
        return iter(self._by_db)

    def __len__(self) -> int:
        return len(self._by_db)


_EMPTY = ExportSlice((), {})


class GlobalExtent:
    """Materialized global classes at the processing site."""

    def __init__(self) -> None:
        self._by_class: Dict[str, Dict[GOid, IntegratedObject]] = {}
        self._flat: Dict[GOid, IntegratedObject] = {}

    def install(self, class_name: str, objects: Dict[GOid, IntegratedObject]) -> None:
        self._by_class[class_name] = objects
        self._flat.update(objects)

    def extent(self, class_name: str) -> Dict[GOid, IntegratedObject]:
        return self._by_class.get(class_name, {})

    def deref(self, ref: Union[LOid, GOid]) -> Optional[IntegratedObject]:
        """Dereference a GOid (LOids never resolve in the global extent)."""
        if isinstance(ref, GOid):
            return self._flat.get(ref)
        return None

    def classes(self) -> Tuple[str, ...]:
        return tuple(self._by_class)

    def __len__(self) -> int:
        return len(self._flat)


def integrate_class(
    global_class: str,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports: Mapping[str, SiteExport],
    stats: Optional[IntegrationStats] = None,
) -> Dict[GOid, IntegratedObject]:
    """Outerjoin the exported constituent extents of *global_class*.

    Args:
        exports: db name -> the slice of the constituent class shipped
            from that site (already projected on query attributes); a
            plain mapping, objects in place of slices, or a
            :class:`SiteExports`.
        stats: optional accumulator for integration work.

    Every exported row gets its GOid's *rank*: the order of first
    appearance, visiting sites in the correspondence's constituent
    order and rows in export order.  The merge then runs attribute by
    attribute over the slices, each rank's contributors in that same
    order (Figure 6's policy):

    * a multi-valued attribute collects every non-null member;
    * otherwise the first non-null contributor wins (its first member,
      should it hold a multi-value);
    * complex-attribute LOids are rewritten to the GOid of their
      entity; a dangling local reference (never catalogued) merges as
      missing data.

    Results, ``sources``, *stats* and the mapping tables' probe counts
    are exactly those of the per-object reference,
    :func:`repro.difftest.rowpath.integrate_class_rows`: translations
    are charged only on contributors the merge visits (a single-valued
    attribute stops at its first contributor with a value).

    Raises:
        MappingError: when an exported object has no GOid in the catalog,
            or a complex attribute holds a non-reference value or has no
            domain class — the reference's first error, in (rank,
            attribute, contributor) order.  *stats* are then partial.
    """
    stats = stats if stats is not None else IntegrationStats()
    site_exports = SiteExports.coerce(exports)
    slices = [
        site_exports.for_db(db_name)
        for db_name in global_schema.databases_of(global_class)
    ]
    goids, ranks, sources = _rank(
        global_class, catalog.table(global_class), slices, stats
    )
    n = len(goids)
    values: List[Dict[str, Value]] = [{} for _ in range(n)]
    first_error: Optional[Tuple[int, MappingError]] = None
    for attr in global_schema.cls(global_class).attributes:
        name = attr.name
        domain = (
            catalog.table(attr.domain)
            if attr.is_complex and attr.domain is not None
            else None
        )
        columns = [
            (piece.columns[name], site_ranks)
            for piece, site_ranks in zip(slices, ranks)
            if name in piece.columns
        ]
        if not columns:
            continue
        if attr.is_complex:
            merged, error = _merge_references(
                columns, n, attr.multi_valued, domain, stats
            )
            # Attributes run in the reference's order, so only an error
            # at an earlier rank displaces the one already found.
            if error is not None and (
                first_error is None or error[0] < first_error[0]
            ):
                first_error = error
        elif attr.multi_valued:
            merged = _merge_all(columns, n)
        else:
            merged = _merge_first(columns, n)
        for rank, value in enumerate(merged):
            if value is not NULL:
                values[rank][name] = value
    if first_error is not None:
        raise first_error[1]
    stats.objects_out += n
    return {
        goid: IntegratedObject(goid, global_class, values[rank],
                               tuple(sources[rank]))
        for rank, goid in enumerate(goids)
    }


#: One attribute's column at one site, with each row's GOid rank.
RankedColumn = Tuple[Sequence[Value], List[int]]


def _rank(
    global_class: str,
    table: MappingTable,
    slices: List[ExportSlice],
    stats: IntegrationStats,
) -> Tuple[List[GOid], List[List[int]], List[List[LOid]]]:
    """Every row's GOid rank: one ``goid_of`` probe per exported row.

    Returns the GOids in rank order, each slice's per-row ranks and
    each rank's contributing LOids in visiting order.
    """
    # Keyed by the GOid's string: equal exactly when the GOids are,
    # and hashed once per string rather than once per probe.
    rank_of: Dict[str, int] = {}
    goids: List[GOid] = []
    sources: List[List[LOid]] = []
    ranks: List[List[int]] = []
    for piece in slices:
        site_ranks = []
        for loid, goid in zip(piece.loids, table.goids_of(piece.loids)):
            if goid is None:
                raise MappingError(
                    f"exported object {loid} of class {global_class!r} "
                    "has no GOid in the mapping catalog"
                )
            rank = rank_of.get(goid.value)
            if rank is None:
                rank = rank_of[goid.value] = len(goids)
                goids.append(goid)
                sources.append([loid])
            else:
                sources[rank].append(loid)
            site_ranks.append(rank)
        ranks.append(site_ranks)
        stats.objects_in += len(site_ranks)
        stats.comparisons += len(site_ranks)  # hash probe on the join attr
    return goids, ranks, sources


def _merge_first(columns: List[RankedColumn], n: int) -> List[Value]:
    """Single-valued primitive attribute: first non-null contributor."""
    merged: List[Value] = [NULL] * n
    for column, site_ranks in columns:
        for rank, value in zip(site_ranks, column):
            if value is not NULL and merged[rank] is NULL:
                if value.__class__ is MultiValue:
                    value = next(iter(value))
                merged[rank] = value
    return merged


def _merge_all(columns: List[RankedColumn], n: int) -> List[Value]:
    """Multi-valued primitive attribute: every non-null member."""
    buckets: List[Optional[List[Value]]] = [None] * n
    for column, site_ranks in columns:
        for rank, value in zip(site_ranks, column):
            if value is NULL:
                continue
            bucket = buckets[rank]
            if bucket is None:
                bucket = buckets[rank] = []
            if value.__class__ is MultiValue:
                bucket.extend(value)
            else:
                bucket.append(value)
    return [NULL if b is None else MultiValue(b) for b in buckets]


def _merge_references(
    columns: List[RankedColumn],
    n: int,
    multi_valued: bool,
    domain: Optional[MappingTable],
    stats: IntegrationStats,
) -> Tuple[List[Value], Optional[Tuple[int, MappingError]]]:
    """Complex attribute: members translated to GOids, then merged.

    Returns the merged column and the first error as ``(rank, error)``
    — the lowest failing rank, at its first failing contributor.
    """
    buckets: List[Optional[List[Value]]] = [None] * n
    failed: Dict[int, MappingError] = {}
    for column, site_ranks in columns:
        for rank, value in zip(site_ranks, column):
            if value is NULL or rank in failed:
                continue
            if not multi_valued and buckets[rank] is not None:
                continue  # a single value is already merged
            collected: List[Value] = []
            members = value if value.__class__ is MultiValue else (value,)
            for member in members:
                if isinstance(member, GOid):
                    collected.append(member)
                    continue
                if not isinstance(member, LOid):
                    failed[rank] = MappingError(
                        "complex attribute holds non-reference "
                        f"value {member!r}"
                    )
                    break
                if domain is None:
                    failed[rank] = MappingError(
                        "complex attribute without a domain class"
                    )
                    break
                stats.translations += 1
                stats.comparisons += 1  # mapping-table probe
                translated = domain.goid_of(member)
                if translated is not None:  # dangling -> missing data
                    collected.append(translated)
            if collected and rank not in failed:
                bucket = buckets[rank]
                if bucket is None:
                    buckets[rank] = collected
                else:
                    bucket.extend(collected)
    if multi_valued:
        merged = [NULL if b is None else MultiValue(b) for b in buckets]
    else:
        merged = [NULL if b is None else b[0] for b in buckets]
    error = None
    if failed:
        rank = min(failed)
        error = (rank, failed[rank])
    return merged, error


def materialize(
    global_classes: Iterable[str],
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports_by_class: Mapping[str, Mapping[str, SiteExport]],
    stats: Optional[IntegrationStats] = None,
) -> GlobalExtent:
    """Integrate several global classes into one :class:`GlobalExtent`."""
    extent = GlobalExtent()
    for class_name in global_classes:
        integrated = integrate_class(
            class_name,
            global_schema,
            catalog,
            exports_by_class.get(class_name, {}),
            stats,
        )
        extent.install(class_name, integrated)
    return extent
