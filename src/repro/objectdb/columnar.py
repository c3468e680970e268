"""Columnar extent views: per-attribute parallel arrays + batch 3VL kernels.

The row path (:mod:`repro.objectdb.database`) evaluates predicates one
object at a time, re-walking every path expression and allocating a
:class:`~repro.core.predicates.PathOutcome` per (object, predicate)
occurrence.  A :class:`ColumnarRows` view over a row list and a deref
function turns those per-object walks into *columns*:

* :meth:`ColumnarRows.column` — one parallel array per attribute with an
  explicit null bitmap (bit ``r`` set when row ``r`` is NULL), the paper's
  3VL missing-data marker in columnar form;
* :meth:`ColumnarRows.walk` — a :class:`WalkColumn` materializing one
  path expression over every row at once (final values, per-row missing
  locations, per-row deref counts), extending the cached column of
  objects its path prefix reaches;
* :meth:`ColumnarRows.predicate_column` — a :class:`PredicateColumn` of
  packed truth codes (``TRUE=2 / UNKNOWN=1 / FALSE=0``) so conjunction is
  elementwise ``min`` and disjunction elementwise ``max`` — exactly
  Kleene's strong 3VL;
* :meth:`ColumnarRows.dnf_summary` — the whole ``Where`` clause reduced
  to one code array plus per-row comparison/deref charge arrays.

Two views share these builders: :class:`ColumnarExtent`, the cached,
versioned view of one stored class extent behind every
:class:`~repro.objectdb.database.ComponentDatabase` kernel, and the
per-call view CA_G3 builds over a materialized global extent
(:func:`repro.core.strategies.centralized.evaluate_global_extent`).

Transparency contract
---------------------

The columnar path must be *byte-identical* to the row path: same rows,
same unsolved bookkeeping, same :class:`~repro.core.predicates.EvalMeter`
totals, and the same exceptions.  Two mechanisms keep that honest:

* charge arrays replicate the row path's metering per (row, occurrence),
  so aggregating them gives the exact row-path totals;
* a row whose evaluation would raise (non-reference mid-path, unorderable
  operands, ``CONTAINS`` on a scalar, ...) is recorded as an *error row*
  instead of raising eagerly.  A database entry point that would touch
  an error row abandons the columnar attempt and re-runs the unmodified
  row path, which raises the canonical exception in canonical order;
  CA_G3 raises the stored exception of the row path's first failing row
  itself.  Rows outside the candidate set may hold error markers
  harmlessly — the row path would never have evaluated them either.

Extent views are keyed by :attr:`ComponentDatabase.data_version`, which
every insert and every :meth:`ComponentDatabase.note_mutation` bumps, so
a stale column can never serve a query (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import operator
from operator import add, attrgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.predicates import AnyObject, Deref, EvalMeter, compare_values
from repro.core.query import Conjunction, Op, Path, Predicate
from repro.core.tvl import TV
from repro.errors import QueryError
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import UnsolvedPredicateOnObject
from repro.objectdb.values import NULL, MultiValue, Value, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objectdb.database import ComponentDatabase
    from repro.objectdb.objects import LocalObject

#: Packed truth codes: conjunction is ``min``, disjunction is ``max``.
FALSE_CODE = 0
UNKNOWN_CODE = 1
TRUE_CODE = 2

#: ``TV_OF_CODE[code]`` recovers the enum member from a packed code.
TV_OF_CODE = (TV.FALSE, TV.UNKNOWN, TV.TRUE)

#: ``CODE_OF_TV[tv]`` packs an enum member into its code.
CODE_OF_TV = {TV.FALSE: FALSE_CODE, TV.UNKNOWN: UNKNOWN_CODE, TV.TRUE: TRUE_CODE}

#: A missing location in columnar form: (depth, holder id, holder class);
#: the id is the holder's LOid in a stored extent, its GOid in a global one.
Miss = Tuple[int, Union[LOid, GOid], str]


class AttributeColumn:
    """One attribute over every row: parallel value array + null bitmap.

    ``null_bitmap`` has bit ``r`` set when row ``r``'s value is NULL (or
    an empty multi-value) — the explicit 3VL missingness marker.  Values
    at null rows are normalized to :data:`NULL`.
    """

    __slots__ = ("attribute", "values", "null_bitmap")

    def __init__(self, attribute: str, values: List[Value], null_bitmap: int):
        self.attribute = attribute
        self.values = values
        self.null_bitmap = null_bitmap

    def is_null(self, row: int) -> bool:
        return bool((self.null_bitmap >> row) & 1)

    def null_count(self) -> int:
        return bin(self.null_bitmap).count("1")

    def __len__(self) -> int:
        return len(self.values)


class ExportSlice:
    """One class extent as a site ships it in step CA_C1: LOids + columns.

    ``loids[r]`` is row ``r``'s LOid and ``columns[attr][r]`` its value
    of one projected attribute, :data:`NULL` when missing (absent, NULL
    or an empty multi-value).  A slice taken from a
    :class:`ColumnarExtent` shares that view's arrays: it is a snapshot
    of the extent's ``data_version`` (a later write builds a new view
    and never touches these arrays), and nobody mutates it.
    """

    __slots__ = ("loids", "columns")

    def __init__(
        self, loids: Sequence[LOid], columns: Dict[str, Sequence[Value]]
    ) -> None:
        self.loids = loids
        self.columns = columns

    @classmethod
    def of_objects(cls, objects: Iterable["LocalObject"]) -> "ExportSlice":
        """A slice holding every attribute the *objects* store."""
        objs = list(objects)
        names = dict.fromkeys(name for obj in objs for name in obj.values)
        return cls(
            tuple(obj.loid for obj in objs),
            {
                name: [
                    NULL if is_null(value) else value
                    for value in (obj.values.get(name, NULL) for obj in objs)
                ]
                for name in names
            },
        )

    def __len__(self) -> int:
        return len(self.loids)


class WalkColumn:
    """One path expression walked over every row.

    ``miss[r]`` is ``None`` when the walk reached a (non-null) final
    value, else ``(depth, holder id, holder class)`` — the columnar
    form of :class:`~repro.core.predicates.MissingAt`.  ``derefs[r]``
    counts the dereferences the row path would charge (including the one
    paid *before* a dangling deref).  ``errors`` maps row -> the
    exception the row path would raise there.
    """

    __slots__ = ("values", "miss", "derefs", "errors")

    def __init__(
        self,
        values: List[Value],
        miss: List[Optional[Miss]],
        derefs: List[int],
        errors: Dict[int, BaseException],
    ):
        self.values = values
        self.miss = miss
        self.derefs = derefs
        self.errors = errors


class PredicateColumn:
    """One predicate evaluated over every row: codes + charge arrays.

    ``codes[r]`` is the packed 3VL verdict (missing rows are UNKNOWN).
    ``comparisons[r]`` is the comparison charge the row path would pay
    (0 for missing rows — the row path never reaches ``compare_values``
    there); ``derefs[r]`` the walk's deref charge.  ``miss`` aliases the
    walk column's missing locations; ``errors`` maps row -> the exception
    the row path would raise evaluating the predicate there (walk errors
    first: a row whose walk fails is never compared).
    """

    __slots__ = ("codes", "comparisons", "derefs", "miss", "errors")

    def __init__(
        self,
        codes: List[int],
        comparisons: List[int],
        derefs: List[int],
        miss: List[Optional[Miss]],
        errors: Dict[int, BaseException],
    ):
        self.codes = codes
        self.comparisons = comparisons
        self.derefs = derefs
        self.miss = miss
        self.errors = errors


class DnfSummary:
    """A whole ``Where`` clause over every row, reduced to flat arrays.

    ``codes[r]`` is the DNF verdict (``max`` over conjuncts of ``min``
    over that conjunct's predicate codes); ``comparisons[r]`` /
    ``derefs[r]`` are the total evaluation charges for row ``r`` across
    *every* (conjunct, predicate) occurrence — the row path evaluates
    them all (no short-circuit), so charges are occurrence-exact.
    """

    __slots__ = ("codes", "comparisons", "derefs", "error_rows")

    def __init__(
        self,
        codes: List[int],
        comparisons: List[int],
        derefs: List[int],
        error_rows: Set[int],
    ):
        self.codes = codes
        self.comparisons = comparisons
        self.derefs = derefs
        self.error_rows = error_rows


class UnsolvedEntry:
    """Precomputed unsolved bookkeeping for one (row, predicate) miss.

    Mirrors ``ComponentDatabase._record_unsolved``: the holder object the
    relative predicate attaches to (``is_root`` when it is the row's root
    object itself), the relative predicate/``reached_via`` prefix — shared
    across rows blocked at the same depth — and the deref charge the row
    path pays walking to the holder.
    """

    __slots__ = (
        "holder_loid",
        "holder_class",
        "is_root",
        "relative",
        "reached_via",
        "derefs",
    )

    def __init__(
        self,
        holder_loid: LOid,
        holder_class: str,
        is_root: bool,
        relative: UnsolvedPredicateOnObject,
        reached_via: Optional[Path],
        derefs: int,
    ):
        self.holder_loid = holder_loid
        self.holder_class = holder_class
        self.is_root = is_root
        self.relative = relative
        self.reached_via = reached_via
        self.derefs = derefs


class _Reach:
    """Internal: the objects one path prefix reaches from every row.

    ``objects[r]`` is the object reached after dereferencing every step
    of the prefix, ``None`` where the walk stopped earlier: at a miss
    (``miss[r]``) or at a non-reference value held mid-path
    (``errors[r] = (step, value)``; the walk formats the message, which
    names the whole path).  ``derefs[r]`` counts the dereferences paid.
    """

    __slots__ = ("objects", "derefs", "miss", "errors")

    def __init__(
        self,
        objects: List[Optional[AnyObject]],
        derefs: List[int],
        miss: List[Optional[Miss]],
        errors: Dict[int, Tuple[str, Value]],
    ):
        self.objects = objects
        self.derefs = derefs
        self.miss = miss
        self.errors = errors


class ColumnarRows:
    """The shared column builders over one row list and a deref function.

    Walk, compare, predicate and DNF columns over *objects* (row ``r``
    is ``objects[r]``), memoized for the life of the view.  *ident*
    names an object in a missing location (its LOid for stored objects,
    its GOid for integrated ones).  A walk extends the cached column of
    objects reached by its path prefix, so every row dereferences each
    distinct prefix once however many paths share it.

    The view has no versioning: :class:`ColumnarExtent` keys one per
    ``data_version`` of a stored extent, and CA_G3 builds one per call
    over a materialized global extent.  Unhashable operands are built
    uncached.
    """

    def __init__(
        self,
        objects: List[AnyObject],
        deref: Deref,
        ident: Callable[[AnyObject], object] = attrgetter("loid"),
    ) -> None:
        self.objects = objects
        self._deref = deref
        self._ident = ident
        self._attrs: Dict[str, AttributeColumn] = {}
        self._reached: Dict[Tuple[str, ...], _Reach] = {}
        self._walks: Dict[Tuple[str, ...], WalkColumn] = {}
        self._compares: Dict[object, "_CompareColumn"] = {}
        self._preds: Dict[Tuple[type, Predicate], PredicateColumn] = {}
        self._dnfs: Dict[Tuple[Conjunction, ...], Optional[DnfSummary]] = {}

    def __len__(self) -> int:
        return len(self.objects)

    # --- attribute columns ---------------------------------------------------

    def column(self, attribute: str) -> AttributeColumn:
        """The parallel array + null bitmap for one attribute."""
        col = self._attrs.get(attribute)
        if col is None:
            values: List[Value] = []
            bitmap = 0
            append = values.append
            for row, obj in enumerate(self.objects):
                value = obj.values.get(attribute, NULL)
                if is_null(value):
                    bitmap |= 1 << row
                    append(NULL)
                else:
                    append(value)
            col = AttributeColumn(attribute, values, bitmap)
            self._attrs[attribute] = col
        return col

    # --- walk columns ----------------------------------------------------------

    def walk(self, path: Path) -> WalkColumn:
        """Walk *path* over every row (cached)."""
        key = path.steps
        col = self._walks.get(key)
        if col is None:
            col = self._build_walk(path)
            self._walks[key] = col
        return col

    def _reach(self, prefix: Tuple[str, ...]) -> _Reach:
        reach = self._reached.get(prefix)
        if reach is None:
            n = len(self.objects)
            if prefix:
                reach = self._extend(
                    self._reach(prefix[:-1]), prefix[-1], len(prefix) - 1
                )
            else:
                reach = _Reach(self.objects, [0] * n, [None] * n, {})
            self._reached[prefix] = reach
        return reach

    def _extend(self, base: _Reach, step: str, depth: int) -> _Reach:
        """Dereference *step* (not the last of its path) from *base*."""
        parents = base.objects
        objects: List[Optional[AnyObject]] = [None] * len(parents)
        derefs = list(base.derefs)
        miss = list(base.miss)
        errors = dict(base.errors)
        deref = self._deref
        ident = self._ident
        held, nulls = _step_values(parents, step)
        for row in nulls:
            current = parents[row]
            miss[row] = (depth, ident(current), current.class_name)
        for row, value in enumerate(held):
            if value is NULL:  # missing here, or blocked earlier
                continue
            if not isinstance(value, (LOid, GOid)):
                errors[row] = (step, value)
                continue
            derefs[row] += 1  # the row path charges before a failed deref
            nxt = deref(value)
            if nxt is None:
                current = parents[row]
                miss[row] = (depth, ident(current), current.class_name)
            else:
                objects[row] = nxt
        return _Reach(objects, derefs, miss, errors)

    def _build_walk(self, path: Path) -> WalkColumn:
        steps = path.steps
        last = len(steps) - 1
        reach = self._reach(steps[:last])
        parents = reach.objects
        ident = self._ident
        values, nulls = _step_values(parents, steps[last])
        miss = list(reach.miss)
        # The row path reports a null *final* value as missing (the null
        # check precedes the is-final check in walk_path).
        for row in nulls:
            current = parents[row]
            miss[row] = (last, ident(current), current.class_name)
        errors: Dict[int, BaseException] = {
            row: QueryError(
                f"path {path}: step {step!r} holds non-reference "
                f"{value!r} but is not final"
            )
            for row, (step, value) in reach.errors.items()
        }
        return WalkColumn(values, miss, reach.derefs, errors)

    # --- compare columns ---------------------------------------------------

    def _compare(self, path: Path, op: Op, operand: Value) -> "_CompareColumn":
        # Keyed by the operand's type too: ``1 == 1.0 == True``, but an
        # error message names the operand itself.
        key = (path.steps, op, type(operand), operand)
        try:
            col = self._compares.get(key)
        except TypeError:  # unhashable operand: build uncached
            return self._build_compare(path, op, operand)
        if col is None:
            col = self._build_compare(path, op, operand)
            self._compares[key] = col
        return col

    def _build_compare(
        self, path: Path, op: Op, operand: Value
    ) -> "_CompareColumn":
        walk = self.walk(path)
        n = len(self.objects)
        codes = [UNKNOWN_CODE] * n  # missing rows stay UNKNOWN, uncharged
        comps = [0] * n
        errors: Dict[int, BaseException] = {}
        wvalues = walk.values
        wmiss = walk.miss
        werrors = walk.errors
        inline = _INLINE_COMPARE.get(op)
        for row in range(n):
            if wmiss[row] is not None or row in werrors:
                continue
            value = wvalues[row]
            if inline is not None and type(value) in _SCALAR_TYPES:
                comps[row] = 1
                try:
                    codes[row] = (
                        TRUE_CODE if inline(value, operand) else FALSE_CODE
                    )
                except TypeError:  # only ordered operators can raise
                    errors[row] = QueryError(
                        f"cannot order-compare {value!r} with {operand!r}"
                    )
                continue
            meter = EvalMeter()
            try:
                codes[row] = CODE_OF_TV[
                    compare_values(op, value, operand, meter)
                ]
                comps[row] = meter.comparisons
            except Exception as exc:  # the row path raises this in order
                errors[row] = exc
        return _CompareColumn(codes, comps, errors)

    # --- predicate / DNF kernels ---------------------------------------------

    def predicate_column(self, predicate: Predicate) -> PredicateColumn:
        """Evaluate *predicate* over every row in one pass (cached)."""
        key = (type(predicate.operand), predicate)
        try:
            col = self._preds.get(key)
        except TypeError:  # unhashable operand: build uncached
            return self._build_predicate(predicate)
        if col is None:
            col = self._build_predicate(predicate)
            self._preds[key] = col
        return col

    def _build_predicate(self, predicate: Predicate) -> PredicateColumn:
        walk = self.walk(predicate.path)
        cmp = self._compare(predicate.path, predicate.op, predicate.operand)
        errors = dict(walk.errors)
        errors.update(cmp.errors)  # disjoint: compare skips walk errors
        return PredicateColumn(
            codes=cmp.codes,
            comparisons=cmp.comparisons,
            derefs=walk.derefs,
            miss=walk.miss,
            errors=errors,
        )

    def dnf_summary(
        self, where: Tuple[Conjunction, ...]
    ) -> Optional[DnfSummary]:
        """Reduce a whole ``Where`` clause to flat per-row arrays (cached).

        ``None`` when :meth:`predicate_column` declines a predicate.
        """
        try:
            cached = self._dnfs.get(where)
            known = where in self._dnfs
        except TypeError:  # unhashable operand: build uncached
            return self._build_dnf(where)
        if cached is None and not known:
            cached = self._build_dnf(where)
            self._dnfs[where] = cached
        return cached

    def _build_dnf(
        self, where: Tuple[Conjunction, ...]
    ) -> Optional[DnfSummary]:
        n = len(self.objects)
        if not where:
            return DnfSummary([TRUE_CODE] * n, [0] * n, [0] * n, set())
        comparisons = [0] * n
        derefs = [0] * n
        error_rows: Set[int] = set()
        dnf_codes: Optional[List[int]] = None
        for conjunct in where:
            conj_codes: Optional[List[int]] = None
            for predicate in conjunct:
                col = self.predicate_column(predicate)
                if col is None:
                    return None
                error_rows.update(col.errors)
                comparisons = list(map(add, comparisons, col.comparisons))
                derefs = list(map(add, derefs, col.derefs))
                conj_codes = (
                    list(col.codes)
                    if conj_codes is None
                    else list(map(min, conj_codes, col.codes))
                )
            if conj_codes is None:  # empty conjunct is vacuously TRUE
                conj_codes = [TRUE_CODE] * n
            dnf_codes = (
                conj_codes
                if dnf_codes is None
                else list(map(max, dnf_codes, conj_codes))
            )
        assert dnf_codes is not None
        return DnfSummary(dnf_codes, comparisons, derefs, error_rows)


class ColumnarExtent(ColumnarRows):
    """A versioned columnar view of one class extent at one site.

    Rows are the extent's insertion order (the scan order of the row
    path).  All columns are built lazily and cached; the owning
    :class:`~repro.objectdb.database.ComponentDatabase` discards the
    whole view when its ``data_version`` moves.
    """

    def __init__(self, db: "ComponentDatabase", class_name: str) -> None:
        extent = db.extent(class_name)
        super().__init__(list(extent.values()), db.deref)
        self.class_name = class_name
        self.version = db.data_version
        self.loids: List[LOid] = list(extent)
        self.row_of: Dict[LOid, int] = {
            loid: row for row, loid in enumerate(self.loids)
        }
        self._unsolved: Dict[
            Tuple[Predicate, Optional[int]], List[Optional[UnsolvedEntry]]
        ] = {}
        self._row_book: Dict[object, Dict[int, tuple]] = {}

    def predicate_column(self, predicate: Predicate) -> Optional[PredicateColumn]:
        """Evaluate *predicate* over every row in one pass (cached).

        Returns ``None`` when the operand is unhashable (no caching);
        callers must fall back to the row path.  (Defined here, not only
        on the base class, so the per-layer wall-clock profile times the
        local predicate columns apart from CA_G3's.)
        """
        try:
            return self._preds[(type(predicate.operand), predicate)]
        except KeyError:
            return super().predicate_column(predicate)
        except TypeError:
            return None

    # --- unsolved bookkeeping columns ----------------------------------------

    def row_bookkeeping(self, key: object) -> Optional[Dict[int, tuple]]:
        """Mutable per-row memo for one query shape (or ``None``).

        The caller owns the contents: it stores whatever per-row
        bookkeeping (status dict, unsolved tuples, kind, charges) one
        query shape produces, so a repeated query re-reads it instead of
        re-deriving it.  Everything stored is deterministic given this
        extent version.  ``None`` when *key* is unhashable.
        """
        try:
            memo = self._row_book.get(key)
        except TypeError:
            return None
        if memo is None:
            memo = {}
            self._row_book[key] = memo
        return memo

    def unsolved_column(
        self, predicate: Predicate, depth: Optional[int] = None
    ) -> List[Optional[UnsolvedEntry]]:
        """Per-row :class:`UnsolvedEntry` values for *predicate* (cached).

        With ``depth=None`` entries exist exactly at the predicate walk's
        missing rows — the evaluation-miss form.  With an explicit
        *depth* (a statically removed predicate) **every** row gets an
        entry: the holder walk retraces the path prefix and may be
        blocked earlier than *depth* by a null/non-reference value or a
        dangling reference, exactly like the row path's holder walk.
        """
        key = (predicate, depth)
        try:
            col = self._unsolved.get(key)
        except TypeError:  # unhashable operand: compute uncached
            return self._build_unsolved(predicate, depth)
        if col is None:
            col = self._build_unsolved(predicate, depth)
            self._unsolved[key] = col
        return col

    def _build_unsolved(
        self, predicate: Predicate, depth: Optional[int]
    ) -> List[Optional[UnsolvedEntry]]:
        steps = predicate.path.steps
        loids = self.loids
        n = len(loids)
        entries: List[Optional[UnsolvedEntry]] = [None] * n
        # The relative predicate and reached-via prefix only depend on
        # the blocking depth: build each once and share across rows.
        relatives: Dict[int, UnsolvedPredicateOnObject] = {}
        vias: Dict[int, Optional[Path]] = {}

        def parts(d: int) -> Tuple[UnsolvedPredicateOnObject, Optional[Path]]:
            relative = relatives.get(d)
            if relative is None:
                relative = UnsolvedPredicateOnObject(
                    original=predicate, relative_path=Path(steps[d:])
                )
                relatives[d] = relative
                # At depth 0 the holder is the root itself: the row path
                # never builds a reached-via prefix there.
                vias[d] = Path(steps[:d]) if d else None
            return relative, vias[d]

        if depth is None:
            miss = self.walk(predicate.path).miss
            for row in range(n):
                m = miss[row]
                if m is None:
                    continue
                d, holder_loid, holder_class = m
                relative, via = parts(d)
                # Retracing d successful steps charges d derefs.
                entries[row] = UnsolvedEntry(
                    holder_loid,
                    holder_class,
                    holder_loid == loids[row],
                    relative,
                    via,
                    d,
                )
            return entries
        deref = self._deref
        for row, obj in enumerate(self.objects):
            current = obj
            reached = depth
            paid = 0
            for index in range(depth):
                value = current.values.get(steps[index], NULL)
                if is_null(value) or not isinstance(value, LOid):
                    reached = index
                    break
                paid += 1  # the row path charges before a failed deref
                nxt = deref(value)
                if nxt is None:
                    reached = index
                    break
                current = nxt
            relative, via = parts(reached)
            entries[row] = UnsolvedEntry(
                current.loid,
                current.class_name,
                current.loid == loids[row],
                relative,
                via,
                paid,
            )
        return entries


def _step_values(
    objects: List[Optional[AnyObject]], step: str
) -> Tuple[List[Value], List[int]]:
    """Each object's value of *step*, and the rows where it is missing.

    Missing means absent, NULL or an empty multi-value (``is_null``;
    :class:`MultiValue` has no subclasses).  Missing values come back
    as :data:`NULL`, as do rows with no object (a walk blocked earlier),
    which are not listed.
    """
    values = [
        NULL if obj is None else obj.values.get(step, NULL) for obj in objects
    ]
    nulls = []
    for row, value in enumerate(values):
        if value is NULL or (value.__class__ is MultiValue and not len(value)):
            values[row] = NULL
            if objects[row] is not None:
                nulls.append(row)
    return values, nulls


class _CompareColumn:
    """Internal: compare verdicts + charges for one (path, op, operand)."""

    __slots__ = ("codes", "comparisons", "errors")

    def __init__(
        self,
        codes: List[int],
        comparisons: List[int],
        errors: Dict[int, BaseException],
    ):
        self.codes = codes
        self.comparisons = comparisons
        self.errors = errors


#: Scalar types eligible for the inlined comparisons; everything else
#: (MultiValue, references, exotic values) goes through compare_values.
_SCALAR_TYPES = frozenset({int, float, str, bool})

#: The operators compared inline on scalars, each charged one comparison
#: like compare_values; CONTAINS/NOT_CONTAINS always take the slow path.
_INLINE_COMPARE = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}
