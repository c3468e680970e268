"""The columnar extent hot path and its transparency contract.

Every batch kernel must be *byte-identical* to the row path it falls
back to: same rows, same bindings and unsolved bookkeeping, same meter
totals, same exceptions.  These tests pin that contract down object by
object on hand-built extents covering the 3VL edge cases (all-null
columns, mixed null/value under every operator, empty extents), always
comparing a database against its row-path view
(:mod:`repro.difftest.rowpath`), and verify it end to end through the
engine.
"""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.predicates import (
    EvalMeter,
    batch_compare,
    compare_values,
    evaluate_predicate,
)
from repro.core.query import Op, Path, Predicate
from repro.core.results import same_answers
from repro.core.tvl import TV
from repro.errors import QueryError
from repro.difftest.rowpath import RowPathDatabase, row_path_view
from repro.objectdb.columnar import TV_OF_CODE, UNKNOWN_CODE
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import CheckRequest, LocalQuery
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import (
    ClassDef,
    ComponentSchema,
    complex_attr,
    primitive,
)
from repro.objectdb.values import MultiValue, NULL
from repro.workload.paper_example import Q1_TEXT, build_school_federation

ALL_OPS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
ORDERED_OPS = (Op.LT, Op.LE, Op.GT, Op.GE)


def make_db(rows=()):
    """A two-class site: C(a, b, tags, ref -> D(x))."""
    schema = ComponentSchema.of(
        "DB",
        [
            ClassDef.of("C", [
                primitive("a"),
                primitive("b"),
                primitive("tags", multi_valued=True),
                complex_attr("ref", "D"),
            ]),
            ClassDef.of("D", [primitive("x")]),
        ],
    )
    db = ComponentDatabase(schema)
    for name, values in rows:
        cls = "D" if name.startswith("d") else "C"
        db.insert(LocalObject(LOid("DB", name), cls, values), validate=False)
    return db


def mixed_rows():
    """Nulls, values, multi-values and references in one extent."""
    return [
        ("d1", {"x": 10}),
        ("d2", {"x": NULL}),
        ("c1", {"a": 1, "b": "p", "tags": MultiValue([1, 2]),
                "ref": LOid("DB", "d1")}),
        ("c2", {"a": NULL, "b": "q", "ref": LOid("DB", "d2")}),
        ("c3", {"a": 3, "b": NULL, "tags": MultiValue([3])}),
        ("c4", {"a": 1, "b": "p", "ref": LOid("DB", "ghost")}),  # dangling
        ("c5", {}),  # everything missing
    ]


def local_query(where, targets=(Path.of("b"),)):
    return LocalQuery(
        db_name="DB", range_class="C", targets=tuple(targets), where=where
    )


def check_extent(db, predicate):
    """Check *predicate* on every object of C, one request."""
    request = CheckRequest(
        db_name="DB",
        class_name="C",
        loids=tuple(db.extent("C")),
        predicates=(predicate,),
    )
    return db.check_assistants(request)


def assert_reports_equal(kernel, row):
    """Field-by-field equality of two CheckReports."""
    assert kernel.satisfied == row.satisfied
    assert kernel.violated == row.violated
    assert kernel.unknown == row.unknown
    assert kernel.blocked == row.blocked
    assert kernel.objects_checked == row.objects_checked
    assert kernel.comparisons == row.comparisons
    assert kernel.derefs == row.derefs


def assert_result_sets_equal(columnar, row):
    """Field-by-field equality of two LocalResultSets (the contract)."""
    assert columnar.db_name == row.db_name
    assert columnar.range_class == row.range_class
    assert columnar.objects_scanned == row.objects_scanned
    assert columnar.comparisons == row.comparisons
    assert columnar.derefs == row.derefs
    assert len(columnar.rows) == len(row.rows)
    for left, right in zip(columnar.rows, row.rows):
        assert left.loid == right.loid
        assert left.class_name == right.class_name
        assert left.kind == right.kind
        assert left.bindings == right.bindings
        assert left.unsolved == right.unsolved
        assert left.unsolved_items == right.unsolved_items
        assert left.predicate_status == right.predicate_status


class TestBatchCompare:
    """batch_compare is element-exact with compare_values."""

    COLUMN = [
        1, NULL, "x", 2.5, MultiValue([1, 2]), MultiValue([]), True, 0,
    ]

    @pytest.mark.parametrize("op", [Op.EQ, Op.NE])
    def test_eq_ne_parity(self, op):
        batch_meter, row_meter = EvalMeter(), EvalMeter()
        batch = batch_compare(op, self.COLUMN, 1, batch_meter)
        rows = [compare_values(op, v, 1, row_meter) for v in self.COLUMN]
        assert batch == rows
        assert batch_meter.comparisons == row_meter.comparisons

    @pytest.mark.parametrize("op", [Op.LT, Op.LE, Op.GT, Op.GE])
    def test_order_ops_parity(self, op):
        column = [1, NULL, 2.5, MultiValue([1, 2]), 0]
        batch_meter, row_meter = EvalMeter(), EvalMeter()
        batch = batch_compare(op, column, 1, batch_meter)
        rows = [compare_values(op, v, 1, row_meter) for v in column]
        assert batch == rows
        assert batch_meter.comparisons == row_meter.comparisons

    def test_contains_parity(self):
        column = [MultiValue([1, 2]), NULL, MultiValue([3])]
        batch = batch_compare(Op.CONTAINS, column, 2, None)
        assert batch == [TV.TRUE, TV.UNKNOWN, TV.FALSE]

    def test_raises_in_order_and_charges_before_raise(self):
        # The row path charges the raising element's comparison before
        # throwing; the batch kernel must do the same.
        column = [1, "unorderable", 2]
        batch_meter, row_meter = EvalMeter(), EvalMeter()
        with pytest.raises(QueryError):
            batch_compare(Op.LT, column, 5, batch_meter)
        with pytest.raises(QueryError):
            for v in column:
                compare_values(Op.LT, v, 5, row_meter)
        assert batch_meter.comparisons == row_meter.comparisons == 2

    def test_contains_on_scalar_raises(self):
        with pytest.raises(QueryError):
            batch_compare(Op.CONTAINS, [1], 1, None)


class TestColumnarExtentKernels:
    def test_all_null_column_is_all_unknown(self):
        db = make_db([("c1", {"a": NULL}), ("c2", {}), ("c3", {"a": NULL})])
        col = db.columnar_extent("C")
        attr = col.column("a")
        assert attr.null_count() == 3
        for op in ALL_OPS:
            pred = Predicate(path=Path.of("a"), op=op, operand=1)
            pcol = col.predicate_column(pred)
            assert pcol.codes == [UNKNOWN_CODE] * 3
            # Missing rows are uncharged, exactly like the row path.
            assert pcol.comparisons == [0] * 3

    def test_empty_extent(self):
        db = make_db()
        col = db.columnar_extent("C")
        assert len(col) == 0
        pred = Predicate(path=Path.of("a"), op=Op.EQ, operand=1)
        pcol = col.predicate_column(pred)
        assert pcol.codes == []
        report = check_extent(db, pred)
        assert report.satisfied == report.violated == report.unknown == {
            pred: ()
        }

    @pytest.mark.parametrize("path, op", [
        pytest.param(Path.of("a"), op, id=str(op)) for op in ALL_OPS
    ] + [
        pytest.param(Path.of("tags"), Op.CONTAINS, id="tags-contains"),
        pytest.param(Path.of("ref", "x"), Op.EQ, id="ref.x-="),
    ] + [
        pytest.param(Path.of(attr), op, id=f"{attr}-{op}")
        for attr in ("b", "tags") for op in ORDERED_OPS
    ] + [
        pytest.param(Path.of("ref", "x"), op, id=f"ref.x-{op}")
        for op in ORDERED_OPS
    ])
    def test_mixed_nulls_match_row_path_per_object(self, path, op):
        # c6 cannot be order-compared with the operand on a or b.
        db = make_db(mixed_rows() + [("c6", {"a": "z", "b": 2})])
        pred = Predicate(path=path, op=op, operand=1)
        col = db.columnar_extent("C")
        pcol = col.predicate_column(pred)
        for row, obj in enumerate(col.objects):
            meter = EvalMeter()
            try:
                expected = evaluate_predicate(obj, pred, db.deref, meter)
            except QueryError as exc:
                assert str(pcol.errors[row]) == str(exc)
                continue
            assert row not in pcol.errors
            assert TV_OF_CODE[pcol.codes[row]] is expected.tv, (
                f"{op} row {row} ({obj.loid})"
            )
            assert pcol.comparisons[row] == meter.comparisons
            assert pcol.derefs[row] == meter.derefs

    @pytest.mark.parametrize("op", ALL_OPS + (Op.CONTAINS,))
    def test_batch_sets_equal_row_path(self, op):
        # Checking a whole extent splits it into satisfied/violated/
        # unknown LOid sets, on the kernel and the row path alike.
        attr = "tags" if op is Op.CONTAINS else "a"
        pred = Predicate(path=Path.of(attr), op=op, operand=1)
        kernel = check_extent(make_db(mixed_rows()), pred)
        row = check_extent(RowPathDatabase.view(make_db(mixed_rows())), pred)
        assert_reports_equal(kernel, row)

    def test_nested_path_misses_match_row_path(self):
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10)
        kernel = check_extent(make_db(mixed_rows()), pred)
        row = check_extent(RowPathDatabase.view(make_db(mixed_rows())), pred)
        assert_reports_equal(kernel, row)
        # c1 -> d1.x=10 TRUE; c2 -> d2.x NULL, c4 dangling, c5 missing,
        # c3 has no ref: all UNKNOWN.
        assert kernel.satisfied[pred] == (LOid("DB", "c1"),)
        assert len(kernel.unknown[pred]) == 4

    def test_stale_view_never_served(self):
        db = make_db(mixed_rows())
        first = db.columnar_extent("C")
        assert db.columnar_extent("C") is first  # cached
        db.insert(LocalObject(LOid("DB", "c9"), "C", {"a": 1}),
                  validate=False)
        second = db.columnar_extent("C")
        assert second is not first
        assert len(second) == len(first) + 1


    def test_equal_operands_of_different_types_are_distinct_columns(self):
        """``1 == True``, yet ``a < True`` must name its own operand."""
        db = make_db([("c1", {"a": "x"})])
        col = db.columnar_extent("C")
        for operand in (1, True, 1.0):
            pred = Predicate(path=Path.of("a"), op=Op.LT, operand=operand)
            with pytest.raises(QueryError) as row:
                evaluate_predicate(col.objects[0], pred, db.deref)
            error = col.predicate_column(pred).errors[0]
            assert str(error) == str(row.value) == (
                f"cannot order-compare 'x' with {operand!r}"
            )


class TestExecuteLocalParity:
    WHERES = [
        ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),),),
        ((Predicate(path=Path.of("a"), op=Op.GT, operand=0),
          Predicate(path=Path.of("b"), op=Op.EQ, operand="p")),),
        # DNF: two disjuncts.
        ((Predicate(path=Path.of("a"), op=Op.EQ, operand=3),),
         (Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10),)),
        # Empty where: everything survives.
        (),
    ]

    @pytest.mark.parametrize("where", WHERES)
    def test_rows_and_meters_identical(self, where):
        query = local_query(where, targets=(Path.of("b"), Path.of("ref", "x")))
        on = make_db(mixed_rows()).execute_local(query)
        off = RowPathDatabase.view(make_db(mixed_rows())).execute_local(query)
        assert_result_sets_equal(on, off)

    def test_indexed_candidates_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),),)
        query = local_query(where)
        indexed_on = make_db(mixed_rows())
        indexed_on.create_index("C", "a")
        indexed_off = make_db(mixed_rows())
        indexed_off.create_index("C", "a")
        on = indexed_on.execute_local(query)
        off = RowPathDatabase.view(indexed_off).execute_local(query)
        assert_result_sets_equal(on, off)
        assert on.index_probe is not None

    def test_collect_unsolved_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),
                  Predicate(path=Path.of("ref", "x"), op=Op.LT, operand=99)),)
        query = local_query(where)
        scan_on, meter_on = make_db(mixed_rows()).collect_unsolved(query)
        row_db = RowPathDatabase.view(make_db(mixed_rows()))
        scan_off, meter_off = row_db.collect_unsolved(query)
        assert scan_on.objects_scanned == scan_off.objects_scanned
        assert scan_on.per_root == scan_off.per_root
        assert meter_on.comparisons == meter_off.comparisons
        assert meter_on.derefs == meter_off.derefs

    def test_check_assistants_identical(self):
        request = CheckRequest(
            db_name="DB",
            class_name="C",
            loids=(
                LOid("DB", "c1"), LOid("DB", "c2"), LOid("DB", "c5"),
                LOid("DB", "absent"),  # not stored anywhere
                LOid("DB", "d1"),      # stored, but in another extent
            ),
            predicates=(
                Predicate(path=Path.of("a"), op=Op.EQ, operand=1),
                Predicate(path=Path.of("ref", "x"), op=Op.GE, operand=10),
            ),
        )
        on = make_db(mixed_rows()).check_assistants(request)
        off = RowPathDatabase.view(make_db(mixed_rows())).check_assistants(
            request
        )
        assert_reports_equal(on, off)
        assert on.blocked  # c2 is stuck at d2, a different object

    def test_row_view_never_builds_a_columnar_extent(self):
        db = make_db(mixed_rows())
        view = RowPathDatabase.view(db)
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10)
        query = local_query(((pred,),))
        view.execute_local(query)
        view.collect_unsolved(query)
        view.check_assistants(CheckRequest(
            db_name="DB", class_name="C", loids=(LOid("DB", "c1"),),
            predicates=(pred,),
        ))
        assert db._columnar == {}
        # The kernel path on the original does build one.
        db.execute_local(query)
        assert set(db._columnar) == {"C"}


class TestErrorFallback:
    """Rows that would raise force the canonical row-path exception."""

    def badly_typed_db(self):
        # c1's ref holds a plain int: walking ref.x raises QueryError.
        return make_db([
            ("c1", {"a": 1, "ref": 42}),
            ("c2", {"a": 2, "ref": NULL}),
        ])

    def test_execute_local_raises_canonically(self):
        where = ((Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1),),)
        with pytest.raises(QueryError) as on:
            self.badly_typed_db().execute_local(local_query(where))
        with pytest.raises(QueryError) as off:
            RowPathDatabase.view(self.badly_typed_db()).execute_local(
                local_query(where)
            )
        assert str(on.value) == str(off.value)

    def test_batch_kernel_falls_back_and_raises(self):
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1)
        with pytest.raises(QueryError) as on:
            check_extent(self.badly_typed_db(), pred)
        with pytest.raises(QueryError) as off:
            check_extent(RowPathDatabase.view(self.badly_typed_db()), pred)
        assert str(on.value) == str(off.value)

    def test_unhashable_operand_falls_back(self):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("a"), op=Op.EQ, operand=[1, 2])
        col = db.columnar_extent("C")
        assert col.predicate_column(pred) is None  # caching impossible
        # The missing-data scan never hashes the predicate: its kernel
        # builds the unsolved column uncached and matches the row path.
        query = local_query(((pred,),))
        scan_on, meter_on = db.collect_unsolved(query)
        row_db = RowPathDatabase.view(make_db(mixed_rows()))
        scan_off, meter_off = row_db.collect_unsolved(query)
        assert list(scan_on.per_root) == [LOid("DB", "c2"), LOid("DB", "c5")]
        assert scan_on.per_root == scan_off.per_root
        assert meter_on.comparisons == meter_off.comparisons
        assert meter_on.derefs == meter_off.derefs


class TestEngineTransparency:
    """The end-to-end contract: a federation vs its row-path view."""

    @pytest.mark.parametrize("name", ["CA", "BL", "PL", "BL-S", "PL-S"])
    def test_q1_answers_and_metrics_identical(self, name):
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        engine.ensure_signatures()
        on = engine.execute(Q1_TEXT, name)
        off = GlobalQueryEngine(row_path_view(system)).execute(Q1_TEXT, name)
        assert same_answers(on.results, off.results)
        # Every work counter except cache traffic (the first run pays
        # the decomposition miss) must match exactly.
        import dataclasses

        scrub = dict(cache_hits=0, cache_misses=0)
        assert dataclasses.replace(
            on.metrics.work, **scrub
        ) == dataclasses.replace(off.metrics.work, **scrub)

    def test_generated_workloads_identical(self):
        from helpers import make_workload

        for seed in (11, 23, 47):
            workload = make_workload(seed=seed, scale=0.03)
            engine = GlobalQueryEngine(workload.system)
            rows = GlobalQueryEngine(row_path_view(workload.system))
            for name in ("CA", "BL", "PL"):
                on = engine.execute(workload.query, name)
                off = rows.execute(workload.query, name)
                assert same_answers(on.results, off.results), (seed, name)
                assert (
                    on.metrics.work.comparisons
                    == off.metrics.work.comparisons
                ), (seed, name)

    def test_strategies_run_the_kernels(self, monkeypatch):
        from helpers import context
        from repro.core.strategies import DEFAULT_REGISTRY
        from repro.sqlx import parse_query

        declined = []
        real = ComponentDatabase._execute_local_columnar

        def spy(self, query):
            result = real(self, query)
            declined.append(result is None)
            return result

        monkeypatch.setattr(ComponentDatabase, "_execute_local_columnar", spy)
        strategy = DEFAULT_REGISTRY.create("BL")
        strategy.execute(
            build_school_federation(), parse_query(Q1_TEXT), context()
        )
        assert declined and not any(declined)
