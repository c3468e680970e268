"""The columnar extent hot path and its transparency contract.

Every batch kernel must be *byte-identical* to the row path it replaces:
same rows, same bindings and unsolved bookkeeping, same meter totals,
same exceptions.  These tests pin that contract down object by object on
hand-built extents covering the 3VL edge cases (all-null columns, mixed
null/value under every operator, empty extents) and verify the
ExecutionOptions/engine plumbing end to end.
"""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.predicates import EvalMeter, batch_compare, compare_values
from repro.core.query import Op, Path, Predicate
from repro.core.results import same_answers
from repro.core.tvl import TV
from repro.errors import QueryError
from repro.objectdb.columnar import (
    FALSE_CODE,
    TRUE_CODE,
    TV_OF_CODE,
    UNKNOWN_CODE,
)
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import CheckRequest, LocalQuery, partition_codes
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


class TestPartitionCodes:
    def test_three_way_split_preserves_order(self):
        loids = tuple(LOid("DB", f"o{i}") for i in range(5))
        codes = [TRUE_CODE, FALSE_CODE, UNKNOWN_CODE, TRUE_CODE, FALSE_CODE]
        true, maybe, false = partition_codes(loids, codes)
        assert true == (loids[0], loids[3])
        assert maybe == (loids[2],)
        assert false == (loids[1], loids[4])

    def test_empty(self):
        assert partition_codes((), []) == ((), (), ())


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
        sets = db.batch_evaluate_predicate("C", pred)
        assert sets.true == sets.maybe == sets.false == ()

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_mixed_nulls_match_row_path_per_object(self, op):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("a"), op=op, operand=1)
        col = db.columnar_extent("C")
        pcol = col.predicate_column(pred)
        from repro.core.predicates import evaluate_predicate

        for row, obj in enumerate(col.objects):
            expected = evaluate_predicate(obj, pred, db.deref)
            assert TV_OF_CODE[pcol.codes[row]] is expected.tv, (
                f"{op} row {row} ({obj.loid})"
            )

    @pytest.mark.parametrize("op", ALL_OPS + (Op.CONTAINS,))
    def test_batch_sets_equal_row_path(self, op):
        db = make_db(mixed_rows())
        attr = "tags" if op is Op.CONTAINS else "a"
        pred = Predicate(path=Path.of(attr), op=op, operand=1)
        on = db.batch_evaluate_predicate("C", pred, columnar=True)
        off = db.batch_evaluate_predicate("C", pred, columnar=False)
        assert on == off

    def test_nested_path_misses_match_row_path(self):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10)
        on = db.batch_evaluate_predicate("C", pred, columnar=True)
        off = db.batch_evaluate_predicate("C", pred, columnar=False)
        assert on == off
        # c1 -> d1.x=10 TRUE; c2 -> d2.x NULL, c4 dangling, c5 missing,
        # c3 has no ref: all UNKNOWN.
        assert on.true == (LOid("DB", "c1"),)
        assert len(on.maybe) == 4

    def test_stale_view_never_served(self):
        db = make_db(mixed_rows())
        first = db.columnar_extent("C")
        assert db.columnar_extent("C") is first  # cached
        db.insert(LocalObject(LOid("DB", "c9"), "C", {"a": 1}),
                  validate=False)
        second = db.columnar_extent("C")
        assert second is not first
        assert len(second) == len(first) + 1


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
        on = make_db(mixed_rows()).execute_local(query, columnar=True)
        off = make_db(mixed_rows()).execute_local(query, columnar=False)
        assert_result_sets_equal(on, off)

    def test_indexed_candidates_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),),)
        query = local_query(where)
        indexed_on = make_db(mixed_rows())
        indexed_on.create_index("C", "a")
        indexed_off = make_db(mixed_rows())
        indexed_off.create_index("C", "a")
        on = indexed_on.execute_local(query, columnar=True)
        off = indexed_off.execute_local(query, columnar=False)
        assert_result_sets_equal(on, off)
        assert on.index_probe is not None

    def test_collect_unsolved_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),
                  Predicate(path=Path.of("ref", "x"), op=Op.LT, operand=99)),)
        query = local_query(where)
        scan_on, meter_on = make_db(mixed_rows()).collect_unsolved(
            query, columnar=True
        )
        scan_off, meter_off = make_db(mixed_rows()).collect_unsolved(
            query, columnar=False
        )
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
        on = make_db(mixed_rows()).check_assistants(request, columnar=True)
        off = make_db(mixed_rows()).check_assistants(request, columnar=False)
        assert on.satisfied == off.satisfied
        assert on.violated == off.violated
        assert on.unknown == off.unknown
        assert on.blocked == off.blocked
        assert on.objects_checked == off.objects_checked
        assert on.comparisons == off.comparisons
        assert on.derefs == off.derefs


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
            self.badly_typed_db().execute_local(
                local_query(where), columnar=True
            )
        with pytest.raises(QueryError) as off:
            self.badly_typed_db().execute_local(
                local_query(where), columnar=False
            )
        assert str(on.value) == str(off.value)

    def test_batch_kernel_falls_back_and_raises(self):
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1)
        with pytest.raises(QueryError):
            self.badly_typed_db().batch_evaluate_predicate("C", pred)

    def test_unhashable_operand_falls_back(self):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("a"), op=Op.EQ, operand=[1, 2])
        col = db.columnar_extent("C")
        assert col.predicate_column(pred) is None  # caching impossible
        on = db.batch_evaluate_predicate("C", pred, columnar=True)
        off = db.batch_evaluate_predicate("C", pred, columnar=False)
        assert on == off


class TestEngineTransparency:
    """The end-to-end contract through ExecutionOptions."""

    def test_describe_and_with(self):
        options = ExecutionOptions()
        assert options.columnar is True
        assert "columnar=True" in options.describe()
        assert options.with_(columnar=False).columnar is False

    @pytest.mark.parametrize("name", ["CA", "BL", "PL", "BL-S", "PL-S"])
    def test_q1_answers_and_metrics_identical(self, name):
        engine = GlobalQueryEngine(build_school_federation())
        engine.ensure_signatures()
        on = engine.execute(
            Q1_TEXT, name, options=engine.options.with_(columnar=True)
        )
        off = engine.execute(
            Q1_TEXT, name, options=engine.options.with_(columnar=False)
        )
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
            for name in ("CA", "BL", "PL"):
                on = engine.execute(
                    workload.query, name,
                    options=engine.options.with_(columnar=True),
                )
                off = engine.execute(
                    workload.query, name,
                    options=engine.options.with_(columnar=False),
                )
                assert same_answers(on.results, off.results), (seed, name)
                assert (
                    on.metrics.work.comparisons
                    == off.metrics.work.comparisons
                ), (seed, name)

    def test_strategy_effective_columnar(self, monkeypatch):
        from helpers import context
        from repro.core.strategies import DEFAULT_REGISTRY
        from repro.sqlx import parse_query

        seen = []
        real = ComponentDatabase.execute_local

        def spy(self, query, *, columnar=True):
            seen.append(columnar)
            return real(self, query, columnar=columnar)

        monkeypatch.setattr(ComponentDatabase, "execute_local", spy)
        strategy = DEFAULT_REGISTRY.create("BL")
        system = build_school_federation()
        query = parse_query(Q1_TEXT)
        strategy.execute(system, query, context(columnar=False))
        assert seen and not any(seen)
        seen.clear()
        strategy.execute(system, query, context())
        assert seen and all(seen)
