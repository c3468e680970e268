"""Unit tests for the component database engine."""

import pytest

from repro.core.query import Path, Predicate
from repro.core.tvl import TV
from repro.errors import ObjectStoreError, UnknownClassError
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import (
    CheckRequest,
    LocalQuery,
    RemovedPredicate,
    RowKind,
)
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ClassDef, ComponentSchema, complex_attr, primitive
from repro.objectdb.values import NULL


def make_db() -> ComponentDatabase:
    schema = ComponentSchema.of(
        "DB",
        [
            ClassDef.of(
                "Student",
                [primitive("name"), primitive("age"),
                 complex_attr("advisor", "Teacher")],
            ),
            ClassDef.of("Teacher", [primitive("name"), primitive("skill")]),
        ],
    )
    db = ComponentDatabase(schema)
    teachers = [("t1", "Ada", "db"), ("t2", "Bob", NULL)]
    for tid, name, skill in teachers:
        db.insert(LocalObject(LOid("DB", tid), "Teacher",
                              {"name": name, "skill": skill}))
    students = [
        ("s1", "John", 30, "t1"),
        ("s2", "Tony", 20, "t2"),
        ("s3", "Mary", NULL, "t1"),
        ("s4", "Ann", 40, None),
    ]
    for sid, name, age, tid in students:
        values = {"name": name, "age": age}
        values["advisor"] = LOid("DB", tid) if tid else NULL
        db.insert(LocalObject(LOid("DB", sid), "Student", values))
    return db


def local_query(predicates=(), removed=(), targets=("name",)):
    where = (tuple(predicates),) if predicates else ()
    return LocalQuery(
        db_name="DB",
        range_class="Student",
        targets=tuple(Path.parse(t) for t in targets),
        where=where,
        removed=tuple(removed),
        removed_by_conjunct=((tuple(r.predicate for r in removed),)
                             if removed else ()),
    )


class TestStorage:
    def test_insert_and_get(self):
        db = make_db()
        assert db.get(LOid("DB", "s1")).get("name") == "John"
        assert db.get(LOid("DB", "zz")) is None

    def test_duplicate_rejected(self):
        db = make_db()
        with pytest.raises(ObjectStoreError):
            db.insert(LocalObject(LOid("DB", "s1"), "Student", {}))

    def test_unknown_class_rejected(self):
        db = make_db()
        with pytest.raises(UnknownClassError):
            db.insert(LocalObject(LOid("DB", "x"), "Nope", {}))

    def test_foreign_loid_rejected(self):
        db = make_db()
        with pytest.raises(ObjectStoreError):
            db.insert(LocalObject(LOid("OTHER", "x"), "Student", {}))

    def test_extent_and_count(self):
        db = make_db()
        assert db.count("Student") == 4
        assert db.count("Teacher") == 2
        with pytest.raises(UnknownClassError):
            db.extent("Nope")

    def test_deref_local_only(self):
        db = make_db()
        assert db.deref(LOid("DB", "t1")).get("name") == "Ada"
        assert db.deref(LOid("OTHER", "t1")) is None

    def test_bulk_insert(self):
        schema = ComponentSchema.of("DB", [ClassDef.of("C", [primitive("a")])])
        db = ComponentDatabase(schema)
        n = db.bulk_insert(
            LocalObject(LOid("DB", f"o{i}"), "C", {"a": i}) for i in range(5)
        )
        assert n == 5 and db.count("C") == 5


class TestScanForExport:
    def test_projects_local_attributes(self):
        db = make_db()
        export = db.scan_for_export("Student", ("name", "nonexistent"))
        assert len(export) == 4
        assert list(export.loids) == [
            LOid("DB", sid) for sid in ("s1", "s2", "s3", "s4")
        ]
        assert list(export.columns) == ["name"]
        assert list(export.columns["name"]) == ["John", "Tony", "Mary", "Ann"]

    def test_slice_is_a_snapshot(self):
        """A later write never reaches an export already shipped."""
        db = make_db()
        export = db.scan_for_export("Student", ("age",))
        assert list(export.columns["age"]) == [30, 20, NULL, 40]
        obj = db.get(LOid("DB", "s3"))
        obj.values["age"] = 25
        db.note_mutation("Student")
        db.insert(LocalObject(LOid("DB", "s5"), "Student", {"age": 50}))
        assert list(export.columns["age"]) == [30, 20, NULL, 40]
        assert len(export) == 4
        fresh = db.scan_for_export("Student", ("age",))
        assert list(fresh.columns["age"]) == [30, 20, 25, 40, 50]


class TestExecuteLocal:
    def test_no_predicates_all_certain(self):
        db = make_db()
        result = db.execute_local(local_query())
        assert result.objects_scanned == 4
        assert len(result.certain_rows) == 4
        assert result.maybe_rows == []

    def test_false_predicate_eliminates(self):
        db = make_db()
        result = db.execute_local(
            local_query([Predicate.of("age", ">", 25)])
        )
        names = {row.bindings[Path.parse("name")] for row in result.rows}
        # Tony (20) eliminated; Mary (age NULL) stays as maybe.
        assert names == {"John", "Mary", "Ann"}

    def test_null_value_yields_maybe_with_unsolved(self):
        db = make_db()
        result = db.execute_local(local_query([Predicate.of("age", ">", 25)]))
        mary = result.row_for(LOid("DB", "s3"))
        assert mary.kind is RowKind.MAYBE
        assert [str(u.relative_predicate) for u in mary.unsolved] == ["age > 25"]

    def test_removed_predicate_makes_all_maybe(self):
        db = make_db()
        removed = RemovedPredicate(
            predicate=Predicate.of("gpa", "=", 4), missing_depth=0
        )
        result = db.execute_local(local_query(removed=[removed]))
        assert len(result.maybe_rows) == 4
        assert all(
            row.unsolved[0].original.path.first == "gpa"
            for row in result.maybe_rows
        )

    def test_branch_null_becomes_unsolved_item(self):
        db = make_db()
        result = db.execute_local(
            local_query([Predicate.of("advisor.skill", "=", "db")])
        )
        tony = result.row_for(LOid("DB", "s2"))  # advisor t2, skill NULL
        assert tony.kind is RowKind.MAYBE
        assert len(tony.unsolved_items) == 1
        item = tony.unsolved_items[0]
        assert item.loid == LOid("DB", "t2")
        assert item.class_name == "Teacher"
        assert str(item.unsolved[0].relative_predicate) == "skill = 'db'"
        assert item.reached_via == Path.parse("advisor")

    def test_null_reference_unsolved_on_root(self):
        db = make_db()
        result = db.execute_local(
            local_query([Predicate.of("advisor.skill", "=", "db")])
        )
        ann = result.row_for(LOid("DB", "s4"))  # advisor NULL
        assert ann.kind is RowKind.MAYBE
        assert ann.unsolved_items == ()
        assert ann.unsolved[0].relative_path == Path.parse("advisor.skill")

    def test_predicate_status_recorded(self):
        db = make_db()
        pred = Predicate.of("age", ">", 25)
        result = db.execute_local(local_query([pred]))
        john = result.row_for(LOid("DB", "s1"))
        assert john.predicate_status[pred] is TV.TRUE
        mary = result.row_for(LOid("DB", "s3"))
        assert mary.predicate_status[pred] is TV.UNKNOWN

    def test_bindings_include_nulls(self):
        db = make_db()
        result = db.execute_local(local_query(targets=("name", "age")))
        mary = result.row_for(LOid("DB", "s3"))
        assert mary.bindings[Path.parse("age")] is NULL

    def test_wrong_db_rejected(self):
        db = make_db()
        query = LocalQuery(
            db_name="OTHER", range_class="Student", targets=(Path.parse("name"),)
        )
        with pytest.raises(ObjectStoreError):
            db.execute_local(query)

    def test_work_accounting(self):
        db = make_db()
        result = db.execute_local(local_query([Predicate.of("age", ">", 25)]))
        # One comparison per object whose age is present (Mary's null age
        # short-circuits at the walk, before any value comparison).
        assert result.comparisons == 3
        assert result.objects_scanned == 4


class TestCollectUnsolved:
    def test_finds_all_objects_with_missing_data(self):
        db = make_db()
        query = local_query([Predicate.of("advisor.skill", "=", "db"),
                             Predicate.of("age", ">", 25)])
        scan, meter = db.collect_unsolved(query)
        assert scan.objects_scanned == 4
        # s2 (advisor skill null), s3 (age null), s4 (advisor null).
        assert set(l.value for l in scan.per_root) == {"s2", "s3", "s4"}
        assert meter.comparisons > 0

    def test_includes_objects_failing_local_predicates(self):
        """PL's defining overhead: missing data of to-be-eliminated rows."""
        db = make_db()
        query = local_query([Predicate.of("advisor.skill", "=", "db"),
                             Predicate.of("name", "=", "nobody")])
        scan, _meter = db.collect_unsolved(query)
        # Tony fails name='nobody' but his advisor-skill hole is probed.
        assert LOid("DB", "s2") in scan.per_root

    def test_all_items(self):
        db = make_db()
        query = local_query([Predicate.of("advisor.skill", "=", "db")])
        scan, _meter = db.collect_unsolved(query)
        items = scan.all_items()
        assert [i.loid.value for i in items] == ["t2"]


class TestCheckAssistants:
    def test_verdicts(self):
        db = make_db()
        pred = Predicate.of("skill", "=", "db")
        report = db.check_assistants(
            CheckRequest(
                db_name="DB",
                class_name="Teacher",
                loids=(LOid("DB", "t1"), LOid("DB", "t2")),
                predicates=(pred,),
            )
        )
        assert report.satisfied[pred] == (LOid("DB", "t1"),)
        assert report.violated[pred] == ()
        assert report.unknown[pred] == (LOid("DB", "t2"),)
        assert report.objects_checked == 2
        assert report.verdict(pred, LOid("DB", "t1")) == "satisfied"
        assert report.verdict(pred, LOid("DB", "t2")) == "unknown"

    def test_violated(self):
        db = make_db()
        pred = Predicate.of("skill", "=", "networks")
        report = db.check_assistants(
            CheckRequest("DB", "Teacher", (LOid("DB", "t1"),), (pred,))
        )
        assert report.violated[pred] == (LOid("DB", "t1"),)

    def test_unknown_object(self):
        db = make_db()
        pred = Predicate.of("skill", "=", "db")
        report = db.check_assistants(
            CheckRequest("DB", "Teacher", (LOid("DB", "zzz"),), (pred,))
        )
        assert report.unknown[pred] == (LOid("DB", "zzz"),)

    def test_blocked_records_remaining_predicate(self):
        db = make_db()
        pred = Predicate.of("advisor.skill", "=", "db")
        # Check on students: s2's advisor t2 has skill NULL -> blocked at t2.
        report = db.check_assistants(
            CheckRequest("DB", "Student", (LOid("DB", "s2"),), (pred,))
        )
        assert len(report.blocked) == 1
        block = report.blocked[0]
        assert block.checked == LOid("DB", "s2")
        assert block.holder == LOid("DB", "t2")
        assert str(block.remaining) == "skill = 'db'"

    def test_block_on_self_not_recorded(self):
        db = make_db()
        pred = Predicate.of("age", ">", 25)
        report = db.check_assistants(
            CheckRequest("DB", "Student", (LOid("DB", "s3"),), (pred,))
        )
        assert report.blocked == ()

    def test_wrong_db_rejected(self):
        db = make_db()
        with pytest.raises(ObjectStoreError):
            db.check_assistants(CheckRequest("OTHER", "Teacher", (), ()))
