"""Unit tests for stored objects (LocalObject / IntegratedObject)."""

import pytest

from repro.errors import ObjectStoreError
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject, iter_non_null
from repro.objectdb.schema import ClassDef, complex_attr, primitive
from repro.objectdb.values import MultiValue, NULL


def student(**values) -> LocalObject:
    return LocalObject(
        loid=LOid("DB1", "s1"), class_name="Student", values=values
    )


CDEF = ClassDef.of(
    "Student",
    [primitive("name"), primitive("tags", multi_valued=True),
     complex_attr("advisor", "Teacher")],
)


class TestLocalObject:
    def test_get_absent_is_null(self):
        assert student().get("name") is NULL

    def test_get_present(self):
        assert student(name="John").get("name") == "John"

    def test_has_value(self):
        obj = student(name="John", age=NULL)
        assert obj.has_value("name")
        assert not obj.has_value("age")
        assert not obj.has_value("missing")

    def test_null_attributes(self):
        obj = student(name="John", age=NULL)
        assert obj.null_attributes() == ["age"]

    def test_validate_ok(self):
        obj = student(name="John", advisor=LOid("DB1", "t1"))
        obj.validate_against(CDEF)

    def test_validate_wrong_class(self):
        with pytest.raises(ObjectStoreError):
            student().validate_against(ClassDef.of("Teacher", []))

    def test_validate_undeclared_attribute(self):
        with pytest.raises(ObjectStoreError):
            student(salary=10).validate_against(CDEF)

    def test_validate_primitive_holding_reference(self):
        with pytest.raises(ObjectStoreError):
            student(name=LOid("DB1", "x")).validate_against(CDEF)

    def test_validate_complex_holding_primitive(self):
        with pytest.raises(ObjectStoreError):
            student(advisor="t1").validate_against(CDEF)

    def test_validate_null_always_ok(self):
        student(name=NULL, advisor=NULL).validate_against(CDEF)

    def test_validate_multivalue_on_single_valued(self):
        with pytest.raises(ObjectStoreError):
            student(name=MultiValue(["a", "b"])).validate_against(CDEF)

    def test_validate_multivalue_ok(self):
        student(tags=MultiValue(["a", "b"])).validate_against(CDEF)


class TestIntegratedObject:
    def test_get(self):
        obj = IntegratedObject(
            goid=GOid("g1"), class_name="Student", values={"name": "John"}
        )
        assert obj.get("name") == "John"
        assert obj.get("age") is NULL
        assert obj.has_value("name")
        assert not obj.has_value("age")

    def test_sources(self):
        obj = IntegratedObject(
            goid=GOid("g1"),
            class_name="Student",
            sources=(LOid("DB1", "s1"), LOid("DB2", "s2'")),
        )
        assert len(obj.sources) == 2


class TestIterNonNull:
    def test_filters(self):
        objs = {
            LOid("DB1", "a"): student(name="x"),
            LOid("DB1", "b"): LocalObject(
                loid=LOid("DB1", "b"), class_name="Student", values={}
            ),
        }
        assert [o.get("name") for o in iter_non_null(objs, "name")] == ["x"]
