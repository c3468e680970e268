"""Unit tests for outerjoin materialization, incl. Figure 6 reproduction.

The column merge (:func:`~repro.integration.outerjoin.integrate_class`)
is also held to its per-object reference,
:func:`~repro.difftest.rowpath.integrate_class_rows`: same objects,
``sources``, stats, mapping-table probe counts and first error.
"""

from types import SimpleNamespace

import pytest

from repro.core.decompose import attributes_needed
from repro.core.options import ExecutionOptions
from repro.difftest.rowpath import integrate_class_rows
from repro.errors import MappingError
from repro.faults import FaultPlan
from repro.integration.global_schema import (
    ClassCorrespondence,
    integrate_schemas,
)
from repro.integration.isomerism import table_from_correspondences
from repro.integration.mapping import MappingCatalog
from repro.integration.outerjoin import IntegrationStats, integrate_class, materialize
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import (
    ClassDef,
    ComponentSchema,
    complex_attr,
    primitive,
)
from repro.objectdb.values import MultiValue, NULL
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def full_exports(system, class_names):
    """Ship whole extents (all attributes) from every site."""
    exports = {}
    for class_name in class_names:
        per_db = {}
        for db_name, db in system.databases.items():
            local = system.global_schema.constituent_class(db_name, class_name)
            if local is None:
                continue
            per_db[db_name] = list(db.extent(local).values())
        exports[class_name] = per_db
    return exports


@pytest.fixture()
def school_extent(school):
    classes = ("Student", "Teacher", "Department", "Address")
    exports = full_exports(school, classes)
    return materialize(
        classes, school.global_schema, school.catalog, exports
    )


class TestFigure6:
    """The materialized global classes match the paper's Figure 6."""

    def test_john_merges_age_and_address(self, school_extent):
        john = school_extent.extent("Student")[GOid("gs1")]
        assert john.get("s-no") == 804301
        assert john.get("name") == "John"
        assert john.get("age") == 31            # from DB1
        assert john.get("sex") == "male"        # DB1 null, DB2 provides
        assert john.get("address") == GOid("ga2")  # LOid a2' translated
        assert john.get("advisor") == GOid("gt1")

    def test_tony_keeps_missing_address(self, school_extent):
        tony = school_extent.extent("Student")[GOid("gs2")]
        assert tony.get("address") is NULL
        assert tony.get("advisor") == GOid("gt3")

    def test_hedy(self, school_extent):
        hedy = school_extent.extent("Student")[GOid("gs4")]
        assert hedy.get("address") == GOid("ga1")
        assert hedy.get("advisor") == GOid("gt4")
        assert hedy.get("age") is NULL  # nobody stores Hedy's age

    def test_teachers(self, school_extent):
        teachers = school_extent.extent("Teacher")
        jeffery = teachers[GOid("gt1")]
        assert jeffery.get("department") == GOid("gd1")
        assert jeffery.get("speciality") == "network"
        abel = teachers[GOid("gt2")]
        assert abel.get("department") == GOid("gd2")  # from DB3 (EE)
        assert abel.get("speciality") is NULL
        haley = teachers[GOid("gt3")]
        assert haley.get("speciality") is NULL
        kelly = teachers[GOid("gt4")]
        assert kelly.get("department") == GOid("gd1")  # CS via DB3
        assert kelly.get("speciality") == "database"

    def test_every_object_appears(self, school_extent):
        # Outer join: entities with a single copy still materialize.
        assert len(school_extent.extent("Student")) == 5
        assert len(school_extent.extent("Teacher")) == 4
        assert len(school_extent.extent("Department")) == 3
        assert len(school_extent.extent("Address")) == 2

    def test_sources_recorded(self, school_extent):
        john = school_extent.extent("Student")[GOid("gs1")]
        assert set(john.sources) == {LOid("DB1", "s1"), LOid("DB2", "s2'")}


class TestGlobalExtent:
    def test_deref(self, school_extent):
        assert school_extent.deref(GOid("gs1")).get("name") == "John"
        assert school_extent.deref(GOid("nope")) is None
        assert school_extent.deref(LOid("DB1", "s1")) is None

    def test_classes_and_len(self, school_extent):
        assert set(school_extent.classes()) == {
            "Student", "Teacher", "Department", "Address",
        }
        assert len(school_extent) == 14


class TestIntegrationMechanics:
    def test_stats_counted(self, school):
        stats = IntegrationStats()
        exports = full_exports(school, ("Student",))
        integrate_class(
            "Student", school.global_schema, school.catalog,
            exports["Student"], stats,
        )
        assert stats.objects_in == 6
        assert stats.objects_out == 5
        assert stats.translations > 0
        assert stats.comparisons >= stats.objects_in

    def test_unmapped_object_rejected(self, school):
        from repro.objectdb.objects import LocalObject

        ghost = LocalObject(LOid("DB1", "ghost"), "Student", {"name": "?"})
        with pytest.raises(MappingError):
            integrate_class(
                "Student", school.global_schema, school.catalog,
                {"DB1": [ghost]},
            )

    def test_non_reference_value_rejected(self, school):
        from repro.objectdb.objects import LocalObject

        bad = LocalObject(
            LOid("DB1", "s1"), "Student", {"s-no": 1, "advisor": 42}
        )
        with pytest.raises(MappingError) as err:
            integrate_class(
                "Student", school.global_schema, school.catalog,
                {"DB1": [bad]},
            )
        assert str(err.value) == (
            "complex attribute holds non-reference value 42"
        )

    def test_dangling_reference_becomes_null(self, school):
        from repro.objectdb.objects import LocalObject

        # s9 references a teacher that was never catalogued.
        db1 = school.db("DB1")
        obj = LocalObject(
            LOid("DB1", "s1"), "Student",
            {"s-no": 1, "advisor": LOid("DB1", "phantom")},
        )
        integrated = integrate_class(
            "Student", school.global_schema, school.catalog, {"DB1": [obj]}
        )
        goid = school.catalog.goid_of("Student", LOid("DB1", "s1"))
        assert integrated[goid].get("advisor") is NULL

    def test_projected_exports_match_attributes_needed(self, school):
        query = parse_query(Q1_TEXT)
        needed = attributes_needed(query, school.global_schema, "Student")
        assert "name" in needed and "address" in needed and "advisor" in needed
        assert "s-no" in needed  # key rides along
        assert "sex" not in needed


class TestMultiValuedMerge:
    def test_collects_distinct_values(self):
        """A multi-valued attribute merges contributions across sites."""
        from repro.integration.global_schema import ClassCorrespondence, integrate_schemas
        from repro.integration.isomerism import table_from_correspondences
        from repro.objectdb.database import ComponentDatabase
        from repro.objectdb.objects import LocalObject
        from repro.objectdb.schema import ClassDef, ComponentSchema, primitive

        schemas = {}
        dbs = {}
        for name, phone in (("DB1", "111"), ("DB2", "222")):
            cs = ComponentSchema.of(
                name, [ClassDef.of("P", [primitive("k"), primitive("phone")])]
            )
            db = ComponentDatabase(cs)
            db.insert(LocalObject(LOid(name, "p"), "P", {"k": 1, "phone": phone}))
            schemas[name] = cs
            dbs[name] = db
        gs = integrate_schemas(
            schemas,
            [ClassCorrespondence.of(
                "P", [("DB1", "P"), ("DB2", "P")], "k",
                multi_valued_attributes=["phone"],
            )],
        )
        catalog = MappingCatalog()
        catalog.register(table_from_correspondences(
            "P", [(GOid("g1"), [LOid("DB1", "p"), LOid("DB2", "p")])]
        ))
        integrated = integrate_class(
            "P", gs, catalog,
            {n: list(db.extent("P").values()) for n, db in dbs.items()},
        )
        assert integrated[GOid("g1")].get("phone") == MultiValue(["111", "222"])


class TestSiteExports:
    """The typed per-site accessor: every value is an export slice."""

    def test_missing_site_yields_empty_tuple(self):
        from repro.integration.outerjoin import SiteExports

        exports = SiteExports({"DB1": []})
        assert tuple(exports.for_db("DB1").loids) == ()
        assert tuple(exports.for_db("DB9").loids) == ()  # absent, typed
        assert len(exports.for_db("DB9")) == 0

    def test_values_materialized_and_reiterable(self):
        from repro.integration.outerjoin import SiteExports
        from repro.objectdb.objects import LocalObject

        obj = LocalObject(LOid("DB1", "s1"), "Student", {"s-no": 1})
        exports = SiteExports({"DB1": iter([obj])})  # consumed-once input
        for _ in range(2):  # re-readable
            shipped = exports.for_db("DB1")
            assert tuple(shipped.loids) == (obj.loid,)
            assert shipped.columns == {"s-no": [1]}

    def test_mapping_protocol(self):
        from repro.integration.outerjoin import SiteExports

        exports = SiteExports({"DB1": [], "DB2": []})
        assert set(exports) == {"DB1", "DB2"}
        assert len(exports) == 2
        assert len(exports["DB1"]) == 0
        with pytest.raises(KeyError):
            exports["DB9"]

    def test_coerce_is_identity_on_wrapped(self):
        from repro.integration.outerjoin import SiteExports

        wrapped = SiteExports({"DB1": []})
        assert SiteExports.coerce(wrapped) is wrapped
        assert isinstance(SiteExports.coerce({"DB1": []}), SiteExports)


SITES = ("DB1", "DB2", "DB3")


class Federation:
    """Three sites, each with P(k, x, tags*, ref -> D, refs* -> D) and D(k).

    *rows* lists ``(site, local id, goid or None, values)`` for P; every
    D object ``d<i>`` at a site maps to ``gd<i>``.  Objects are stored
    unvalidated, so a single-valued attribute may hold a multi-value.
    """

    def __init__(self, rows, d_ids=("d1", "d2")):
        schemas, self.dbs = {}, {}
        for site in SITES:
            schemas[site] = ComponentSchema.of(site, [
                ClassDef.of("P", [
                    primitive("k"), primitive("x"),
                    primitive("tags", multi_valued=True),
                    complex_attr("ref", "D"),
                    complex_attr("refs", "D", multi_valued=True),
                ]),
                ClassDef.of("D", [primitive("k")]),
            ])
            self.dbs[site] = ComponentDatabase(schemas[site])
        self.schema = integrate_schemas(schemas, [
            ClassCorrespondence.of(cls, [(s, cls) for s in SITES], "k")
            for cls in ("P", "D")
        ])
        p_goids, d_goids = {}, {}
        for site, lid, goid, values in rows:
            loid = LOid(site, lid)
            self.dbs[site].insert(
                LocalObject(loid, "P", dict(values)), validate=False
            )
            if goid is not None:
                p_goids.setdefault(GOid(goid), []).append(loid)
        for site in SITES:
            for lid in d_ids:
                loid = LOid(site, lid)
                self.dbs[site].insert(LocalObject(loid, "D", {"k": lid}))
                d_goids.setdefault(GOid("g" + lid), []).append(loid)
        self.catalog = MappingCatalog()
        self.catalog.register(
            table_from_correspondences("P", p_goids.items())
        )
        self.catalog.register(
            table_from_correspondences("D", d_goids.items())
        )

    def run(self, integrate, exports, schema=None):
        """(objects or None, stats, probe counts, error message)."""
        stats = IntegrationStats()
        before = self.catalog.cache_stats()
        try:
            objects = integrate(
                "P", schema or self.schema, self.catalog, exports, stats
            )
            error = None
        except MappingError as exc:
            objects, error = None, str(exc)
        return objects, stats, self.catalog.cache_stats().delta(before), error

    def both(self, schema=None):
        """The column merge on exported slices vs the reference on the
        stored objects (the same data, every attribute projected)."""
        attrs = ("k", "x", "tags", "ref", "refs")
        slices = {
            site: db.scan_for_export("P", attrs)
            for site, db in self.dbs.items()
        }
        objects = {
            site: list(db.extent("P").values())
            for site, db in self.dbs.items()
        }
        return (
            self.run(integrate_class, slices, schema),
            self.run(integrate_class_rows, objects, schema),
        )


def assert_same(kernel, reference):
    objects, stats, probes, error = kernel
    ref_objects, ref_stats, ref_probes, ref_error = reference
    assert error == ref_error
    if error is not None:
        return
    assert list(objects.items()) == list(ref_objects.items())
    # Same attribute order inside every merged object, too.
    assert [list(o.values) for o in objects.values()] == [
        list(o.values) for o in ref_objects.values()
    ]
    assert stats == ref_stats
    assert probes == ref_probes


def d(site, lid):
    return LOid(site, lid)


class TestColumnMergeParity:
    """The column merge against :func:`integrate_class_rows`."""

    def test_three_site_isomeric_merge_out_of_goid_order(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "x": NULL, "tags": MultiValue([1])}),
            ("DB1", "p2", "g2", {"k": 2, "x": "a"}),
            # DB2 exports in the opposite of GOid order.
            ("DB2", "q3", "g3", {"k": 3, "x": "c3"}),
            ("DB2", "q2", "g2", {"k": 2, "x": "z", "tags": MultiValue([])}),
            ("DB2", "q1", "g1", {"k": 1, "x": "b"}),
            ("DB3", "r1", "g1", {"k": 1, "x": "c", "tags": MultiValue([3])}),
            ("DB3", "r4", "g4", {"k": 4}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        objects = kernel[0]
        assert list(objects) == [GOid(g) for g in ("g1", "g2", "g3", "g4")]
        assert objects[GOid("g1")].get("x") == "b"  # DB1 null, DB2 first
        assert objects[GOid("g2")].get("x") == "a"
        assert objects[GOid("g1")].sources == (
            d("DB1", "p1"), d("DB2", "q1"), d("DB3", "r1"),
        )
        assert objects[GOid("g1")].get("tags") == MultiValue([1, 3])
        assert kernel[1].objects_in == 7 and kernel[1].objects_out == 4

    def test_single_valued_attribute_holding_a_multi_value(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "x": MultiValue(["m1", "m2"])}),
            ("DB2", "q1", "g1", {"k": 1, "x": "b"}),
            ("DB2", "q2", "g2", {"k": 2,
                                 "ref": MultiValue([d("DB2", "d1"),
                                                    d("DB2", "d2")])}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        assert kernel[0][GOid("g1")].get("x") in ("m1", "m2")
        # Both members of the visited contributor are translated.
        assert kernel[0][GOid("g2")].get("ref") in (GOid("gd1"), GOid("gd2"))
        assert kernel[1].translations == 2

    def test_multi_valued_union(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "tags": MultiValue([1, 2]),
                                 "refs": MultiValue([d("DB1", "d1")])}),
            ("DB2", "q1", "g1", {"k": 1, "tags": 5,
                                 "refs": MultiValue([d("DB2", "gone"),
                                                     GOid("gd2")])}),
            ("DB3", "r1", "g1", {"k": 1, "tags": MultiValue([2, 3]),
                                 "refs": d("DB3", "d2")}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        merged = kernel[0][GOid("g1")]
        assert merged.get("tags") == MultiValue([1, 2, 3, 5])
        assert merged.get("refs") == MultiValue([GOid("gd1"), GOid("gd2")])
        assert kernel[1].translations == 3  # the GOid member is not one

    def test_dangling_first_contributor_charged_second_wins(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "ref": d("DB1", "phantom")}),
            ("DB2", "q1", "g1", {"k": 1, "ref": d("DB2", "d1")}),
            ("DB3", "r1", "g1", {"k": 1, "ref": d("DB3", "d2")}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        assert kernel[0][GOid("g1")].get("ref") == GOid("gd1")
        # DB1's dangling member and DB2's are translated; DB3 is never
        # visited.
        assert kernel[1].translations == 2
        # Three P rows and d1 hit; the phantom misses.
        assert (kernel[2].hits, kernel[2].misses) == (4, 1)

    def test_pre_translated_goid_members(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "ref": GOid("gd2"),
                                 "refs": MultiValue([GOid("gd1")])}),
            ("DB2", "q1", "g1", {"k": 1, "ref": d("DB2", "d1"),
                                 "refs": d("DB2", "d2")}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        merged = kernel[0][GOid("g1")]
        assert merged.get("ref") == GOid("gd2")
        assert merged.get("refs") == MultiValue([GOid("gd1"), GOid("gd2")])
        assert kernel[1].translations == 1

    def test_unmapped_object_after_the_first(self):
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1}),
            ("DB1", "ghost", None, {"k": 9}),
            ("DB2", "ghost2", None, {"k": 8}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        assert kernel[3] == (
            "exported object ghost@DB1 of class 'P' has no GOid in the "
            "mapping catalog"
        )

    def test_first_non_reference_in_rank_order(self):
        """g2's bad value is exported before g1's, but the reference
        merges g1 first: the lower rank raises."""
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1}),
            ("DB1", "p2", "g2", {"k": 2, "ref": 42}),
            ("DB2", "q1", "g1", {"k": 1, "ref": 41}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        assert kernel[3] == "complex attribute holds non-reference value 41"

    def test_first_non_reference_across_attributes(self):
        """A later attribute's error at an earlier rank comes first."""
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "refs": MultiValue(["bad"])}),
            ("DB1", "p2", "g2", {"k": 2, "ref": 42}),
        ])
        kernel, reference = fed.both()
        assert_same(kernel, reference)
        assert kernel[3] == (
            "complex attribute holds non-reference value 'bad'"
        )

    def test_complex_attribute_without_a_domain(self):
        """Only an LOid member needs the domain table, so the first
        object (a translated GOid) merges and the second one raises."""
        fed = Federation([
            ("DB1", "p1", "g1", {"k": 1, "ref": GOid("gd1")}),
            ("DB1", "p2", "g2", {"k": 2, "ref": d("DB1", "d1")}),
        ])
        real = fed.schema

        class NoDomain:
            def databases_of(self, cls):
                return real.databases_of(cls)

            def cls(self, cls):
                return SimpleNamespace(attributes=[
                    SimpleNamespace(
                        name=a.name, is_complex=a.is_complex,
                        multi_valued=a.multi_valued, domain=None,
                    ) if a.name == "ref" else a
                    for a in real.cls(cls).attributes
                ])

        kernel, reference = fed.both(NoDomain())
        assert_same(kernel, reference)
        assert kernel[3] == "complex attribute without a domain class"


class TestCentralizedRepairSnapshot:
    def test_write_before_recertify_keeps_the_shipped_exports(
        self, school, school_engine
    ):
        """CA repair fuses the exports the degraded run shipped: a write
        at a reachable site afterwards must not reach them."""
        baseline = school_engine.execute(Q1_TEXT, "CA").results.to_dicts()
        degraded = school_engine.execute(
            Q1_TEXT, "CA",
            options=ExecutionOptions(
                fault_plan=FaultPlan.single_site_loss("DB3")
            ),
        )
        assert degraded.repair is not None and not degraded.results.certain

        kelly = school.db("DB2").get(LOid("DB2", "t1'"))
        kelly.values["speciality"] = "network"
        school.note_mutation("DB2", kelly)
        after_write = school_engine.execute(Q1_TEXT, "CA").results.to_dicts()
        assert after_write != baseline  # the write changes the answer

        repaired = school_engine.recertify(degraded)
        assert repaired.repair_summary.sites_contacted == ("DB3",)
        assert repaired.results.to_dicts() == baseline
