"""CA_G3 on the columnar kernels against its per-object reference.

:func:`~repro.core.strategies.centralized.evaluate_global_extent` builds
one columnar view over a materialized global extent; the per-object
evaluator it replaced lives on as
:func:`~repro.difftest.rowpath.evaluate_global_extent_rows`.  Rows,
``NullAttr`` conditions, meter charges and the first exception must be
identical, object by object, on hand-built extents whose insertion
order is not GOid order.
"""

from operator import attrgetter

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.predicates import EvalMeter
from repro.core.query import Op, Path, Predicate, Query
from repro.core.strategies.centralized import (
    evaluate_global_extent,
    materialize_query,
)
from repro.difftest.rowpath import evaluate_global_extent_rows
from repro.errors import QueryError
from repro.integration.outerjoin import GlobalExtent
from repro.objectdb.columnar import ColumnarRows
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject
from repro.objectdb.values import MultiValue, NULL
from repro.sqlx import parse_query
from repro.workload.paper_example import build_school_federation


def make_extent(g_rows, h_rows=()):
    """Global classes G(a, name, tags, ref -> H) and H(x, ref -> H)."""
    extent = GlobalExtent()
    for cls, rows in (("G", g_rows), ("H", h_rows)):
        extent.install(cls, {
            GOid(name): IntegratedObject(GOid(name), cls, dict(values))
            for name, values in rows
        })
    return extent


def mixed_extent():
    """Nulls, multi-values and every kind of reference, inserted out of
    GOid order ("g1" < "g10" < "g2" < ... as strings)."""
    return make_extent(
        [
            ("g5", {"a": 1, "name": "e", "tags": MultiValue([1, 2]),
                    "ref": GOid("h1")}),
            ("g2", {"a": NULL, "name": "b", "ref": GOid("h2")}),
            ("g10", {"a": 3, "name": "x", "tags": MultiValue([]),
                     "ref": GOid("gone")}),  # dangling
            ("g1", {"a": 1, "name": NULL, "ref": GOid("h3")}),
            ("g3", {}),  # everything missing
            ("g6", {"a": 2, "tags": MultiValue([3]),
                    "ref": LOid("DB", "x")}),  # never resolves globally
        ],
        [
            ("h1", {"x": 10, "ref": GOid("h2")}),
            ("h2", {"x": NULL, "ref": GOid("h9")}),
            ("h3", {"x": 7, "ref": GOid("h1")}),
        ],
    )


def pred(path, op, operand):
    return Predicate(path=Path.parse(path), op=op, operand=operand)


TARGETS = (Path.of("name"), Path.of("ref", "x"), Path.of("ref", "ref", "x"))

WHERES = {
    "none": (),
    "a=1": ((pred("a", Op.EQ, 1),),),
    "a<2": ((pred("a", Op.LT, 2),),),
    "a>=1": ((pred("a", Op.GE, 1),),),
    "ref.x=10": ((pred("ref.x", Op.EQ, 10),),),
    "ref.ref.x>5": ((pred("ref.ref.x", Op.GT, 5),),),
    "and": ((pred("a", Op.LE, 2), pred("ref.ref.x", Op.NE, 10)),),
    "dnf": (
        (pred("a", Op.EQ, 1), pred("ref.x", Op.EQ, 10)),
        (pred("ref.ref.x", Op.LT, 5),),
        (pred("tags", Op.CONTAINS, 2),),
    ),
    "repeated": (
        (pred("a", Op.EQ, 1),),
        (pred("a", Op.EQ, 1), pred("name", Op.EQ, "b")),
    ),
    "multi-value": ((pred("tags", Op.NE, 3), pred("tags", Op.GT, 1)),),
}


def both(query, extent, conditions=True):
    """(kernel, kernel meter, reference, reference meter)."""
    kernel_meter, row_meter = EvalMeter(), EvalMeter()
    kernel = evaluate_global_extent(query, extent, kernel_meter, conditions)
    rows = evaluate_global_extent_rows(query, extent, row_meter, conditions)
    return kernel, kernel_meter, rows, row_meter


class TestParity:
    @pytest.mark.parametrize("name", list(WHERES))
    @pytest.mark.parametrize("conditions", [True, False])
    def test_rows_conditions_and_meter_match(self, name, conditions):
        query = Query(range_class="G", targets=TARGETS, where=WHERES[name])
        kernel, kernel_meter, rows, row_meter = both(
            query, mixed_extent(), conditions
        )
        assert kernel.to_dicts() == rows.to_dicts()
        for left, right in zip(kernel.all_results(), rows.all_results()):
            assert left == right
            assert left.conditions == right.conditions
        assert kernel_meter == row_meter

    def test_maybe_rows_carry_null_attr_atoms(self):
        query = Query(range_class="G", targets=TARGETS,
                      where=WHERES["dnf"])
        kernel = evaluate_global_extent(query, mixed_extent())
        assert kernel.maybe
        for row in kernel.maybe:
            assert [c.attr for c in row.conditions] == sorted(
                str(p) for p in row.unsolved
            )

    def test_false_rows_charge_the_where_clause_only(self):
        query = Query(range_class="G", targets=TARGETS,
                      where=((pred("a", Op.EQ, 99),),))
        kernel, kernel_meter, rows, row_meter = both(query, mixed_extent())
        assert not kernel.certain and not rows.certain
        assert [r.goid for r in kernel.maybe] == [GOid("g2"), GOid("g3")]
        assert kernel_meter == row_meter

    def test_unhashable_operand_is_evaluated_uncached(self):
        # No fallback exists: the view builds such columns uncached.
        # g3's null ``a`` leaves the unhashable predicate unsolved, in
        # both disjuncts: the maybe row lists it once.
        extent = make_extent(
            [("g2", {"a": [1]}), ("g1", {"a": 2}), ("g3", {})]
        )
        query = Query(range_class="G", targets=(Path.of("a"),), where=(
            (pred("a", Op.EQ, [1]),),
            (pred("a", Op.EQ, [1]), pred("name", Op.EQ, "z")),
        ))
        kernel, kernel_meter, rows, row_meter = both(query, extent)
        assert [r.goid for r in kernel.certain] == [GOid("g2")]
        assert [r.goid for r in kernel.maybe] == [GOid("g3")]
        assert [str(p) for p in kernel.maybe[0].unsolved] == [
            "a = [1]", "name = 'z'",
        ]
        assert kernel.to_dicts() == rows.to_dicts()
        for left, right in zip(kernel.all_results(), rows.all_results()):
            assert left == right
            assert left.conditions == right.conditions
        assert kernel_meter == row_meter


def error_extent():
    """Failing objects inserted in the opposite of GOid order."""
    return make_extent([
        ("g5", {"a": 1, "name": "e"}),
        ("g4", {"a": 2, "name": 7}),
        ("g3", {"a": 1, "name": NULL}),
        ("g2", {"a": 2, "name": "b"}),
    ])


ERRORS = {
    # g2 fails first in GOid order, though inserted last.
    "order-compare": (
        ((pred("name", Op.LT, 5),),), (Path.of("a"),),
        "cannot order-compare 'b' with 5",
    ),
    # Target walks run on kept rows only: g2/g4 are FALSE, g3's name
    # is missing, g5 holds a non-reference mid-path.
    "target-on-kept-row": (
        ((pred("a", Op.EQ, 1),),), (Path.of("name", "x"),),
        "path name.x: step 'name' holds non-reference 'e' but is not final",
    ),
    "mid-path-predicate": (
        ((pred("a", Op.EQ, 2), pred("name.x", Op.EQ, 1)),), (Path.of("a"),),
        "path name.x: step 'name' holds non-reference 'b' but is not final",
    ),
    # Both predicates fail on g2; the first one in clause order raises.
    "first-predicate-of-row": (
        ((pred("a", Op.LT, "s"), pred("name.x", Op.EQ, 1)),),
        (Path.of("a"),),
        "cannot order-compare 2 with 's'",
    ),
    # g2's target walk fails before g4's predicate does.
    "earlier-target-beats-later-predicate": (
        ((pred("name", Op.LT, "c"),),), (Path.of("a", "x"),),
        "path a.x: step 'a' holds non-reference 2 but is not final",
    ),
}


class TestCanonicalErrors:
    @pytest.mark.parametrize("name", list(ERRORS))
    def test_kernel_raises_the_reference_error(self, name):
        where, targets, message = ERRORS[name]
        query = Query(range_class="G", targets=targets, where=where)
        with pytest.raises(QueryError) as reference:
            evaluate_global_extent_rows(query, error_extent())
        with pytest.raises(QueryError) as kernel:
            evaluate_global_extent(query, error_extent())
        assert str(reference.value) == message
        assert str(kernel.value) == message

    def test_engine_raises_the_reference_error_under_ca(self):
        system = build_school_federation()
        text = "Select X.name From Student X Where X.name < 5"
        with pytest.raises(QueryError) as reference:
            evaluate_global_extent_rows(
                parse_query(text),
                materialize_query(system, parse_query(text)),
            )
        with pytest.raises(QueryError) as engine:
            GlobalQueryEngine(system).execute(text, "CA")
        assert "cannot order-compare" in str(reference.value)
        assert str(engine.value) == str(reference.value)


class TestPrefixSharedWalks:
    def test_shared_prefix_dereferences_once_per_row(self):
        extent = mixed_extent()
        calls = []

        def deref(ref):
            calls.append(ref)
            return extent.deref(ref)

        rows = list(extent.extent("G").values())
        view = ColumnarRows(rows, deref, attrgetter("goid"))
        view.walk(Path.of("ref", "ref", "x"))
        first = len(calls)
        view.walk(Path.of("ref", "ref", "ref"))
        view.walk(Path.of("ref", "x"))
        assert len(calls) == first  # both prefixes already reached
        # Charges stay per walk, like the row path's.
        assert view.walk(Path.of("ref", "x")).derefs != view.walk(
            Path.of("ref", "ref", "x")
        ).derefs
