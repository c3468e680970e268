"""Stored objects of a component database.

A :class:`LocalObject` is one object instance in a component database: a
LOid, the class it belongs to, and a value per attribute.  Attributes whose
value was never set, or set to ``NULL``, are *missing* for this object
(paper, Section 2.1: original null values are one kind of missing data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.errors import ObjectStoreError
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.schema import ClassDef
from repro.objectdb.values import MultiValue, NULL, Value, is_null


@dataclass
class LocalObject:
    """One object instance stored at a component database.

    Attributes:
        loid: the object's local identifier.
        class_name: the component class the object belongs to.
        values: attribute name -> stored value.  Absent keys read as NULL.
    """

    loid: LOid
    class_name: str
    values: Dict[str, Value] = field(default_factory=dict)

    def get(self, attribute: str) -> Value:
        """Return the stored value of *attribute*, or NULL when missing."""
        return self.values.get(attribute, NULL)

    def has_value(self, attribute: str) -> bool:
        """True when *attribute* holds a non-null value on this object."""
        return not is_null(self.get(attribute))

    def null_attributes(self) -> List[str]:
        """Names of attributes stored explicitly as NULL."""
        return [name for name, value in self.values.items() if is_null(value)]

    def validate_against(self, cdef: ClassDef) -> None:
        """Raise :class:`ObjectStoreError` if values violate *cdef*.

        Checks that every stored attribute is declared, that complex
        attributes hold references (or NULL), and that primitive attributes
        do not hold references.
        """
        if cdef.name != self.class_name:
            raise ObjectStoreError(
                f"object {self.loid} has class {self.class_name!r} but was "
                f"validated against {cdef.name!r}"
            )
        for name, value in self.values.items():
            if not cdef.has_attribute(name):
                raise ObjectStoreError(
                    f"object {self.loid} stores undeclared attribute {name!r}"
                )
            if is_null(value):
                continue
            attr = cdef.attribute(name)
            members = list(value) if isinstance(value, MultiValue) else [value]
            for member in members:
                is_ref = isinstance(member, (LOid, GOid))
                if attr.is_complex and not is_ref:
                    raise ObjectStoreError(
                        f"object {self.loid}: complex attribute {name!r} "
                        f"holds non-reference {member!r}"
                    )
                if not attr.is_complex and is_ref:
                    raise ObjectStoreError(
                        f"object {self.loid}: primitive attribute {name!r} "
                        f"holds reference {member!r}"
                    )
            if isinstance(value, MultiValue) and not attr.multi_valued:
                raise ObjectStoreError(
                    f"object {self.loid}: attribute {name!r} is single-valued "
                    "but holds a MultiValue"
                )


@dataclass
class IntegratedObject:
    """An object of a *global* class materialized at the processing site.

    Produced by the outerjoin integration
    (:mod:`repro.integration.outerjoin`): attribute values are merged from
    all isomeric objects, and complex attributes reference GOids rather
    than LOids (paper, Figure 6).

    Attributes:
        goid: the global identifier of the real-world entity.
        class_name: the global class name.
        values: attribute name -> merged value (GOid refs for complex ones).
        sources: the LOids of the isomeric objects that contributed.
    """

    goid: GOid
    class_name: str
    values: Dict[str, Value] = field(default_factory=dict)
    sources: Tuple[LOid, ...] = ()

    def get(self, attribute: str) -> Value:
        return self.values.get(attribute, NULL)

    def has_value(self, attribute: str) -> bool:
        return not is_null(self.get(attribute))


def iter_non_null(
    objects: Mapping[LOid, LocalObject], attribute: str
) -> Iterator[LocalObject]:
    """Yield the objects in *objects* holding a non-null *attribute*."""
    for obj in objects.values():
        if obj.has_value(attribute):
            yield obj
