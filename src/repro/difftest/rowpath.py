"""The per-object row path as a test double: the kernels' reference.

Every :class:`~repro.objectdb.database.ComponentDatabase` entry point
tries its columnar kernel first and runs the per-object row evaluator
only where the kernel cannot (error-marker rows, unhashable operands,
LOids outside the class extent).  The row evaluator is also the
reference the kernels must reproduce byte for byte.  This module
reaches it without an engine option: :class:`RowPathDatabase` is a view
of a database whose kernel attempts always decline, and
:func:`row_path_view` swaps such views into a copy of a federation.

The oracle's ``columnar`` invariant, the hot-path bench's row cells and
the kernel parity tests all compare a federation against its row-path
view.
"""

from __future__ import annotations

import dataclasses

from repro.core.system import DistributedSystem
from repro.objectdb.database import ComponentDatabase


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
