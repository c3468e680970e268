"""repro — reproduction of Koh & Chen, ICDCS 1996.

"Query Execution Strategies for Missing Data in Distributed
Heterogeneous Object Databases": maybe-aware global query processing
over a federation of heterogeneous object databases, with the paper's
three execution strategies (CA, BL, PL), an object-database substrate,
schema integration with GOid mapping tables, a discrete-event cost
simulator, and the paper's full performance study.

Quickstart::

    from repro import GlobalQueryEngine
    from repro.workload.paper_example import build_school_federation, Q1_TEXT

    system = build_school_federation()
    engine = GlobalQueryEngine(system)
    outcome = engine.execute(Q1_TEXT, strategy="BL")
    print(outcome.results.certain_rows())  # [('Hedy', 'Kelly')]
    print(outcome.results.maybe_rows())    # [('Tony', 'Haley')]
"""

from repro.core import (
    DistributedSystem,
    ExecutionReport,
    GlobalQueryEngine,
    GlobalResult,
    Op,
    Path,
    Predicate,
    Query,
    ResultKind,
    ResultSet,
    TV,
)
from repro.core.strategies import (
    BasicLocalizedStrategy,
    CentralizedStrategy,
    ParallelLocalizedStrategy,
    SignatureBasicLocalizedStrategy,
    SignatureParallelLocalizedStrategy,
    Strategy,
    StrategyResult,
)
from repro.errors import ReproError
from repro.sim.costs import CostModel, PAPER_COSTS

__version__ = "1.0.0"

__all__ = [
    "BasicLocalizedStrategy",
    "CentralizedStrategy",
    "CostModel",
    "DistributedSystem",
    "ExecutionReport",
    "GlobalQueryEngine",
    "GlobalResult",
    "Op",
    "PAPER_COSTS",
    "ParallelLocalizedStrategy",
    "Path",
    "Predicate",
    "Query",
    "ReproError",
    "ResultKind",
    "ResultSet",
    "SignatureBasicLocalizedStrategy",
    "SignatureParallelLocalizedStrategy",
    "Strategy",
    "StrategyResult",
    "TV",
]
