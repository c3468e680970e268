"""The paper's query-execution strategies.

* :class:`CentralizedStrategy` (CA) — ship everything, outerjoin, evaluate.
* :class:`BasicLocalizedStrategy` (BL) — evaluate locally, then check
  assistants for surviving maybe results.
* :class:`ParallelLocalizedStrategy` (PL) — dispatch assistant checks
  first, overlap them with local evaluation.
* ``BL-S`` / ``PL-S`` — signature-filtered variants (future-work
  extension).
"""

from repro.core.strategies.adaptive import (
    AdaptiveStrategy,
    NullRatioSample,
    extract_params,
    extract_params_ex,
)
from repro.core.strategies.base import (
    DispatchPlan,
    Strategy,
    StrategyResult,
    collect_verdicts,
    plan_dispatch,
    run_checks,
)
from repro.core.strategies.centralized import CentralizedStrategy
from repro.core.strategies.localized import (
    BasicLocalizedStrategy,
    ParallelLocalizedStrategy,
    SignatureBasicLocalizedStrategy,
    SignatureParallelLocalizedStrategy,
)
from repro.core.strategies.registry import (
    DEFAULT_REGISTRY,
    StrategyInfo,
    StrategyRegistry,
    resolve,
)

__all__ = [
    "DEFAULT_REGISTRY",
    "AdaptiveStrategy",
    "BasicLocalizedStrategy",
    "CentralizedStrategy",
    "DispatchPlan",
    "NullRatioSample",
    "ParallelLocalizedStrategy",
    "SignatureBasicLocalizedStrategy",
    "SignatureParallelLocalizedStrategy",
    "Strategy",
    "StrategyInfo",
    "StrategyRegistry",
    "StrategyResult",
    "collect_verdicts",
    "extract_params",
    "extract_params_ex",
    "plan_dispatch",
    "resolve",
    "run_checks",
]
