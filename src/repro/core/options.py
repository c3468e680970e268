"""Per-execution options, collapsed into one immutable value object.

:class:`ExecutionOptions` replaces the ``fault_plan`` / ``policy`` /
``fault_seed`` / ``batch_checks`` / ``failover`` override-kwarg sprawl
that :meth:`GlobalQueryEngine.execute` and ``compare`` used to thread
through every call.  The engine builds each execution's
:class:`~repro.faults.injector.ExecutionContext` from it, and strategies
read their settings from ``ctx.options``.  An engine (and each
:class:`~repro.core.session.EngineSession`) holds one instance as its
default; callers derive variants with :meth:`ExecutionOptions.with_`::

    opts = engine.options.with_(batch_checks=False)
    engine.execute(query, "PL", options=opts)

The object is frozen, so a derived instance can never mutate the
engine-wide defaults — the property that makes concurrent sessions over
one shared federation safe.  Policies are normalized at construction
(string presets and inline specs become
:class:`~repro.faults.policy.ExecutionPolicy` objects), so two options
values compare equal iff they drive executions identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.faults.plan import FaultPlan
from repro.faults.policy import ExecutionPolicy, resolve_policy

#: Field names accepted by :meth:`ExecutionOptions.with_` — the only
#: per-execution settings there are; each reaches a strategy through
#: ``ExecutionContext.options``.
OPTION_FIELDS = (
    "fault_plan",
    "policy",
    "fault_seed",
    "batch_checks",
    "failover",
    "columnar",
    "planner",
    "conditions",
)

#: Valid values of :attr:`ExecutionOptions.planner` (mirrored by
#: :data:`repro.planner.PLANNER_MODES`; duplicated here to keep this
#: module import-light).
PLANNER_MODES = ("static", "feedback", "constraints", "full")


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything configurable about one execution, besides the strategy.

    Attributes:
        fault_plan: deterministic outages/link degradation to inject;
            ``None`` (or an inactive plan) makes the execution context
            inert, so the run is byte-identical to a fault-free one.
        policy: fault-handling policy — an
            :class:`~repro.faults.policy.ExecutionPolicy`, a preset name,
            or an inline spec like ``"degrade:timeout=0.5,retries=3"``.
        fault_seed: seed for loss draws and backoff jitter.
        batch_checks: coalesce phase-O check/chase messages per
            ``(src, dst)`` link (``False`` restores the historical
            one-message-per-request wire protocol).
        failover: resilient dispatch under a fault plan — circuit
            breakers, relay rerouting and verdict-aware demotion
            (``False`` restores eager skip-and-demote).
        columnar: evaluate local queries, assistant checks, and the
            outerjoin merge over the columnar extent kernels
            (``False`` forces the per-object row path everywhere; answers
            are byte-identical either way — the transparency contract the
            difftest oracle enforces).
        planner: adaptive-planning mode — ``"static"`` (default; the
            analytic model's unmodified predictions, no pruning),
            ``"feedback"`` (AUTO's pick consults observed stalls,
            breaker history and span queue delays), ``"constraints"``
            (localized strategies prune sites/checks via the per-site
            constraint catalog), or ``"full"`` (both).  Every mode is
            answer-identical to ``static`` — the soundness contract the
            difftest oracle's ``planner`` invariant enforces.
        conditions: attach discharge conditions (``repro.conditions``
            atoms) to maybe/uncertified rows and capture the repair
            state that makes a degraded report incrementally
            re-certifiable via ``engine.recertify`` (``False`` restores
            bare notes-only degradation; such reports cannot be
            repaired).  Conditions never appear in exported answers, so
            the flag cannot change bytes on the wire.
    """

    fault_plan: Optional[FaultPlan] = None
    policy: Union[str, ExecutionPolicy, None] = None
    fault_seed: int = 0
    batch_checks: bool = True
    failover: bool = True
    columnar: bool = True
    planner: str = "static"
    conditions: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", resolve_policy(self.policy))
        if self.planner not in PLANNER_MODES:
            raise TypeError(
                f"unknown planner mode {self.planner!r}; "
                f"choose from {list(PLANNER_MODES)}"
            )

    def with_(self, **overrides: object) -> "ExecutionOptions":
        """A copy with *overrides* applied; unknown names raise."""
        unknown = set(overrides) - set(OPTION_FIELDS)
        if unknown:
            raise TypeError(
                f"unknown execution option(s): {sorted(unknown)}; "
                f"choose from {list(OPTION_FIELDS)}"
            )
        return dataclasses.replace(self, **overrides)

    @property
    def faults_active(self) -> bool:
        """Whether this options value injects any faults at all."""
        return self.fault_plan is not None and self.fault_plan.active

    def describe(self) -> str:
        """One-line summary (CLI/bench reporting)."""
        parts = [
            f"policy={self.policy.name}",
            f"fault_seed={self.fault_seed}",
            f"batch_checks={self.batch_checks}",
            f"failover={self.failover}",
            f"columnar={self.columnar}",
            f"planner={self.planner}",
            f"conditions={self.conditions}",
        ]
        if self.fault_plan is not None:
            parts.insert(0, (
                f"faults(outages={len(self.fault_plan.outages)},"
                f"links={len(self.fault_plan.links)})"
            ))
        return " ".join(parts)
