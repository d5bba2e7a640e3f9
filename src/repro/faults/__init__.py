"""Deterministic fault injection and self-healing session supervision.

Layered the same way as :mod:`repro.obs`: a plan/injector pair attaches
to the mailbox communicator through a no-op-when-detached seam, a
supervisor (:func:`run_supervised_session`, the one epoch loop) wraps the
Figure-1 session in epochs with checkpoint/restart and applies
:mod:`repro.elastic` pool resizes at epoch boundaries, and
degradation/retry policies configure the soft-failure behaviour.
"""

from repro.faults.heartbeat import HeartbeatHandle, HeartbeatMonitor
from repro.faults.injector import FaultDetected, FaultInjector, InjectedCrash
from repro.faults.plan import (
    PLAN_NAMES,
    FaultPlan,
    MessageFault,
    RankCrash,
    RankStall,
    named_plan,
    plan_descriptions,
    seeded_plan,
)
from repro.faults.policy import BackoffPolicy, DegradePolicy, StaleCorr
from repro.faults.supervisor import (
    ChaosUnrecoverable,
    SupervisedRun,
    fold_obs_counters,
    run_supervised_session,
    session_results_equal,
)

__all__ = [
    "BackoffPolicy",
    "ChaosUnrecoverable",
    "DegradePolicy",
    "FaultDetected",
    "FaultInjector",
    "FaultPlan",
    "HeartbeatHandle",
    "HeartbeatMonitor",
    "InjectedCrash",
    "MessageFault",
    "PLAN_NAMES",
    "RankCrash",
    "RankStall",
    "StaleCorr",
    "SupervisedRun",
    "fold_obs_counters",
    "named_plan",
    "plan_descriptions",
    "run_supervised_session",
    "seeded_plan",
    "session_results_equal",
]
