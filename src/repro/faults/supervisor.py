"""Self-healing session supervision: epochs, checkpoints, restart.

The supervisor slices a Figure-1 session's interval axis into *epochs*
(``checkpoint_every`` intervals each) and runs one SPMD session per
epoch.  Each non-final epoch ends in a pause: end-of-stream drains all
in-flight traffic (so the cut is consistent), every stateful component
snapshots, and the snapshots are allgathered into a checkpoint.  The
next epoch rebuilds the workflow from scratch (fresh processes/threads,
fresh queues), restores the checkpoint, points the collectors' replay
range at the watermark, and continues the stream.

When an epoch fails — an injected crash, a detected sequence gap, a
stalled rank timing out — the supervisor rebuilds, restores the *same*
checkpoint and re-runs the epoch at the next global attempt number
(attempt-scoped fault plans therefore do not re-fire).  Because
component snapshots are deep copies and the collectors re-derive their
data deterministically, a recovered session is bitwise-identical to a
fault-free run: that is the headline invariant the chaos suite asserts.

The pool size can also change between epochs, through the same
drain/checkpoint/rebuild/restore protocol:

- **voluntary** — a :class:`~repro.elastic.plan.ResizePlan` names target
  sizes at epoch boundaries, and a live
  :class:`~repro.marketminer.session.SessionControl` can queue a resize
  at any time (applied at the next rebuild, never mid-epoch);
- **involuntary** — *crash-as-shrink*: when an epoch exhausts its
  restart budget and the :class:`~repro.faults.DegradePolicy` allows it
  (``shrink_on_crash``), the supervisor drops one rank and retries
  instead of giving up, down to ``min_ranks``.

Every world is built through the :mod:`repro.elastic.world` seam, and
all pair shards are rank-count-independent, so a rescaled session is
bitwise-identical to a fixed-size one — positions, signals, correlation
matrices and folded domain counters alike.

The chaos log collects only deterministic data (fault events, failure
classifications by rank and exception type) so identical (plan, seed)
runs produce identical logs on the thread and process backends.  Its
entries are ``("run", epoch, attempt, "ok", fault events)``,
``("restart", epoch, attempt, classification)``,
``("resize", epoch, old, new, moved)`` with the component moves, and
``("shrink", epoch, attempt, old, new, classification)`` for a
crash-as-shrink.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.elastic import world
from repro.elastic.plan import ResizePlan
from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradePolicy
from repro.marketminer.scheduler import WorkflowRunner
from repro.mpi.api import MpiError
from repro.mpi.topology import placement_moves

#: Exception types whose messages are deterministic by construction and
#: therefore safe to include verbatim in the chaos log.
_DETERMINISTIC_DETAILS = frozenset({"InjectedCrash", "FaultDetected"})


class ChaosUnrecoverable(RuntimeError):
    """An epoch kept failing past the restart budget.

    Carries the last failure's deterministic classification plus the
    attempt/restart counts at the point of giving up, so a caller (or an
    operator reading the serving layer's error string) sees *what* kept
    dying and *how hard* the supervisor tried without parsing the log.
    """

    def __init__(
        self,
        message: str,
        failure: tuple = (),
        attempts: int = 0,
        restarts: int = 0,
    ):
        super().__init__(message)
        #: Last failure's ``(rank, exc type, detail)`` classification.
        self.failure = failure
        #: Total attempts (successful + failed) before giving up.
        self.attempts = attempts
        #: Total restarts across all epochs before giving up.
        self.restarts = restarts


@dataclass(frozen=True)
class SupervisedRun:
    """Outcome of a supervised session.

    ``obs_reports`` holds the merged ``_obs`` report of every
    *successful* epoch, in epoch order (empty unless the session ran
    with observability).  Failed attempts never contribute — their
    telemetry dies with the attempt — so folding these reports with
    :func:`fold_obs_counters` yields cumulative counters that a
    recovered session and a fault-free one must agree on.
    """

    results: dict
    log: tuple
    attempts: int
    restarts: int
    checkpoints: int
    obs_reports: tuple = ()
    #: Pool size each successful epoch ran at, in epoch order.  Constant
    #: for a fixed-size session; steps at resize/shrink boundaries.
    pool_sizes: tuple = ()
    #: Applied pool changes as ``(epoch, old, new)``, voluntary and
    #: crash-as-shrink alike, in application order.
    resizes: tuple = ()


def _classify_failure(exc: BaseException) -> tuple:
    """Deterministic (rank, exc type, detail) triples for a failed run."""
    from repro.mpi.inproc import SpmdFailure
    from repro.mpi.procs import RemoteRankError

    if isinstance(exc, SpmdFailure):
        items = [
            (rank, type(err).__name__, str(err))
            for rank, err in exc.errors.items()
        ]
    elif isinstance(exc, RemoteRankError):
        items = [
            (rank, exc_type, message)
            for rank, (exc_type, message, _tb) in exc.errors.items()
        ]
    else:
        items = [(-1, type(exc).__name__, str(exc))]
    return tuple(
        (rank, exc_type, message if exc_type in _DETERMINISTIC_DETAILS else "")
        for rank, exc_type, message in sorted(
            items, key=lambda item: (item[0], item[1])
        )
    )


def _freeze_fault_events(faults: dict | None) -> tuple:
    if not faults:
        return ()
    return tuple(
        (rank, tuple(tuple(event) for event in events))
        for rank, events in sorted(faults.items())
    )


def _session_sources(workflow) -> dict[str, Any]:
    return {
        name: comp
        for name, comp in workflow.components.items()
        if comp.is_source
    }


def _session_smax(workflow) -> int:
    """The session's interval count, read off the source components."""
    smaxes = set()
    for name, comp in _session_sources(workflow).items():
        grid = getattr(comp, "grid", None)
        if grid is None:
            raise TypeError(
                f"source component {name!r} has no grid; supervised "
                f"sessions need grid-ranged sources"
            )
        smaxes.add(grid.smax)
    if len(smaxes) != 1:
        raise ValueError(
            f"sources disagree on the session grid (smax values {smaxes})"
        )
    return smaxes.pop()


def _epochs(smax: int, checkpoint_every: int | None) -> list[tuple[int, int]]:
    if checkpoint_every is None:
        return [(0, smax)]
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    return [
        (start, min(start + checkpoint_every, smax))
        for start in range(0, smax, checkpoint_every)
    ]


def _driver_flight(flight_dump: str | None, event: dict) -> None:
    """Append one driver-side elasticity event to the flight directory.

    Per-rank recorders die with their world; resize decisions are made
    by the driver *between* worlds, so they get their own JSONL stream
    (``driver-elastic.jsonl``).  Events carry only deterministic fields.
    """
    if flight_dump is None:
        return
    os.makedirs(flight_dump, exist_ok=True)
    path = os.path.join(flight_dump, "driver-elastic.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(event, sort_keys=True) + "\n")


def _validate_plan(
    plan: ResizePlan, n_epochs: int, backend: str
) -> dict[int, int]:
    """Pointed up-front validation: bad plans fail before any epoch runs."""
    if plan.max_epoch >= n_epochs:
        raise ValueError(
            f"resize plan names epoch {plan.max_epoch} but the session has "
            f"only {n_epochs} epoch(s); pass a smaller checkpoint_every or "
            f"an earlier boundary"
        )
    for request in plan.requests:
        world.check_pool_size(request.size, backend)
        if request.epoch > 0 and n_epochs < 2:
            raise ValueError(
                f"resize at epoch {request.epoch} needs checkpoints "
                f"(checkpoint_every) to create that boundary"
            )
    return plan.by_epoch()


def run_supervised_session(
    build: Callable[[], Any],
    size: int = 3,
    backend: str = "thread",
    plan: FaultPlan | None = None,
    checkpoint_every: int | None = None,
    max_restarts: int = 3,
    collect_stats: bool = False,
    obs_enabled: bool = False,
    obs=None,
    backend_options: dict | None = None,
    flight_dump: str | None = None,
    obs_hook=None,
    control=None,
    resize=None,
    degrade: DegradePolicy | None = None,
) -> SupervisedRun:
    """Run a Figure-1 session under supervision (and optionally chaos).

    ``build`` is a zero-argument workflow factory: the supervisor calls
    it once per attempt, because recovery means *rebuilding* the session
    (fresh ranks, fresh queues) and restoring component state from the
    last checkpoint — a crashed rank is respawned by the next
    ``run_spmd``, not resurrected in place.

    ``max_restarts`` bounds retries per epoch; past it the last failure
    re-raises wrapped in :class:`ChaosUnrecoverable`.

    ``flight_dump`` names a directory for per-rank flight-recorder
    dumps: every attempt's ranks dump their recent-event rings there
    (``rank<r>-attempt<a>.jsonl``) — with the failure class as the
    recorded reason when the attempt dies, which is the "last N events
    before the crash" artefact the chaos workflow exists to produce.

    ``obs_hook`` is forwarded to every attempt's
    :meth:`~repro.marketminer.scheduler.WorkflowRunner.run` so a live
    telemetry hub can re-register each rebuilt rank's registry (thread
    backend only).

    ``control`` is an optional
    :class:`~repro.marketminer.session.SessionControl`: its ``gate`` is
    called before every epoch attempt (the consistent-cut boundary where
    pause/kill take effect — a kill raises
    :class:`~repro.marketminer.session.SessionKilled` out of this
    function) and ``on_checkpoint`` receives every checkpoint, which is
    what the serving layer's live position/signal queries read.

    ``resize`` (a :class:`~repro.elastic.ResizePlan`, a single
    :class:`~repro.elastic.ResizeRequest`, or an iterable of requests)
    schedules voluntary pool resizes at epoch boundaries.  It is
    validated up front — unknown epochs, sizes below 1 and sizes above
    the backend's capacity raise pointed ``ValueError``\\ s before
    anything runs.  ``control`` can also queue resizes live
    (``request_resize``); they are consumed at the next rebuild —
    mid-epoch requests are deferred to the boundary, which is the only
    consistent cut.

    ``degrade`` (a :class:`~repro.faults.DegradePolicy` with
    ``shrink_on_crash=True``) lets an epoch that exhausts its restart
    budget shed one rank and retry (down to ``degrade.min_ranks``)
    instead of raising :class:`ChaosUnrecoverable`.
    """
    options = dict(backend_options or {})
    resize_plan = ResizePlan.of(resize)
    world.check_pool_size(size, backend)
    smax = _session_smax(build())
    epochs = _epochs(smax, checkpoint_every)
    plan_targets = _validate_plan(resize_plan, len(epochs), backend)
    metrics = obs.metrics if obs is not None and obs.enabled else None

    log: list[tuple] = []
    obs_reports: list[dict] = []
    pool_sizes: list[int] = []
    resizes: list[tuple[int, int, int]] = []
    checkpoint: dict[str, Any] | None = None
    pool = size
    attempt = 0
    restarts = 0
    checkpoints = 0
    if control is not None:
        control.note_pool(pool)

    def apply_resize(epoch: int, target: int, runner: WorkflowRunner) -> None:
        nonlocal pool
        moved = placement_moves(
            runner.rank_map(pool), runner.rank_map(target)
        )
        log.append(("resize", epoch, pool, target, moved))
        resizes.append((epoch, pool, target))
        _driver_flight(
            flight_dump,
            {
                "event": "resize", "epoch": epoch,
                "old": pool, "new": target,
                "moved": [list(m) for m in moved],
            },
        )
        if metrics is not None:
            metrics.counter("recovery.resizes").inc()
        old = pool
        pool = target
        if control is not None:
            control.resize_applied(epoch, old, pool)

    for epoch, (start, stop) in enumerate(epochs):
        final = stop == smax
        epoch_failures = 0
        epoch_started = False
        while True:
            if control is not None:
                control.gate(epoch)
            # Voluntary resizes land here — after the gate (so commands
            # drained while parked in pause are visible) and before the
            # build, which is the teardown/rebuild boundary.  The planned
            # target applies once, on the epoch's first attempt; live
            # requests apply at whichever rebuild comes next.
            target = None
            if not epoch_started:
                target = plan_targets.get(epoch)
            epoch_started = True
            if control is not None:
                requested = control.take_resize()
                if requested is not None:
                    world.check_pool_size(requested, backend)
                    target = requested
            workflow = build()
            if checkpoint is not None:
                for name, state in checkpoint.items():
                    workflow.component(name).restore(state)
            for name, comp in _session_sources(workflow).items():
                if len(epochs) > 1 or start > 0:
                    if not hasattr(comp, "set_interval_range"):
                        raise TypeError(
                            f"source {name!r} is not resumable "
                            f"(no set_interval_range); cannot checkpoint"
                        )
                    comp.set_interval_range(start, stop)
            runner = WorkflowRunner(workflow)
            if target is not None and target != pool:
                apply_resize(epoch, target, runner)
            this_attempt = attempt
            attempt += 1

            def spmd(comm, _runner=runner, _attempt=this_attempt,
                     _pause=not final):
                return _runner.run(
                    comm,
                    collect_stats=collect_stats,
                    obs_enabled=obs_enabled,
                    pause=_pause,
                    fault_plan=plan,
                    fault_attempt=_attempt,
                    flight_dump=flight_dump,
                    obs_hook=obs_hook,
                )

            try:
                results = world.run_epoch(spmd, pool, backend, options)[0]
            except MpiError as exc:
                restarts += 1
                epoch_failures += 1
                classification = _classify_failure(exc)
                log.append(("restart", epoch, this_attempt, classification))
                if control is not None:
                    control.note_restart(epoch, this_attempt)
                if metrics is not None:
                    metrics.counter("recovery.restarts").inc()
                if epoch_failures > max_restarts:
                    floor = (
                        max(1, degrade.min_ranks)
                        if degrade is not None
                        else pool
                    )
                    if (
                        degrade is not None
                        and degrade.shrink_on_crash
                        and pool > floor
                    ):
                        new = pool - 1
                        log.append(
                            ("shrink", epoch, this_attempt, pool, new,
                             classification)
                        )
                        resizes.append((epoch, pool, new))
                        _driver_flight(
                            flight_dump,
                            {
                                "event": "shrink", "epoch": epoch,
                                "attempt": this_attempt,
                                "old": pool, "new": new,
                                "failure": [list(c) for c in classification],
                            },
                        )
                        if metrics is not None:
                            metrics.counter("recovery.shrinks").inc()
                        old = pool
                        pool = new
                        epoch_failures = 0
                        if control is not None:
                            control.resize_applied(epoch, old, new)
                        continue
                    raise ChaosUnrecoverable(
                        f"epoch {epoch} (intervals [{start}, {stop})) "
                        f"failed {epoch_failures} times at pool size {pool}; "
                        f"giving up (last failure: "
                        f"{_failure_summary(classification)})",
                        failure=classification,
                        attempts=attempt,
                        restarts=restarts,
                    ) from exc
                continue

            fault_events = results.pop("_faults", None)
            log.append(
                (
                    "run", epoch, this_attempt, "ok",
                    _freeze_fault_events(fault_events),
                )
            )
            pool_sizes.append(pool)
            if "_obs" in results:
                obs_reports.append(results["_obs"])
            if final:
                return SupervisedRun(
                    results=results,
                    log=tuple(log),
                    attempts=attempt,
                    restarts=restarts,
                    checkpoints=checkpoints,
                    obs_reports=tuple(obs_reports),
                    pool_sizes=tuple(pool_sizes),
                    resizes=tuple(resizes),
                )
            checkpoint = results.pop("_snapshots")
            checkpoints += 1
            if control is not None:
                control.on_checkpoint(epoch, checkpoint)
            if metrics is not None:
                metrics.counter("recovery.checkpoints").inc()
            break

    raise AssertionError("unreachable: the final epoch returns")


def _failure_summary(classification: tuple) -> str:
    """Compact "rank N: ExcType" rendering for error messages."""
    if not classification:
        return "unknown"
    return "; ".join(
        f"rank {rank}: {exc_type}"
        for rank, exc_type, _detail in classification
    )


# -- result comparison ------------------------------------------------------


def fold_obs_counters(
    reports, exclude_prefixes: tuple[str, ...] = ()
) -> dict[str, float]:
    """Sum merged cross-rank counters across per-epoch obs reports.

    Cumulative counters are additive across epochs, so the fold over a
    recovered session's successful-epoch reports must equal the fold
    over a fault-free session's — replayed (failed) attempts never
    contribute a report.  ``exclude_prefixes`` drops counter families
    that legitimately differ (e.g. ``recovery.`` bookkeeping kept by a
    driver-side registry).
    """
    totals: dict[str, float] = {}
    for report in reports:
        counters = report.get("metrics", {}).get("counters", {})
        for name, value in counters.items():
            if any(name.startswith(p) for p in exclude_prefixes):
                continue
            totals[name] = totals.get(name, 0) + value
    return totals


def strip_meta(results: dict) -> dict:
    """Component results only: drop ``_``-prefixed runtime entries."""
    return {
        key: value
        for key, value in results.items()
        if not key.startswith("_")
    }


def _deep_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
        )
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(_deep_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(_deep_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # NaN == NaN for bitwise comparison
            return True
        return a == b
    return bool(a == b)


def session_results_equal(a: dict, b: dict) -> bool:
    """Bitwise equality of two sessions' per-component results.

    Runtime metadata (``_obs``, ``_runtime``, ``_snapshots``,
    ``_faults``) is excluded: those legitimately differ between a clean
    and a recovered run; the *component* results must not.
    """
    return _deep_equal(strip_meta(a), strip_meta(b))
