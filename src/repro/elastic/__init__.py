"""Elastic self-healing runtime: dynamic rank pools over epoch boundaries.

The chaos layer (:mod:`repro.faults`) gave every Figure-1 component
``snapshot()/restore()`` and epoch-drained checkpoints for *involuntary*
topology changes (crash recovery).  This package reuses exactly that
machinery for *voluntary* ones: grow or shrink the rank pool at an epoch
boundary — drain the epoch, allgather the checkpoint, tear down the comm
world, rebuild it at the new size, restore — with the headline invariant
that a rescaled run is bitwise-identical to a fixed-size run.

Layout:

- :mod:`repro.elastic.plan` — :class:`ResizeRequest`/:class:`ResizePlan`,
  the declarative "grow to N at epoch E" schedule.
- :mod:`repro.elastic.world` — the *only* module here allowed to build or
  run a comm world (``repo.topology-epoch`` lint rule enforces this).
- :mod:`repro.elastic.sharding` — rank-count-independent pair sharding
  (stable hash over pair ids, never ``i % size``).

The epoch loop that drives resizes is
:func:`repro.faults.run_supervised_session`; it reaches comm worlds only
through :mod:`repro.elastic.world`.
"""

from repro.elastic.plan import ResizePlan, ResizeRequest
from repro.elastic.sharding import shard_pairs, stable_shard
from repro.elastic.world import world_capacity

__all__ = [
    "ResizePlan",
    "ResizeRequest",
    "shard_pairs",
    "stable_shard",
    "world_capacity",
]
