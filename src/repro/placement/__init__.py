"""Online adaptive repartitioning: telemetry -> controller -> migration.

Chiller's partitioner (:mod:`repro.core.partitioner`) runs *offline*
over a sampled workload trace, so its minimized-contention property
decays the moment traffic drifts.  This package closes the loop while
the system serves load:

* :class:`AccessTelemetry` samples committed transactions' actual
  read/write sets per execution engine (mergeable and picklable, like
  ``SchedulerStats``), maintaining an observed co-access window.
* :class:`PlacementController` periodically re-runs the contention-
  aware star-graph cut over the observed window, aligns the cut's
  labels with the live layout, diffs it against the current
  placements, and emits a bounded :class:`MigrationPlan` (the top-K
  highest-gain record moves per epoch).
* :class:`MigrationExecutor` applies each move as an ordinary locking
  transaction through the existing txn layer — lock at source, ship
  the value (over the wire codec on the aio/mp backends), install at
  the destination, flip an epoch-versioned routing entry everywhere,
  then delete at the source — so there is never a stop-the-world
  pause; in-flight transactions that raced a move retry with a typed
  MIGRATED abort and re-resolve against the new epoch.

Wired through ``RunConfig(placement=...)`` / ``--placement
static|adaptive`` in the bench harness; ``static`` (the default) keeps
every path bit-identical to the pre-placement behavior.
"""

from .controller import (CONTROLLER_HOME, PLACEMENTS, MigrationPlan,
                         PlacementController, PlacementSpec, PlannedMove,
                         PlacementStats, as_placement_spec)
from .migration import (MigrationExecutor, controller_loop,
                        ensure_adaptive_scheme, install_flip_handler,
                        lease_controller_loop)
from .telemetry import AccessTelemetry, TelemetryWindow

__all__ = [
    "AccessTelemetry",
    "CONTROLLER_HOME",
    "MigrationExecutor",
    "MigrationPlan",
    "PLACEMENTS",
    "PlacementController",
    "PlacementSpec",
    "PlacementStats",
    "PlannedMove",
    "TelemetryWindow",
    "as_placement_spec",
    "controller_loop",
    "ensure_adaptive_scheme",
    "install_flip_handler",
    "lease_controller_loop",
]
