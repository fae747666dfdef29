"""Spatially decomposed (sharded) solving for large charger fields.

The paper's interaction structure is local — a charger only competes with
chargers whose charging sectors overlap its own receivable tasks, and no
interaction reaches further than the charging range ``D``.  This package
exploits that: :mod:`~repro.shard.tiles` partitions the field into a grid
of tiles with a ``≥ D`` halo, :mod:`~repro.shard.subproblem` slices the
instance per tile, :mod:`~repro.shard.solver` solves tiles independently
(pool-parallel) and :mod:`~repro.shard.reconcile` re-negotiates the exact
boundary set with the lossless distributed protocol, in stages of
provably task-disjoint (hence pool-parallel) interface groups.
:mod:`~repro.shard.execute` merges the per-charger schedules into global
accounting without ever materializing the global ``(n, m)`` network.

Selected through ordinary solver specs — ``haste-offline:shards=16`` /
``online-haste:shards=16,halo=auto`` — and returns ordinary
:class:`~repro.solvers.artifact.RunArtifact` objects; ``shards=1`` routes
to the untouched unsharded path (bit-identical, pinned by tests).
"""

from .execute import ChargerPlan, MergedExecution, charger_plans_from_network, execute_merged
from .reconcile import (
    ReconcileResult,
    boundary_stages,
    find_boundary_chargers,
    reconcile_boundary,
)
from .solver import (
    fingerprint_from_plans,
    solve_offline_sharded,
    solve_online_sharded,
    solve_sharded,
)
from .subproblem import activity_matrix_from_arrays, slice_instance, utility_from_arrays
from .tiles import Tile, TilePartition, factor_grid, make_partition, resolve_halo

__all__ = [
    "Tile",
    "TilePartition",
    "factor_grid",
    "resolve_halo",
    "make_partition",
    "slice_instance",
    "activity_matrix_from_arrays",
    "utility_from_arrays",
    "ChargerPlan",
    "MergedExecution",
    "charger_plans_from_network",
    "execute_merged",
    "ReconcileResult",
    "find_boundary_chargers",
    "boundary_stages",
    "reconcile_boundary",
    "solve_sharded",
    "solve_offline_sharded",
    "solve_online_sharded",
    "fingerprint_from_plans",
]
