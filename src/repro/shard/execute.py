"""Global accounting for sharded schedules — without the global network.

The unsharded path scores a schedule with
:func:`~repro.sim.engine.execute_schedule`, which needs the global
``(n, m)`` power/cover matrices.  At sharded scale those never exist; what
each tile (or the reconciliation net) *does* have is every charger's
column-compressed policy data — orientations, receivable task columns
(mapped to global ids), per-policy cover rows, and per-task power.  That
is exactly the per-charger slice the engine's inner loop reads, so this
module replays the same physics charger by charger:

* switch detection is the engine's own rule,
  :func:`~repro.sim.engine.switch_scan` (idle keeps the previous
  orientation; the first non-idle slot always pays the delay), and the
  ``(1 − ρ)`` first-slot fraction follows the engine bit for bit,
* delivery accumulates into one global ``(m,)`` energy vector through the
  ``|T_i|``-sized columns — ``O(Σ|T_i|·K)`` instead of ``O(n·m·K)``,
* the relaxed (ρ = 0) energies are accumulated in the same pass instead of
  a second full execution.

Each charger appears in exactly one record (interior chargers from their
owner tile, boundary chargers from the reconciliation net), so the merged
energies are the exact physical-model energies of the merged schedule —
only float summation *order* differs from the engine (verified to ~1e-12
relative by the shard tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.network import ChargerNetwork
from ..sim.engine import switch_scan

__all__ = ["ChargerPlan", "MergedExecution", "charger_plans_from_network", "execute_merged"]


@dataclass
class ChargerPlan:
    """One charger's schedule plus the policy data needed to execute it.

    ``sel`` is global-horizon ``(K,)`` int32 with *global* policy indices
    (valid because the source net contained the charger's full receivable
    set); ``cols`` are global task ids.
    """

    charger: int
    orientations: np.ndarray  # (P,) float, nan = idle
    cols: np.ndarray  # (|T|,) int64 — global task ids
    cover: np.ndarray  # (P, |T|) bool
    power: np.ndarray  # (|T|,) float, W
    sel: np.ndarray  # (K,) int32


@dataclass
class MergedExecution:
    """Global accounting of a merged sharded schedule (mirrors
    :class:`~repro.sim.engine.ExecutionResult` where it matters)."""

    energies: np.ndarray
    relaxed_energies: np.ndarray
    task_utilities: np.ndarray
    total_utility: float
    relaxed_utility: float
    switch_count: int
    schedule_sel: np.ndarray  # (n, K) int32, global policy indices


def charger_plans_from_network(
    network: ChargerNetwork,
    charger_ids: np.ndarray,
    task_ids: np.ndarray,
    sel: np.ndarray,
    num_slots: int,
    *,
    local_rows: np.ndarray | None = None,
) -> list[ChargerPlan]:
    """Extract per-charger execution records from a solved sub-network.

    ``charger_ids``/``task_ids`` map the sub-network's positions back to
    global ids; ``sel`` is the sub-network's ``(n_sub, K_sub)`` selection
    matrix, padded here to the global horizon (absolute slot indices — a
    tile's shorter grid simply idles afterwards).  ``local_rows`` selects a
    subset of sub-network rows (default: all).
    """
    charger_ids = np.asarray(charger_ids, dtype=int)
    task_ids = np.asarray(task_ids, dtype=int)
    rows = (
        np.arange(charger_ids.size)
        if local_rows is None
        else np.asarray(local_rows, dtype=int)
    )
    plans: list[ChargerPlan] = []
    for r in rows:
        r = int(r)
        padded = np.zeros(num_slots, dtype=np.int32)
        k_sub = min(sel.shape[1], num_slots)
        padded[:k_sub] = sel[r, :k_sub]
        cols_local = network.policy_tasks[r]
        plans.append(
            ChargerPlan(
                charger=int(charger_ids[r]),
                orientations=network.policy_orientations[r],
                cols=task_ids[cols_local],
                cover=network.sparse_cover[r],
                power=network.power[r, cols_local],
                sel=padded,
            )
        )
    return plans


def execute_merged(
    plans: list[ChargerPlan],
    *,
    active: np.ndarray,  # (m, K) bool — global activity
    weights: np.ndarray,
    utility,
    rho: float,
    slot_seconds: float,
    num_chargers: int,
) -> MergedExecution:
    """Execute all charger plans under the engine's physical model."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    m, K = active.shape
    energies = np.zeros(m)
    relaxed = np.zeros(m)
    switch_count = 0
    sel_global = np.zeros((num_chargers, K), dtype=np.int32)
    ts = float(slot_seconds)

    for plan in plans:
        sel_global[plan.charger, :] = plan.sel
        if plan.cols.size == 0:
            continue
        act_cols = active[plan.cols]  # (|T|, K)
        slots, _, switches = switch_scan(plan.orientations, plan.sel)
        switch_count += int(switches.sum())
        for k, switched in zip(slots.tolist(), switches.tolist()):
            p = int(plan.sel[k])
            mask = plan.cover[p] & act_cols[:, k]
            if not mask.any():
                continue
            add = plan.power[mask] * ts
            cols = plan.cols[mask]
            relaxed[cols] += add
            frac = (1.0 - rho) if switched else 1.0
            if frac > 0.0:
                energies[cols] += add * frac

    task_utilities = np.asarray(utility(energies), dtype=float)
    total = float(task_utilities @ weights)
    relaxed_total = float(np.asarray(utility(relaxed), dtype=float) @ weights)
    return MergedExecution(
        energies=energies,
        relaxed_energies=relaxed,
        task_utilities=task_utilities,
        total_utility=total,
        relaxed_utility=relaxed_total,
        switch_count=switch_count,
        schedule_sel=sel_global,
    )
