"""Scalar schedule execution — the reference for :mod:`repro.sim.engine`.

The plain per-slot formulation of the switching-delay executor: walk each
charger's slots in order, track its physical orientation, and add the
masked dense power vector of every non-idle slot.  The relaxed (``ρ = 0``)
value comes from a second execution.  The program's column-compressed
executor must return bit-identical :class:`~repro.sim.engine.ExecutionResult`
fields (``tests/test_fastpath_equivalence.py``).  Telemetry is left out:
nothing here runs in production.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import IDLE_POLICY, ChargerNetwork
from repro.core.policy import Schedule
from repro.core.utility import UtilityFunction
from repro.sim.engine import ExecutionResult

__all__ = ["execute_schedule", "orientation_trace"]


def orientation_trace(network: ChargerNetwork, schedule: Schedule) -> np.ndarray:
    """Physical orientation of every charger at every slot, ``(n, K)``."""
    n, K = network.n, network.num_slots
    trace = np.full((n, K), np.nan)
    for i in range(n):
        current = np.nan
        orients = network.policy_orientations[i]
        for k in range(K):
            p = schedule.sel[i, k]
            if p != IDLE_POLICY:
                current = orients[p]
            trace[i, k] = current
    return trace


def execute_schedule(
    network: ChargerNetwork,
    schedule: Schedule,
    *,
    rho: float = 0.0,
    utility: UtilityFunction | None = None,
) -> ExecutionResult:
    """Run a schedule through the physical model, one slot at a time."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    util = utility if utility is not None else network.utility
    n, m, K = network.n, network.m, network.num_slots
    delivered = np.zeros((n, m))
    switches = np.zeros((n, K), dtype=bool)
    ts = network.slot_seconds

    for i in range(n):
        orients = network.policy_orientations[i]
        cover = network.cover_masks[i]
        power = network.power[i]
        current = np.nan
        sel = schedule.sel[i]
        for k in range(K):
            p = sel[k]
            if p == IDLE_POLICY:
                continue
            target = orients[p]
            switched = np.isnan(current) or abs(target - current) > 1e-12
            switches[i, k] = switched
            current = target
            frac = (1.0 - rho) if switched else 1.0
            if frac <= 0.0:
                continue
            mask = cover[p] & network.active[:, k]
            if mask.any():
                delivered[i, mask] += power[mask] * ts * frac

    energies = delivered.sum(axis=0)
    task_utilities = np.asarray(util(energies), dtype=float)
    total = float(task_utilities @ network.weights)

    if rho == 0.0:
        relaxed = total
    else:
        relaxed = execute_schedule(
            network, schedule, rho=0.0, utility=utility
        ).total_utility

    return ExecutionResult(
        energies=energies,
        task_utilities=task_utilities,
        total_utility=total,
        relaxed_utility=relaxed,
        switches=switches,
        delivered=delivered,
    )
