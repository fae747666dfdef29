"""Schedule execution with switching delay — the ground-truth simulator.

The schedulers optimize the *relaxed* objective (HASTE-R, no switching
delay); this engine evaluates what a schedule actually delivers under the
paper's physical model (§3.1):

* a charger that changes orientation at the start of slot ``k`` emits
  nothing during the first ``ρ`` fraction of the slot (switching delay) and
  charges for the remaining ``(1 − ρ)·T_s``;
* a charger whose selected policy is unchanged keeps charging the full
  slot; an *idle* charger keeps its previous physical orientation (it has
  no reason to rotate), so re-selecting the same dominant set after an idle
  gap does **not** incur a switch;
* the initial orientation is Φ (undefined), so a charger's first non-idle
  slot always pays the switching delay;
* received powers from all covering chargers add; per-task utility is
  ``U_j`` of the accumulated energy, and the overall utility is the
  ``w_j``-weighted sum.

The engine is the single source of truth for "charging utility" in every
experiment: offline results, online traces, and baselines all funnel
through :func:`execute_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction

__all__ = [
    "ORIENTATION_TOL",
    "ExecutionResult",
    "switch_scan",
    "orientation_trace",
    "execute_schedule",
]


#: Orientations closer than this count as equal: no rotation, no delay.
ORIENTATION_TOL = 1e-12


@dataclass
class ExecutionResult:
    """Everything a schedule execution produced.

    Attributes
    ----------
    energies:
        Per-task harvested energy, ``(m,)`` joules, switching delay applied.
    task_utilities:
        ``U_j(energy_j)`` per task, ``(m,)``.
    total_utility:
        ``Σ_j w_j · U_j`` — the paper's overall charging utility.
    relaxed_utility:
        The same schedule's HASTE-R value (``ρ = 0``), for measuring the
        switching-delay loss.
    switches:
        Boolean ``(n, K)``: charger ``i`` rotated at the start of slot ``k``.
    delivered:
        Per-charger per-task delivered energy ``(n, m)`` — the engine's
        energy ledger, used by the insight experiments.
    """

    energies: np.ndarray
    task_utilities: np.ndarray
    total_utility: float
    relaxed_utility: float
    switches: np.ndarray
    delivered: np.ndarray

    @property
    def switch_count(self) -> int:
        """Total number of rotations across all chargers and slots."""
        return int(np.count_nonzero(self.switches))

    def summary(self) -> str:
        return (
            f"ExecutionResult(utility={self.total_utility:.6g}, "
            f"relaxed={self.relaxed_utility:.6g}, switches={self.switch_count})"
        )


def switch_scan(
    orientations: np.ndarray, sel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One charger's non-idle slots, their orientations and switch flags.

    ``orientations`` is the charger's per-policy orientation vector and
    ``sel`` its ``(K,)`` selection row.  Returns ``(slots, targets,
    switched)`` over the non-idle slots in ascending order.  The rule:
    an idle slot keeps the previous orientation, so each non-idle slot is
    compared with the previous *non-idle* one; the first non-idle slot
    always switches (the initial orientation is Φ); orientations within
    :data:`ORIENTATION_TOL` count as equal.
    """
    slots = np.flatnonzero(sel != IDLE_POLICY)
    targets = orientations[sel[slots]]
    prev = np.empty_like(targets)
    prev[:1] = np.nan
    prev[1:] = targets[:-1]
    switched = np.isnan(prev) | (np.abs(targets - prev) > ORIENTATION_TOL)
    return slots, targets, switched


def orientation_trace(network: ChargerNetwork, schedule: Schedule) -> np.ndarray:
    """Physical orientation of every charger at every slot, ``(n, K)``.

    ``nan`` marks Φ (no orientation assigned yet).  Idle slots inherit the
    previous orientation.
    """
    n, K = network.n, network.num_slots
    trace = np.full((n, K), np.nan)
    for i in range(n):
        slots, targets, _ = switch_scan(
            network.policy_orientations[i], schedule.sel[i]
        )
        if slots.size:
            # Position of the latest non-idle slot at or before each slot.
            last = np.searchsorted(slots, np.arange(K), side="right") - 1
            trace[i] = np.where(last >= 0, targets[last], np.nan)
    return trace


def execute_schedule(
    network: ChargerNetwork,
    schedule: Schedule,
    *,
    rho: float = 0.0,
    utility: UtilityFunction | None = None,
) -> ExecutionResult:
    """Run a schedule through the physical model and account the utility.

    ``rho`` is the switching delay as a fraction of a slot (paper: ρ ∈
    (0, 1); ρ = 1 means a rotating charger loses the entire slot, the upper
    end of the paper's Fig. 6/14 sweeps).

    Each charger's non-idle slots are accounted at once on its receivable
    columns: one row of slot energy per non-idle slot, scaled by ``1 − ρ``
    where the charger switched, summed by a sequential ``cumsum`` — the
    same additions, in the same order, as a per-slot loop.  The relaxed
    (``ρ = 0``) value comes from the unscaled rows of the same pass.

    When :mod:`repro.obs` is enabled each execution is traced as one
    ``sim.execute`` span and counted once, with its non-idle
    charger-slots and switches — nothing per slot.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    util = utility if utility is not None else network.utility
    n, m, K = network.n, network.m, network.num_slots
    delivered = np.zeros((n, m))
    relaxed_delivered = np.zeros((n, m))  # the ρ = 0 ledger, kept when ρ > 0
    switches = np.zeros((n, K), dtype=bool)
    slot_energy = network.sparse_policy_energy()
    active = network.active_by_charger()

    with obs.span("sim.execute", rho=rho):
        for i in range(n):
            sel = schedule.sel[i]
            slots, _, switched = switch_scan(network.policy_orientations[i], sel)
            if slots.size == 0:
                continue
            switches[i, slots] = switched
            cols = network.policy_tasks[i]
            # (slots, |T_i|): what each non-idle slot delivers without delay.
            rows = slot_energy[i][sel[slots]] * active[i][:, slots].T
            if rho != 0.0:
                relaxed_delivered[i, cols] = np.cumsum(rows, axis=0)[-1]
                rows = rows * np.where(switched, 1.0 - rho, 1.0)[:, None]
            delivered[i, cols] = np.cumsum(rows, axis=0)[-1]

        energies = delivered.sum(axis=0)
        task_utilities = np.asarray(util(energies), dtype=float)
        total = float(task_utilities @ network.weights)
        if rho == 0.0:
            relaxed = total
        else:
            relaxed_energies = relaxed_delivered.sum(axis=0)
            relaxed = float(
                np.asarray(util(relaxed_energies), dtype=float) @ network.weights
            )

    if obs.enabled():
        obs.inc("sim.executions")
        obs.inc(
            "sim.charger_slots",
            int(np.count_nonzero(schedule.sel != IDLE_POLICY)),
        )
        obs.inc("sim.switches", int(np.count_nonzero(switches)))

    return ExecutionResult(
        energies=energies,
        task_utilities=task_utilities,
        total_utility=total,
        relaxed_utility=relaxed,
        switches=switches,
        delivered=delivered,
    )
