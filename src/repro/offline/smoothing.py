"""Switch smoothing: a delay-aware local-improvement post-pass.

Algorithm 2 (and the distributed Algorithm 3) optimize the *relaxed*
objective, which ignores the switching delay; their guarantee absorbs the
worst case into the ``(1 − ρ)`` factor (Thm 5.1).  In practice the relaxed
greedy sometimes alternates a charger between two near-tied dominant sets
on consecutive slots, paying ``ρ`` twice for negligible relaxed gain.

:func:`smooth_switches` removes exactly that pathology: wherever a charger
rotates at slot ``k``, it tries keeping the *previous* slot's policy
instead, and accepts the change iff the **delay-aware** overall utility
strictly improves.  Because only improvements are accepted, every
theoretical guarantee stated for the input schedule still holds for the
output — the pass is a pure Pareto move.

The delta evaluation is incremental (per the optimization guides: compute
less, not faster): changing ``sel[i, k]`` only perturbs charger ``i``'s
energy on its receivable columns ``T_i`` at slot ``k`` and the switch flag
of its next non-idle slot.  Smoothing only ever swaps one non-idle policy
for another, so each charger's non-idle slot list is fixed for the whole
pass and the previous/next non-idle slots are its neighbours in that list.
Each candidate therefore costs ``O(|T_i|)`` plus one length-``m`` utility
evaluation and dot — the same ``total(energies + delta)`` a full
re-evaluation computes, so acceptances match it bit for bit.  The scalar
formulation lives in ``tests/oracles/`` as the reference.
"""

from __future__ import annotations

import numpy as np

from ..core.network import ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..sim.engine import ORIENTATION_TOL, switch_scan

__all__ = ["smooth_switches"]

_TOL = 1e-12


def smooth_switches(
    network: ChargerNetwork,
    schedule: Schedule,
    *,
    rho: float,
    utility: UtilityFunction | None = None,
    max_passes: int = 3,
    task_mask: np.ndarray | None = None,
    start_slot: int = 0,
) -> Schedule:
    """Delay-aware local improvement of a schedule (see module docstring).

    Returns a new schedule; the input is not modified.  With ``rho == 0``
    switching is free and the schedule is returned unchanged.  An optional
    ``task_mask`` restricts both activity and scoring to the masked-in
    tasks — the online runtime smooths per replanning window with only the
    already-released tasks visible, so no clairvoyance leaks in.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    util = utility if utility is not None else network.utility
    sched = schedule.copy()
    if rho == 0.0 or network.num_slots == 0:
        return sched

    weights = network.weights
    active = network.active_by_charger()  # (|T_i|, K) per charger
    mask = None
    if task_mask is not None:
        mask = np.asarray(task_mask, dtype=bool)
        weights = np.where(mask, weights, 0.0)
    slot_energy = network.sparse_policy_energy()

    def total(e: np.ndarray) -> float:
        return float(np.asarray(util(e)) @ weights)

    # Per charger: its non-idle slots, their switch flags, its receivable
    # columns and (masked) activity.  Current delay-aware per-task energies
    # accumulate charger by charger, slots ascending: a sequential cumsum
    # seeded with the running energies performs the per-slot additions.
    chargers = []
    energies = np.zeros(network.m)
    for i in range(network.n):
        sel = sched.sel[i]
        slots, _, flags = switch_scan(network.policy_orientations[i], sel)
        if slots.size == 0:
            continue
        cols = network.policy_tasks[i]
        act = active[i] if mask is None else active[i] & mask[cols][:, None]
        block = np.empty((slots.size + 1, cols.size))
        block[0] = energies[cols]
        np.multiply(slot_energy[i][sel[slots]], act[:, slots].T, out=block[1:])
        block[1:] *= np.where(flags, 1.0 - rho, 1.0)[:, None]
        energies[cols] = np.cumsum(block, axis=0)[-1]
        chargers.append((i, slots, flags, cols, act))
    current = total(energies)

    for _ in range(max_passes):
        improved = False
        for i, slots, flags, cols, act in chargers:
            sel = sched.sel[i]
            orients = network.policy_orientations[i]
            se = slot_energy[i]

            def contribution(k: int, policy: int, switched: bool) -> np.ndarray:
                """Energy charger ``i`` delivers on ``cols`` at slot ``k``."""
                frac = (1.0 - rho) if switched else 1.0
                return se[policy] * act[:, k] * frac

            # The first non-idle slot has no previous orientation to keep.
            first = max(1, int(np.searchsorted(slots, max(1, start_slot))))
            for q in range(first, slots.size):
                if not flags[q]:
                    continue
                k = int(slots[q])
                p_old = int(sel[k])
                # Candidate: keep the previous non-idle slot's orientation
                # by re-selecting its policy at slot k.
                p_new = int(sel[slots[q - 1]])
                if p_new == p_old:
                    continue
                delta = contribution(k, p_new, False) - contribution(k, p_old, True)
                # The next non-idle slot's switch flag may change with slot
                # k's orientation.
                has_next = q + 1 < slots.size
                if has_next:
                    k_next = int(slots[q + 1])
                    p_next = int(sel[k_next])
                    old_next_switch = bool(flags[q + 1])
                    new_next_switch = bool(
                        abs(orients[p_next] - orients[p_new]) > ORIENTATION_TOL
                    )
                    if old_next_switch != new_next_switch:
                        delta -= contribution(k_next, p_next, old_next_switch)
                        delta += contribution(k_next, p_next, new_next_switch)

                candidate = energies.copy()
                candidate[cols] += delta
                candidate_total = total(candidate)
                if candidate_total - current > _TOL:
                    sel[k] = p_new
                    energies, current = candidate, candidate_total
                    flags[q] = False
                    if has_next:
                        flags[q + 1] = new_next_switch
                    improved = True
        if not improved:
            break
    return sched
