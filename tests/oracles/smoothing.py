"""Scalar switch smoothing — the reference :func:`repro.offline.smoothing.smooth_switches` is checked against.

This is the plain formulation: every candidate builds dense length-``m``
energy vectors for the slots it perturbs, scores ``total(energies + delta)``
from scratch, and an accepted change recomputes the charger's switch flags
with a per-slot loop.  The program's column-compressed pass must select
exactly the same policies (``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.network import IDLE_POLICY, ChargerNetwork
from repro.core.policy import Schedule
from repro.core.utility import UtilityFunction

__all__ = ["smooth_switches"]

_TOL = 1e-12


def _charger_contribution(
    network: ChargerNetwork,
    i: int,
    k: int,
    policy: int,
    switched: bool,
    rho: float,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Energy vector charger ``i`` delivers at slot ``k`` with ``policy``."""
    if policy == IDLE_POLICY:
        return np.zeros(network.m)
    frac = (1.0 - rho) if switched else 1.0
    act = network.active if active is None else active
    mask = network.cover_masks[i][policy] & act[:, k]
    out = np.zeros(network.m)
    if frac > 0.0 and mask.any():
        out[mask] = network.power[i][mask] * network.slot_seconds * frac
    return out


def _recompute_switches(
    network: ChargerNetwork, schedule: Schedule, i: int
) -> np.ndarray:
    """Switch flags for one charger under the idle-keeps-orientation rule."""
    K = network.num_slots
    flags = np.zeros(K, dtype=bool)
    orients = network.policy_orientations[i]
    current = np.nan
    for k in range(K):
        p = schedule.sel[i, k]
        if p == IDLE_POLICY:
            continue
        target = orients[p]
        flags[k] = bool(np.isnan(current) or abs(target - current) > 1e-12)
        current = target
    return flags


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
    active = network.active
    if task_mask is not None:
        mask = np.asarray(task_mask, dtype=bool)
        weights = np.where(mask, weights, 0.0)
        active = active & mask[:, None]
    # Current delay-aware per-task energies.
    switch_flags = [
        _recompute_switches(network, sched, i) for i in range(network.n)
    ]
    energies = np.zeros(network.m)
    for i in range(network.n):
        for k in np.flatnonzero(sched.sel[i]):
            energies += _charger_contribution(
                network,
                i,
                int(k),
                int(sched.sel[i, k]),
                bool(switch_flags[i][k]),
                rho,
                active,
            )

    def total(e: np.ndarray) -> float:
        return float(np.asarray(util(e)) @ weights)

    for _ in range(max_passes):
        improved = False
        for i in range(network.n):
            orients = network.policy_orientations[i]
            for k in range(max(1, start_slot), network.num_slots):
                if not switch_flags[i][k]:
                    continue
                p_old = int(sched.sel[i, k])
                if p_old == IDLE_POLICY:
                    continue
                # Candidate: keep the previous slot's physical orientation by
                # re-selecting the previous effective policy at slot k.
                prev_nonidle = sched.sel[i, :k]
                prev_idx = np.flatnonzero(prev_nonidle)
                if prev_idx.size == 0:
                    continue
                p_new = int(sched.sel[i, int(prev_idx[-1])])
                if p_new == p_old:
                    continue

                # Next non-idle slot of charger i after k: its switch flag
                # may change when slot k's orientation changes.
                later = np.flatnonzero(sched.sel[i, k + 1 :])
                k_next = int(later[0]) + k + 1 if later.size else None

                delta = np.zeros(network.m)
                delta -= _charger_contribution(network, i, k, p_old, True, rho, active)
                delta += _charger_contribution(network, i, k, p_new, False, rho, active)
                if k_next is not None:
                    p_next = int(sched.sel[i, k_next])
                    old_next_switch = bool(switch_flags[i][k_next])
                    new_next_switch = bool(
                        abs(orients[p_next] - orients[p_new]) > 1e-12
                    )
                    if old_next_switch != new_next_switch:
                        delta -= _charger_contribution(
                            network, i, k_next, p_next, old_next_switch, rho, active
                        )
                        delta += _charger_contribution(
                            network, i, k_next, p_next, new_next_switch, rho, active
                        )

                gain = total(energies + delta) - total(energies)
                if gain > _TOL:
                    sched.sel[i, k] = p_new
                    energies += delta
                    switch_flags[i] = _recompute_switches(network, sched, i)
                    improved = True
        if not improved:
            break
    return sched
