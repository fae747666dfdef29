"""Comparison algorithms — the extra ablation baselines.

The paper proposes two baselines (there being no prior art for directional
charging task scheduling), GreedyUtility and GreedyCover (§7.2).  Both
live in :mod:`repro.offline.batched` as one batched driver each, which
every solo, batched and τ-delayed online solve runs.

Extras for ablations (not in the paper):

* **RandomSchedule** — uniformly random non-idle policy per relevant slot;
  a sanity floor.
* **StaticOrientation** — each charger picks one orientation for the whole
  horizon (the best by GreedyUtility accounting over all slots); measures
  the value of *re-orientation over time*, the paper's core mechanism.
"""

from __future__ import annotations

import numpy as np

from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..objective.haste import MIN_GAIN, HasteObjective

__all__ = ["random_schedule", "static_orientation_schedule"]


def random_schedule(
    network: ChargerNetwork, rng: np.random.Generator
) -> Schedule:
    """Uniformly random non-idle policy at every relevant slot (ablation)."""
    sched = Schedule(network)
    for i in range(network.n):
        p_count = network.policy_count(i)
        if p_count <= 1:
            continue
        for k in network.relevant_slots(i):
            sched.set(i, int(k), int(rng.integers(1, p_count)))
    return sched


def static_orientation_schedule(
    network: ChargerNetwork,
    *,
    utility: UtilityFunction | None = None,
) -> Schedule:
    """One fixed orientation per charger for the whole horizon (ablation).

    Chooses, independently per charger, the policy whose *total* utility
    gain over all slots (own-energy accounting, as in GreedyUtility) is
    largest, then holds it.  The gap to HASTE quantifies how much of the
    paper's benefit comes from re-orientation over time versus good static
    aiming.
    """
    objective = HasteObjective(network, utility)
    sched = Schedule(network)
    for i in range(network.n):
        p_count = network.policy_count(i)
        if p_count <= 1:
            continue
        slots = network.relevant_slots(i)
        if slots.size == 0:
            continue
        best_p, best_total = IDLE_POLICY, MIN_GAIN
        for p in range(1, p_count):
            energies = objective.zero_energy()
            total = 0.0
            for k in slots:
                add = objective.added_energy(i, int(k))[p]
                total += float(
                    objective.utility.gain(energies, add) @ objective.weights
                )
                energies += add
            if total > best_total:
                best_p, best_total = p, total
        if best_p != IDLE_POLICY:
            for k in slots:
                sched.set(i, int(k), best_p)
    return sched
