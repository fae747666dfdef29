"""Scalar references for the paper's two baselines (§7.2).

:func:`repro.offline.batched.greedy_utility_schedule_batch` and
:func:`~repro.offline.batched.greedy_cover_schedule_batch` are the only
implementations the program runs: a solo solve is a batch of one, and the
online baselines plan with the same drivers on τ-delayed activity.  This
module keeps the plain formulations they are pinned against:

* :func:`greedy_utility_schedule` — one charger at a time, one slot at a
  time, gains from :meth:`HasteObjective.partition_gains` against a
  private own-energy ledger;
* :func:`greedy_cover_schedule` — one ``cover @ active`` matvec per
  (charger, slot);
* :func:`online_baseline_dense` — the earlier online loop, which scored
  every (slot, charger) against all ``m`` tasks with dense slot-energy
  rows.  GreedyCover through it equals the driver on the delayed
  activity; GreedyUtility sums over all tasks instead of the charger's
  receivable ones, so near-ties can break differently.

``active`` replaces the network's ``(m, K)`` activity for planning, the
way the drivers' ``actives`` does; :func:`delayed_activity` is the
τ-delayed one the online baselines plan on.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import IDLE_POLICY, ChargerNetwork
from repro.core.policy import Schedule
from repro.core.utility import UtilityFunction
from repro.objective.haste import HasteObjective

__all__ = [
    "delayed_activity",
    "greedy_cover_schedule",
    "greedy_utility_schedule",
    "online_baseline_dense",
]

MIN_GAIN: float = 1e-12


def delayed_activity(network: ChargerNetwork, tau: int) -> np.ndarray:
    """``active[j, k]`` and task ``j`` released at or before ``k − τ``."""
    delayed = network.active.copy()
    for j, release in enumerate(network.release_slots):
        delayed[j, : release + tau] = False
    return delayed


def greedy_utility_schedule(
    network: ChargerNetwork,
    *,
    utility: UtilityFunction | None = None,
    active: np.ndarray | None = None,
) -> Schedule:
    """GreedyUtility: per charger, per slot, the largest own-ledger gain."""
    objective = HasteObjective(network, utility, active=active)
    sched = Schedule(network)
    own = np.zeros((network.n, network.m))
    for k in range(network.num_slots):
        for i in range(network.n):
            if network.policy_count(i) <= 1:
                continue
            gains = objective.partition_gains(own[i], i, k)  # (P_i,)
            best_p = int(np.argmax(gains))
            if best_p != IDLE_POLICY and gains[best_p] > MIN_GAIN:
                sched.set(i, k, best_p)
                objective.apply(own[i], i, k, best_p)
    return sched


def greedy_cover_schedule(
    network: ChargerNetwork, *, active: np.ndarray | None = None
) -> Schedule:
    """GreedyCover: per charger, per slot, ``argmax(cover @ active[:, k])``."""
    active = network.active if active is None else active
    sched = Schedule(network)
    for i in range(network.n):
        p_count = network.policy_count(i)
        if p_count <= 1:
            continue
        cover = network.cover_masks[i]  # (P_i, m)
        for k in range(network.num_slots):
            counts = cover @ active[:, k]  # (P_i,)
            best_p = int(np.argmax(counts))
            if best_p != IDLE_POLICY and counts[best_p] > 0:
                sched.set(i, k, best_p)
    return sched


def online_baseline_dense(
    network: ChargerNetwork, kind: str = "utility", *, tau: int = 1
) -> Schedule:
    """The dense per-(slot, charger) online baseline loop over all ``m`` tasks."""
    objective = HasteObjective(network)
    dense = network.dense_policy_energy()
    sched = Schedule(network)
    own = np.zeros((network.n, network.m))
    K = network.num_slots
    for k in range(K):
        known = network.release_slots + tau <= k
        eff_active = network.active[:, k] & known
        if not eff_active.any():
            continue
        for i in range(network.n):
            if network.policy_count(i) <= 1:
                continue
            if kind == "utility":
                add = dense[i] * eff_active[None, :]
                gains = objective.utility.gain(own[i][None, :], add) @ objective.weights
                best_p = int(np.argmax(gains))
                if best_p != IDLE_POLICY and gains[best_p] > MIN_GAIN:
                    sched.set(i, k, best_p)
                    own[i] += add[best_p]
            else:
                counts = network.cover_masks[i] @ eff_active
                best_p = int(np.argmax(counts))
                if best_p != IDLE_POLICY and counts[best_p] > 0:
                    sched.set(i, k, best_p)
    return sched
