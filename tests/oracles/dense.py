"""The HASTE-R objective evaluated over every task column.

:class:`~repro.objective.haste.HasteObjective` evaluates each charger only
on its receivable task columns.  :class:`DenseObjective` keeps the plain
full-width formulation: every kernel multiplies the network's dense
``(P_i, m)`` policy-energy matrices by the slot's activity column and
scores them with the unrestricted utility.

What the two agree on:

* applies and whole-schedule energies are bit-identical — the dense path
  only adds exact ``+0.0`` on the columns the sparse path skips;
* gains agree to rounding only: the weighted task sum runs over ``m``
  columns here and ``|T_i|`` there, so BLAS may associate it differently.
  Where two policies tie, that rounding can flip the argmax, which is why
  schedule identity is pinned at quick scale only.

It implements the surface :class:`~repro.offline.centralized.
CentralizedScheduler` drives, so ``CentralizedScheduler(net,
objective=DenseObjective(net))`` runs Algorithm 2 on the dense kernels;
its final draws are scored one at a time, by ``value_of_schedule``.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import Schedule


class DenseObjective:
    """Full-width reference for :class:`~repro.objective.haste.HasteObjective`."""

    def __init__(self, network, utility=None) -> None:
        self.network = network
        self.utility = utility if utility is not None else network.utility
        self.weights = network.weights
        self.active = network.active
        self._energy = network.dense_policy_energy()

    def zero_energy(self, leading_shape: tuple[int, ...] = ()) -> np.ndarray:
        return np.zeros(leading_shape + (self.network.m,), dtype=float)

    def value(self, energies: np.ndarray):
        out = self.utility(energies) @ self.weights
        return float(out) if np.ndim(out) == 0 else out

    def added_energy(self, charger: int, slot: int) -> np.ndarray:
        """``(P_i, m)`` energy each policy of ``charger`` adds in ``slot``."""
        return self._energy[charger] * self.active[:, slot][None, :]

    def partition_gains(self, energies, charger: int, slot: int) -> np.ndarray:
        add = self.added_energy(charger, slot)
        cur = np.asarray(energies, dtype=float)
        if cur.ndim == 1:
            return self.utility.gain(cur[None, :], add) @ self.weights
        return self.utility.gain(cur[:, None, :], add[None, :, :]) @ self.weights

    def partition_gains_rows(self, energies, rows, charger: int, slot: int):
        return self.partition_gains(energies[rows], charger, slot)

    def apply(self, energies, charger: int, slot: int, policy: int) -> None:
        energies += self.added_energy(charger, slot)[policy]

    def apply_rows(self, energies, rows, charger: int, slot: int, policy: int):
        energies[rows] += self.added_energy(charger, slot)[policy][None, :]

    def energies_of_schedule(self, schedule) -> np.ndarray:
        energies = self.zero_energy()
        for i in range(self.network.n):
            sel = schedule.sel[i]
            for k in np.flatnonzero(sel):
                energies += self.added_energy(i, int(k))[sel[k]]
        return energies

    def value_of_schedule(self, schedule) -> float:
        return float(self.value(self.energies_of_schedule(schedule)))

    def values_of_selections(self, sels, banked=None) -> list[float]:
        """:meth:`value_of_schedule` of each ``(n, K)`` selection in turn
        (the offline sweep, the one caller, banks no energy)."""
        assert banked is None
        return [
            self.value_of_schedule(Schedule.from_matrix(self.network, sel))
            for sel in sels
        ]
