"""The charger network: entities plus every precomputed matrix the
schedulers need.

:class:`ChargerNetwork` is the central, immutable-after-construction object
shared by every algorithm in the library.  Construction performs all the
orientation-independent work once, vectorized:

* pairwise charger↔task distances, azimuths, and power magnitudes,
* the ``receivable`` predicate (distance + device-side sector),
* dominant task sets per charger (Algorithm 1) and the derived *policy
  space*: for charger ``i``, policy 0 is the explicit **idle** policy (cover
  nothing, keep the previous orientation) and policies ``1 … |Γ_i|`` are its
  dominant task sets,
* per-charger ``(policies × tasks)`` boolean cover masks and float
  power-increment matrices — the arrays the greedy hot path multiplies,
* the neighbor relation (chargers sharing a receivable task, §6.1) used by
  the distributed algorithm and its message bus.

Everything downstream (objective, schedulers, engine, agents) indexes into
these arrays instead of recomputing geometry — the vectorization boundary
recommended by the HPC guides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .charger import Charger
from .coverage import DominantSet, dominant_set_rows
from .geometry import pairwise_azimuths, pairwise_distances
from .power import PowerModel, receivable_matrix
from .task import ChargingTask
from .timeline import SlotGrid
from .utility import LinearBoundedUtility, UtilityFunction

__all__ = ["ChargerNetwork", "IDLE_POLICY"]

#: Index of the idle policy in every charger's policy list.
IDLE_POLICY: int = 0


@dataclass
class ChargerNetwork:
    """A fleet of directional chargers plus the charging tasks they serve.

    Parameters
    ----------
    chargers, tasks:
        The entities.  Charger and task ids must equal their list positions
        (enforced) because every precomputed matrix is positional.
    power_model:
        The ``α/(d+β)²`` law.
    slot_seconds:
        Slot duration ``T_s`` in seconds.
    utility:
        Per-task utility function; defaults to the paper's linear-bounded
        form built from each task's required energy.
    """

    chargers: Sequence[Charger]
    tasks: Sequence[ChargingTask]
    power_model: PowerModel = field(default_factory=PowerModel)
    slot_seconds: float = 60.0
    utility: UtilityFunction | None = None

    def __post_init__(self) -> None:
        self.chargers = list(self.chargers)
        self.tasks = list(self.tasks)
        for pos, c in enumerate(self.chargers):
            if c.id != pos:
                raise ValueError(f"charger at position {pos} has id {c.id}")
        for pos, t in enumerate(self.tasks):
            if t.id != pos:
                raise ValueError(f"task at position {pos} has id {t.id}")
        if self.utility is None:
            self.utility = LinearBoundedUtility.for_tasks(self.tasks) if self.tasks else None
        self._precompute()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        n, m = len(self.chargers), len(self.tasks)
        self.n, self.m = n, m
        self.grid = SlotGrid.for_tasks(self.tasks, self.slot_seconds)
        self.num_slots = self.grid.num_slots

        self.charger_xy = np.array(
            [[c.x, c.y] for c in self.chargers], dtype=float
        ).reshape(n, 2)
        self.task_xy = np.array([[t.x, t.y] for t in self.tasks], dtype=float).reshape(m, 2)
        self.weights = np.array([t.weight for t in self.tasks], dtype=float)
        self.required_energy = np.array(
            [t.required_energy for t in self.tasks], dtype=float
        )
        self.release_slots = np.array([t.release_slot for t in self.tasks], dtype=int)
        self.end_slots = np.array([t.end_slot for t in self.tasks], dtype=int)

        if n and m:
            self.dist = pairwise_distances(self.charger_xy, self.task_xy)
            self.azimuth = pairwise_azimuths(self.charger_xy, self.task_xy)
            radii = np.array([c.radius for c in self.chargers], dtype=float)
            self.receivable = receivable_matrix(
                self.charger_xy,
                radii,
                self.task_xy,
                np.array([t.orientation for t in self.tasks], dtype=float),
                np.array([t.receiving_angle for t in self.tasks], dtype=float),
            )
            raw_power = self.power_model.pair_power(self.dist, np.inf)
            # Anisotropic-receiver extension: models exposing device_gain
            # (see AnisotropicPowerModel) scale each pair by the receiver's
            # boresight gain; the base binary model leaves power unchanged.
            gain_fn = getattr(self.power_model, "device_gain", None)
            if gain_fn is not None:
                offsets = self.power_model.receiver_offsets(
                    self.azimuth,
                    np.array([t.orientation for t in self.tasks], dtype=float),
                )
                raw_power = raw_power * gain_fn(offsets)
            in_range = self.dist <= radii[:, None] + 1e-12
            self.power = np.where(self.receivable & in_range, raw_power, 0.0)
        else:
            self.dist = np.zeros((n, m))
            self.azimuth = np.zeros((n, m))
            self.receivable = np.zeros((n, m), dtype=bool)
            self.power = np.zeros((n, m))

        self.active = self.grid.activity_matrix(self.tasks)  # (m, K)

        self._build_policies()
        self._build_neighbors()

    def _build_policies(self) -> None:
        """Dominant task sets → per-charger policy arrays.

        Besides the dense ``(P_i, m)`` masks the construction lays out the
        *column-compressed* policy arrays the fast scheduling kernels use:
        charger ``i`` can only ever touch its receivable tasks ``T_i``, so
        ``policy_tasks[i]`` records those task indices and
        ``sparse_cover[i]`` / ``sparse_power[i]`` are the ``(P_i, |T_i|)``
        blocks of the dense matrices restricted to them.  All power blocks
        live in one contiguous flat array (``policy_power_flat`` with
        per-charger ``policy_offsets``) so a whole-fleet kernel can stream
        them without pointer chasing.

        Every array is laid out for the whole fleet at once — the policy
        rows of all chargers stacked, idle rows included — and each
        charger's entries are views into those stacks.
        """
        n, m = self.n, self.m
        owner, orientation, cover = dominant_set_rows(
            self.azimuth,
            self.receivable,
            np.array([c.charging_angle for c in self.chargers], dtype=float),
        )
        counts = np.bincount(owner, minlength=n) + 1  # P_i, idle included
        rows = np.concatenate([[0], np.cumsum(counts)])
        # Dominant set r of charger owner[r] goes after that charger's idle
        # row: r sets and owner[r] + 1 idle rows precede it.
        place = np.arange(owner.size) + owner + 1
        policy_cover = np.zeros((int(rows[-1]), m), dtype=bool)
        policy_cover[place] = cover
        policy_orient = np.full(int(rows[-1]), np.nan)
        policy_orient[place] = orientation
        policy_owner = np.repeat(np.arange(n), counts)
        policy_power = policy_cover * self.power[policy_owner]
        # Each policy row restricted to its charger's receivable columns,
        # row-major: exactly the per-charger (P_i, |T_i|) blocks, back to back.
        lanes = self.receivable[policy_owner]
        sparse_cover = policy_cover[lanes]
        self.policy_power_flat = policy_power[lanes]
        receivable_counts = self.receivable.sum(axis=1)
        self.policy_offsets = np.concatenate(
            [[0], np.cumsum(counts * receivable_counts)]
        )

        self.cover_masks: list[np.ndarray] = []  # (P_i, m) bool, row 0 = idle
        self.policy_power: list[np.ndarray] = []  # (P_i, m) float, W
        self.policy_orientations: list[np.ndarray] = []  # (P_i,), nan = idle
        self.policy_tasks: list[np.ndarray] = []  # (|T_i|,) int — receivable columns
        self.sparse_cover: list[np.ndarray] = []  # (P_i, |T_i|) bool
        self.sparse_power: list[np.ndarray] = []  # (P_i, |T_i|) views into the flat array
        for i in range(n):
            a, b = rows[i], rows[i + 1]
            lo, hi = self.policy_offsets[i], self.policy_offsets[i + 1]
            shape = (int(counts[i]), int(receivable_counts[i]))
            self.cover_masks.append(policy_cover[a:b])
            self.policy_power.append(policy_power[a:b])
            self.policy_orientations.append(policy_orient[a:b])
            self.policy_tasks.append(np.flatnonzero(self.receivable[i]))
            self.sparse_cover.append(sparse_cover[lo:hi].reshape(shape))
            self.sparse_power.append(self.policy_power_flat[lo:hi].reshape(shape))
        self._dominant_sets: list[list[DominantSet]] | None = None
        self._sparse_energy_cache: list[np.ndarray] | None = None
        self._dense_energy_cache: list[np.ndarray] | None = None
        self._active_sub_cache: list[np.ndarray] | None = None

    def _build_neighbors(self) -> None:
        """Chargers sharing a receivable task are neighbors (§6.1)."""
        self.neighbors: list[frozenset[int]] = []
        if self.n == 0:
            return
        # (n, n) co-coverage counts via one boolean matmul.
        if self.m:
            share = self.receivable.astype(np.int64) @ self.receivable.T.astype(np.int64)
        else:
            share = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            nb = frozenset(int(j) for j in np.flatnonzero(share[i] > 0) if j != i)
            self.neighbors.append(nb)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def policy_count(self, charger: int) -> int:
        """Number of policies of ``charger`` (idle included)."""
        return self.cover_masks[charger].shape[0]

    def tasks_receivable_by(self, charger: int) -> np.ndarray:
        """Indices of tasks charger ``charger`` can ever charge (``T_i``)."""
        return np.flatnonzero(self.receivable[charger])

    def chargers_covering(self, task: int) -> np.ndarray:
        """Indices of chargers that can charge ``task``."""
        return np.flatnonzero(self.receivable[:, task])

    def active_tasks_at(self, slot: int) -> np.ndarray:
        """Indices of tasks active during ``slot``."""
        return np.flatnonzero(self.active[:, slot])

    def relevant_slots(self, charger: int) -> np.ndarray:
        """Slots during which some receivable task of ``charger`` is active.

        Policy choices outside these slots cannot change the objective, so
        schedulers skip them (they stay idle).
        """
        mask = self.receivable[charger]
        if not mask.any() or self.num_slots == 0:
            return np.zeros(0, dtype=int)
        return np.flatnonzero(self.active[mask].any(axis=0))

    def policy_orientation(self, charger: int, policy: int) -> float | None:
        """Orientation assigned by ``policy`` (``None`` for idle)."""
        val = self.policy_orientations[charger][policy]
        return None if np.isnan(val) else float(val)

    @property
    def dominant_sets(self) -> list[list[DominantSet]]:
        """Each charger's dominant task sets (Algorithm 1), in policy order.

        ``dominant_sets[i][p - 1]`` is policy ``p`` of charger ``i``: the
        tasks of ``cover_masks[i][p]`` at ``policy_orientations[i][p]``.
        Built on first use; no scheduling kernel reads it.
        """
        if self._dominant_sets is None:
            self._dominant_sets = [
                [
                    DominantSet(frozenset(np.flatnonzero(row).tolist()), float(o))
                    for row, o in zip(cover[1:], orient[1:])
                ]
                for cover, orient in zip(self.cover_masks, self.policy_orientations)
            ]
        return self._dominant_sets

    # ------------------------------------------------------------------
    # Shared scheduling kernels (cached — networks are immutable)
    # ------------------------------------------------------------------
    def sparse_policy_energy(self) -> list[np.ndarray]:
        """Per-charger ``(P_i, |T_i|)`` energy-per-slot blocks (joules).

        ``sparse_power[i] * slot_seconds``, cached: every
        :class:`~repro.objective.haste.HasteObjective` bound to this network
        (the online runtime builds one per arrival event) shares the same
        read-only blocks instead of reallocating ``Σ P_i·m`` floats each
        time.  Callers must not mutate the returned arrays.
        """
        if self._sparse_energy_cache is None:
            self._sparse_energy_cache = [
                pw * self.slot_seconds for pw in self.sparse_power
            ]
        return self._sparse_energy_cache

    def dense_policy_energy(self) -> list[np.ndarray]:
        """Per-charger dense ``(P_i, m)`` energy-per-slot matrices (cached)."""
        if self._dense_energy_cache is None:
            self._dense_energy_cache = [
                pw * self.slot_seconds for pw in self.policy_power
            ]
        return self._dense_energy_cache

    def active_by_charger(self) -> list[np.ndarray]:
        """Per-charger ``(|T_i|, K)`` activity rows of the receivable tasks.

        Cached column gathers of :attr:`active`; masked objectives rebuild
        their own copies against the masked activity instead.  Callers must
        not mutate the returned arrays.
        """
        if self._active_sub_cache is None:
            self._active_sub_cache = [
                self.active[cols] for cols in self.policy_tasks
            ]
        return self._active_sub_cache

    def describe(self) -> str:
        """One-paragraph human-readable summary (used by the CLI)."""
        pol = sum(self.policy_count(i) - 1 for i in range(self.n))
        deg = (
            float(np.mean([len(nb) for nb in self.neighbors])) if self.neighbors else 0.0
        )
        return (
            f"ChargerNetwork(n={self.n} chargers, m={self.m} tasks, "
            f"K={self.num_slots} slots of {self.slot_seconds:.0f}s, "
            f"{pol} dominant task sets, mean neighbor degree {deg:.2f})"
        )

    # ------------------------------------------------------------------
    # Derived networks
    # ------------------------------------------------------------------
    def restricted_to_tasks(
        self, task_ids: Sequence[int], *, incremental: bool = True
    ) -> "ChargerNetwork":
        """A sub-network containing only the given tasks (re-indexed).

        Used by the online runtime to build each charger's *known* world
        before unreleased tasks exist.  Charger set and geometry are
        preserved; task ids are remapped to positions, with the original id
        recorded in :attr:`task_origin`.

        With ``incremental=True`` (default) the sub-network *slices* this
        network's precomputed ``dist`` / ``azimuth`` / ``receivable`` /
        ``power`` columns instead of redoing the pairwise geometry, the
        receivability predicate, and the power model from scratch; only the
        task-subset-dependent pieces (slot grid, activity, dominant sets,
        neighbors) are rebuilt, from the sliced per-charger arc data.  The
        result is element-for-element identical to the full reconstruction
        (``incremental=False``, kept as the verification reference) because
        every sliced matrix is elementwise in the task column.  Either way
        the sub-network carries the paper's default utility, as a freshly
        restricted world does not inherit experiment-specific overrides.
        """
        ids = sorted(int(t) for t in task_ids)
        remapped = []
        for new_id, old_id in enumerate(ids):
            t = self.tasks[old_id]
            remapped.append(
                ChargingTask(
                    id=new_id,
                    x=t.x,
                    y=t.y,
                    orientation=t.orientation,
                    release_slot=t.release_slot,
                    end_slot=t.end_slot,
                    required_energy=t.required_energy,
                    receiving_angle=t.receiving_angle,
                    weight=t.weight,
                )
            )
        if not incremental:
            sub = ChargerNetwork(
                chargers=self.chargers,
                tasks=remapped,
                power_model=self.power_model,
                slot_seconds=self.slot_seconds,
            )
            sub.task_origin = ids  # type: ignore[attr-defined]
            return sub

        cols = np.asarray(ids, dtype=int)
        sub = object.__new__(ChargerNetwork)
        sub.chargers = list(self.chargers)
        sub.tasks = remapped
        sub.power_model = self.power_model
        sub.slot_seconds = self.slot_seconds
        sub.utility = (
            LinearBoundedUtility.for_tasks(remapped) if remapped else None
        )
        sub.n, sub.m = self.n, len(remapped)
        sub.grid = SlotGrid.for_tasks(remapped, self.slot_seconds)
        sub.num_slots = sub.grid.num_slots
        sub.charger_xy = self.charger_xy
        sub.task_xy = self.task_xy[cols] if self.m else np.zeros((0, 2))
        sub.weights = self.weights[cols]
        sub.required_energy = self.required_energy[cols]
        sub.release_slots = self.release_slots[cols]
        sub.end_slots = self.end_slots[cols]
        if sub.n and sub.m:
            sub.dist = self.dist[:, cols]
            sub.azimuth = self.azimuth[:, cols]
            sub.receivable = self.receivable[:, cols]
            sub.power = self.power[:, cols]
        else:
            sub.dist = np.zeros((sub.n, sub.m))
            sub.azimuth = np.zeros((sub.n, sub.m))
            sub.receivable = np.zeros((sub.n, sub.m), dtype=bool)
            sub.power = np.zeros((sub.n, sub.m))
        sub.active = sub.grid.activity_matrix(remapped)
        sub._build_policies()
        sub._build_neighbors()
        sub.task_origin = ids  # type: ignore[attr-defined]
        return sub
