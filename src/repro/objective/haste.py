"""The HASTE-R objective ``f(X)`` — vectorized, incremental, sparse.

Problem RP2 of the paper: items of the ground set are scheduling policies
``(charger i, slot k, policy p)`` (``p ≥ 1``; idle is the absence of an
item), and

```
f(X) = Σ_j w_j · U_j( Σ_{(i,k,p) ∈ X, task j active at k, j ∈ Γ_i^p}
                       P_r(s_i, o_j) · T_s )
```

The scheduler's hot path asks, for one *partition* ``(i, k)``, the marginal
gain of every policy at once; :meth:`HasteObjective.partition_gains`
answers that with a single ``(policies × tasks)`` numpy expression against
a running per-task energy vector — this is the vectorization boundary
recommended by the performance guides (one numpy call per partition, not
per candidate).

**Column-compressed kernels.**  Charger ``i`` can only ever charge its
receivable tasks ``T_i`` with ``|T_i| ≪ m``, so every kernel operates on
the network's column-compressed policy arrays
(:attr:`~repro.core.network.ChargerNetwork.policy_tasks` /
``sparse_power``) and the utility restricted to those columns
(:meth:`~repro.core.utility.UtilityFunction.restrict`): gains, applies,
and whole-schedule accumulation touch only the ``|T_i|`` receivable
columns and never allocate a ``(P_i, m)`` temporary.  The dense full-width
formulation lives in ``tests/oracles/`` as the reference the equivalence
tests compare against.

Energy *state* is just an ``(…, m)`` float array, so the TabularGreedy
Monte Carlo path keeps an ``(S, m)`` matrix — one energy row per color
sample — and evaluates gains for all matching samples in the same call
(:meth:`HasteObjective.partition_gains_rows` gathers only the matching
rows × receivable columns block).

:class:`HasteSetFunction` adapts the objective to the generic
:class:`~repro.submodular.functions.SetFunction` interface for the property
tests and reference algorithms.

**Batched multi-instance evaluation.**  :class:`BatchedCharger` stacks one
charger position's selection data (slot-energy blocks, activity columns,
required energies) across a *batch of instances* so the element-wise stage
of the gain kernel runs once over a padded ``(batch, policies, tasks)``
tensor instead of once per instance.  The weighted sum over tasks is kept
per instance on its exact ``(P_b, t_b)`` block — the same BLAS call the
sequential path makes — so the float64 batched gains are bit-identical to
:meth:`HasteObjective.partition_gains` per member (pinned by
``tests/test_batch_equivalence.py``).  An opt-in ``dtype=np.float32`` mode
trades that guarantee for half the bandwidth; see DESIGN.md §14 for the
tolerance argument.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.network import ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import LinearBoundedUtility, PowerLawUtility, UtilityFunction
from ..submodular.functions import SetFunction

__all__ = ["BatchedCharger", "HasteObjective", "HasteSetFunction"]


class HasteObjective:
    """Incremental evaluator of the HASTE-R objective on a network.

    Parameters
    ----------
    network:
        The precomputed :class:`~repro.core.network.ChargerNetwork`.
    utility:
        Override the network's utility function (e.g. for the concave
        extension experiments).
    task_mask:
        Boolean ``(m,)`` knowledge mask; masked-out tasks contribute no
        activity and no utility (the online runtime plans against only the
        already-released tasks this way).
    active:
        Boolean ``(m, K)`` activity to plan on instead of the network's
        (the online baselines plan on τ-delayed activity this way); the
        utility weights are unchanged.
    """

    def __init__(
        self,
        network: ChargerNetwork,
        utility: UtilityFunction | None = None,
        *,
        task_mask: np.ndarray | None = None,
        active: np.ndarray | None = None,
    ) -> None:
        self.network = network
        self.utility = utility if utility is not None else network.utility
        if self.utility is None:
            raise ValueError("network has no tasks / utility function")
        self.weights = network.weights
        self.active = network.active  # (m, K) bool
        if active is not None:
            self.active = np.asarray(active, dtype=bool)
            if self.active.shape != network.active.shape:
                raise ValueError(
                    f"active must have shape {network.active.shape}, "
                    f"got {self.active.shape}"
                )
        # Per charger: receivable task columns, the (P_i, |T_i|) energy
        # each policy adds per slot (shared, cached on the network,
        # read-only), and the utility restricted to those columns.
        self._cols = network.policy_tasks
        self._sparse_energy = network.sparse_policy_energy()
        self._util_cols = [self.utility.restrict(cols) for cols in self._cols]
        # For the paper's linear-bounded utility the gain formula is inlined
        # in the hot kernel (same ufunc sequence, so bit-identical — just
        # without the per-call dispatch); other utilities go through
        # ``UtilityFunction.gain``.  The required energies are bound at full
        # ``(|T_i|,)`` length even for a scalar utility: the compiled
        # kernels read one entry per receivable column.
        self._util_E = [
            (
                u.required_energy
                if u.required_energy.size == cols.size
                else np.full(cols.size, u.required_energy[0])
            )
            if type(u) is LinearBoundedUtility
            else None
            for u, cols in zip(self._util_cols, self._cols)
        ]
        if task_mask is not None:
            mask = np.asarray(task_mask, dtype=bool)
            if mask.shape != (network.m,):
                raise ValueError(
                    f"task_mask must have shape ({network.m},), got {mask.shape}"
                )
            # A masked objective "does not know" the masked-out tasks: they
            # contribute no activity and no utility.  The online runtime
            # uses this to plan against only the already-released tasks.
            self.active = self.active & mask[:, None]
            self.weights = np.where(mask, self.weights, 0.0)
        if self.active is network.active:
            self._active_sub = network.active_by_charger()
        else:
            self._active_sub = [self.active[cols] for cols in self._cols]
        self._w_cols = [self.weights[cols] for cols in self._cols]
        # Per-partition (charger, slot) → (P_i, |T_i|) slot-energy block.
        # The block depends only on static data (sparse power × activity
        # column), so it is computed once per objective and reused by every
        # visit of that partition — callers must treat it as read-only.
        self._add_cache: dict[tuple[int, int], np.ndarray] = {}
        self._changed_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def masked_view(self, task_mask: np.ndarray) -> "HasteObjective":
        """A knowledge-masked objective sharing this one's kernels.

        Equivalent to ``HasteObjective(network, utility, task_mask=...)``
        but reuses the per-policy energy blocks and column-restricted
        utilities already bound here, so the online runtime's per-arrival
        objective costs only the masked activity/weight recompute.
        """
        mask = np.asarray(task_mask, dtype=bool)
        net = self.network
        if mask.shape != (net.m,):
            raise ValueError(
                f"task_mask must have shape ({net.m},), got {mask.shape}"
            )
        dup = object.__new__(HasteObjective)
        dup.network = net
        dup.utility = self.utility
        dup._cols = self._cols
        dup._sparse_energy = self._sparse_energy
        dup._util_cols = self._util_cols
        dup._util_E = self._util_E
        dup.active = net.active & mask[:, None]
        dup.weights = np.where(mask, net.weights, 0.0)
        dup._active_sub = [dup.active[cols] for cols in dup._cols]
        dup._w_cols = [dup.weights[cols] for cols in dup._cols]
        # Activity (and therefore the slot-energy blocks) differs under the
        # mask — the view gets fresh caches, not the parent's.
        dup._add_cache = {}
        dup._changed_cache = {}
        return dup

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def zero_energy(self, leading_shape: tuple[int, ...] = ()) -> np.ndarray:
        """Fresh per-task energy state, optionally with leading sample dims."""
        return np.zeros(leading_shape + (self.network.m,), dtype=float)

    def value(self, energies: np.ndarray) -> float | np.ndarray:
        """Weighted utility of an energy state ``(…, m)``.

        Returns a scalar for a 1-D state, else one value per leading row.
        """
        util = self.utility(energies)
        out = util @ self.weights
        if np.ndim(out) == 0:
            return float(out)
        return out

    # ------------------------------------------------------------------
    # Incremental evaluation
    # ------------------------------------------------------------------
    def added_energy(self, charger: int, slot: int) -> np.ndarray:
        """Energy each policy of ``charger`` adds during ``slot``: ``(P_i, m)``.

        Zero for tasks inactive at ``slot`` — the inner sum of RP1 runs only
        over slots inside each task's window.  Dense by construction, for
        the MILP and the static baseline; the hot paths use
        :meth:`added_energy_cols` instead.
        """
        col = self.active[:, slot]
        return self.network.dense_policy_energy()[charger] * col[None, :]

    def added_energy_cols(self, charger: int, slot: int) -> np.ndarray:
        """Sparse slot energy ``(P_i, |T_i|)`` over the receivable columns.

        Cached per partition (the block is static data) — treat the result
        as read-only.
        """
        key = (charger, slot)
        add = self._add_cache.get(key)
        if add is None:
            add = (
                self._sparse_energy[charger]
                * self._active_sub[charger][:, slot][None, :]
            )
            self._add_cache[key] = add
        return add

    def changed_tasks(self, charger: int, slot: int, policy: int) -> np.ndarray:
        """Network-level indices of tasks whose energy ``policy`` changes.

        The online negotiation re-evaluates only the proposals whose
        receivable tasks a commit changed.  Cached per
        ``(charger, slot, policy)`` — static data.
        """
        key = (charger, slot, policy)
        changed = self._changed_cache.get(key)
        if changed is None:
            add = self.added_energy_cols(charger, slot)[policy]
            changed = self._cols[charger][add > 0.0]
            self._changed_cache[key] = changed
        return changed

    def relevant_slots(self, charger: int) -> np.ndarray:
        """Slots where some (unmasked) receivable task of ``charger`` is active.

        Mirrors :meth:`ChargerNetwork.relevant_slots` but honours this
        objective's task mask.
        """
        sub = self._active_sub[charger]
        if sub.size == 0:
            return np.zeros(0, dtype=int)
        return np.flatnonzero(sub.any(axis=0))

    def partition_gains(self, energies: np.ndarray, charger: int, slot: int) -> np.ndarray:
        """Weighted marginal gain of every policy of one partition.

        ``energies`` may be ``(m,)`` (plain greedy) or ``(S, m)`` (one row
        per Monte Carlo color sample); the result is ``(P_i,)`` or
        ``(S, P_i)`` respectively.  Row 0 (idle) is always 0.
        """
        cur = np.asarray(energies, dtype=float)[..., self._cols[charger]]
        return self._gains_cols(cur, charger, slot)

    def partition_gains_rows(
        self, energies: np.ndarray, rows: np.ndarray, charger: int, slot: int
    ) -> np.ndarray:
        """:meth:`partition_gains` for selected sample rows of an ``(S, m)`` state.

        Gathers only the ``(len(rows), |T_i|)`` block the gain actually
        depends on instead of materializing the full ``(len(rows), m)``
        fancy-index copy the caller would otherwise pay for.
        """
        # rows[:, None] × cols broadcast like np.ix_ but skip its per-call
        # dtype plumbing — this gather runs ~80k times per paper-scale run.
        cur = energies[np.asarray(rows)[:, None], self._cols[charger]]
        return self._gains_cols(cur, charger, slot)

    def _gains_cols(self, cur: np.ndarray, charger: int, slot: int) -> np.ndarray:
        """Gain kernel on column-compressed current energies ``(…, |T_i|)``."""
        add = self.added_energy_cols(charger, slot)  # (P, t)
        E = self._util_E[charger]
        if cur.ndim == 1:
            util = self._util_cols[charger]
            gains = util.gain(cur[None, :], add)  # (P, t)
            return gains @ self._w_cols[charger]
        if E is not None:
            # Inlined LinearBoundedUtility.gain — identical ufunc sequence.
            gains = np.minimum((cur[:, None, :] + add) / E, 1.0) - np.minimum(
                cur[:, None, :] / E, 1.0
            )
            return gains @ self._w_cols[charger]
        util = self._util_cols[charger]
        gains = util.gain(cur[:, None, :], add[None, :, :])  # (S, P, t)
        return gains @ self._w_cols[charger]

    def apply(self, energies: np.ndarray, charger: int, slot: int, policy: int) -> None:
        """Add the chosen policy's slot energy to the state, in place.

        For an ``(S, m)`` state pass ``energies[rows]``-style views... —
        numpy fancy indexing copies, so instead use :meth:`apply_rows`.
        """
        energies[..., self._cols[charger]] += self.added_energy_cols(
            charger, slot
        )[policy]

    def apply_rows(
        self, energies: np.ndarray, rows: np.ndarray, charger: int, slot: int, policy: int
    ) -> None:
        """Add a policy's slot energy to selected sample rows of ``(S, m)``."""
        energies[
            np.asarray(rows)[:, None], self._cols[charger]
        ] += self.added_energy_cols(charger, slot)[policy][None, :]

    # ------------------------------------------------------------------
    # Whole-schedule evaluation (no switching delay — HASTE-R)
    # ------------------------------------------------------------------
    def energies_of_schedule(
        self, schedule: Schedule, *, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Per-task harvested energy of a schedule, ``(m,)`` joules.

        ``start``/``stop`` restrict accounting to slots ``[start, stop)`` —
        the online runtime banks the energy of the already-fixed past this
        way before planning the future.
        """
        return self._energies_of_selections(schedule.sel[None], start, stop)[0]

    def value_of_schedule(self, schedule: Schedule) -> float:
        """HASTE-R objective value of a schedule (switching delay ignored)."""
        return float(self.value(self.energies_of_schedule(schedule)))

    def values_of_selections(self, sels: np.ndarray) -> list[float]:
        """:meth:`value_of_schedule` of ``D`` selection matrices ``(D, n, K)``."""
        return [float(self.value(row)) for row in self._energies_of_selections(sels)]

    def _energies_of_selections(
        self, sels: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Per-task harvested energy of ``D`` selection matrices, ``(D, m)``.

        Per charger, every candidate's selected policies' ``|T_i|``-wide
        slot-energy rows are gathered over the union of the candidates'
        non-idle slots in ``[start, stop)`` and summed by a sequential
        ``cumsum`` seeded with the running energies: the same additions, in
        the same order, as a per-slot ``+=`` loop.  A candidate idle at a
        union slot adds its idle policy's all-zero row, exactly ``+0.0``, so
        each candidate's row is the one it gets alone.
        """
        net = self.network
        stop = net.num_slots if stop is None else min(stop, net.num_slots)
        energies = self.zero_energy((sels.shape[0],))
        busy = sels[:, :, start:stop].any(axis=0)
        for i in range(net.n):
            slots = np.flatnonzero(busy[i]) + start
            if slots.size == 0:
                continue
            sel = sels[:, i, slots]
            cols = self._cols[i]
            block = np.empty((sel.shape[0], slots.size + 1, cols.size))
            block[:, 0] = energies[:, cols]
            np.multiply(
                self._sparse_energy[i][sel],
                self._active_sub[i][:, slots].T,
                out=block[:, 1:],
            )
            energies[:, cols] = np.cumsum(block, axis=1)[:, -1]
        return energies

    def items_to_schedule(self, items: Iterable[tuple[int, int, int]]) -> Schedule:
        """Materialize a set of ``(charger, slot, policy)`` items."""
        sched = Schedule(self.network)
        for i, k, p in items:
            sched.set(i, k, p)
        return sched


class BatchedCharger:
    """One charger position's gain/apply kernel, stacked across instances.

    Members are ``(objective, charger)`` pairs — typically the same charger
    index of every instance in a batch — each contributing a sparse
    ``(P_b, t_b)`` policy block.  The element-wise stage of the gain kernel
    (slot-energy broadcast + clipped-utility difference) runs once on padded
    ``(M, P*, t*)`` tensors; the weighted task sum is then taken per member
    on a contiguous copy of its exact ``(P_b, t_b)`` block, which is the
    very same GEMV the sequential :meth:`HasteObjective._gains_cols` path
    issues.  Padding is exact, not approximate:

    * slot-energy pads are ``+0.0``, so padded lanes produce ``0.0`` gain
      through the clipped-utility difference (``E`` pads are ``1.0`` to keep
      the division defined);
    * the gains buffer pads policies with ``-1.0`` — every real gain is
      ``≥ 0`` — so a full-row ``argmax`` can never select a padded policy
      and keeps numpy's first-maximum tie-breaking on the real prefix;
    * the idle row (policy 0) of every slot-energy block is exactly zero,
      so a batched ``apply`` may scatter-add the selected rows
      unconditionally: non-committing members add ``+0.0``.

    With ``dtype=np.float64`` (default) the per-member gains are
    bit-identical to the sequential path.  ``dtype=np.float32`` stores the
    stacked state in single precision and inlines the linear-bounded gain
    formula (supported for :class:`LinearBoundedUtility` only); DESIGN.md
    §14 documents the measured tolerance.
    """

    def __init__(
        self,
        members: list[tuple[HasteObjective, int]],
        *,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float64 or float32, got {dt}")
        if not members:
            raise ValueError("BatchedCharger needs at least one member")
        self.members = list(members)
        self.dtype = dt
        M = len(self.members)
        utils: list[UtilityFunction] = []
        shapes: list[tuple[int, int, int]] = []
        for obj, i in self.members:
            se = obj._sparse_energy[i]
            if se.shape[0] < 2 or se.shape[1] == 0:
                raise ValueError(
                    "members must have >= 2 policies and >= 1 receivable task"
                )
            utils.append(obj._util_cols[i])
            shapes.append((se.shape[0], se.shape[1], obj.active.shape[1]))
        ufam = type(utils[0])
        if any(type(u) is not ufam for u in utils):
            raise ValueError("all members must share one utility family")
        if dt == np.dtype(np.float32) and ufam is not LinearBoundedUtility:
            raise ValueError(
                "float32 batching supports LinearBoundedUtility only"
            )
        P_max = max(s[0] for s in shapes)
        t_max = max(s[1] for s in shapes)
        K_max = max(s[2] for s in shapes)
        self.shapes = shapes
        self.num_slots = K_max
        # Stacked static data.  SE pads with +0.0 (exact no-op lanes), the
        # activity pad is False (kills padded slots/tasks), E pads with 1.0
        # (keeps the division defined on dead lanes).
        SE = np.zeros((M, P_max, t_max), dtype=dt)
        ACT = np.zeros((M, t_max, K_max), dtype=bool)
        E = np.ones((M, t_max), dtype=dt)
        gammas: set[float] = set()
        for m, (obj, i) in enumerate(self.members):
            P, t, K = shapes[m]
            SE[m, :P, :t] = obj._sparse_energy[i]
            ACT[m, :t, :K] = obj._active_sub[i]
            E[m, :t] = np.broadcast_to(utils[m].required_energy, (t,))
            if ufam is PowerLawUtility:
                gammas.add(utils[m].gamma)
        self._SE = SE
        self._ACT = ACT
        self._E3 = E[:, None, :]  # broadcast against (M, P*, t*)
        self._one = dt.type(1.0)
        if ufam is LinearBoundedUtility:
            # :meth:`gains` inlines the linear-bounded gain formula: the
            # ufunc sequence of ``LinearBoundedUtility.gain`` without its
            # per-call overhead, and in single precision, which the class
            # would silently upcast to float64.
            self._util: UtilityFunction | None = None
        elif ufam is PowerLawUtility:
            if len(gammas) != 1:
                raise ValueError("all members must share one power-law gamma")
            self._util = PowerLawUtility(self._E3, gamma=gammas.pop())
        else:
            # Same class as the sequential restricted utility, so `.gain`
            # runs the identical ufunc sequence on the stacked operands.
            self._util = ufam(self._E3)
        # Per-member weight vectors stay exact (unpadded): the task-sum GEMV
        # is issued per member on its own block.
        self._w = [
            np.ascontiguousarray(obj._w_cols[i], dtype=dt)
            for obj, i in self.members
        ]
        self.cur = np.zeros((M, t_max), dtype=dt)
        self._G = np.empty((M, P_max), dtype=dt)
        self.arange = np.arange(M)

    def active_slots(self) -> np.ndarray:
        """Slots at which some member has an active receivable task.

        At every other slot all gains are ``0.0`` and no member commits.
        """
        return np.flatnonzero(self._ACT.any(axis=(0, 1)))

    def gains(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked partition gains for ``slot < num_slots``: ``(G, add)``.

        ``G`` is ``(M, P*)`` with padded policies at ``-1.0``; ``add`` is the
        stacked ``(M, P*, t*)`` slot-energy tensor, to be passed back to
        :meth:`apply`.  ``G[m, :P_m]`` equals the sequential
        ``partition_gains`` output of member ``m`` bit-for-bit (float64).
        """
        add = self._SE * self._ACT[:, None, :, slot]
        cur3 = self.cur[:, None, :]
        if self._util is not None:
            tens = self._util.gain(cur3, add)
        else:
            one = self._one
            tens = np.minimum((cur3 + add) / self._E3, one) - np.minimum(
                cur3 / self._E3, one
            )
        G = self._G
        G[:, :] = -1.0
        for m, (P, t, _K) in enumerate(self.shapes):
            # ascontiguousarray -> the same contiguous (P, t) @ (t,) GEMV
            # the sequential path issues, hence the same reduction order.
            G[m, :P] = np.ascontiguousarray(tens[m, :P, :t]) @ self._w[m]
        return G, add

    def apply(self, add: np.ndarray, policies: np.ndarray) -> None:
        """Commit one selected policy per member onto the stacked state.

        ``policies`` is ``(M,)`` int; members that stay idle pass policy 0,
        whose slot-energy row is exactly zero — the scatter-add is a
        bitwise no-op for them.
        """
        self.cur += add[self.arange, policies, :]

    def energies(self, member: int) -> np.ndarray:
        """Member's accumulated per-receivable-task energies ``(t_b,)``."""
        _P, t, _K = self.shapes[member]
        return self.cur[member, :t]


class HasteSetFunction(SetFunction):
    """Generic set-function view of :class:`HasteObjective`.

    Items are ``(charger, slot, policy)`` triples with ``policy ≥ 1``,
    restricted to relevant slots.  Used by property tests (Lemma 4.2) and
    by the reference greedy/TabularGreedy implementations.
    """

    def __init__(self, objective: HasteObjective) -> None:
        self.objective = objective
        net = objective.network
        items = []
        for i in range(net.n):
            for k in net.relevant_slots(i):
                for p in range(1, net.policy_count(i)):
                    items.append((i, int(k), p))
        self._ground = frozenset(items)

    @property
    def ground_set(self) -> frozenset:
        return self._ground

    def value(self, items: Iterable[tuple[int, int, int]]) -> float:
        energies = self.objective.zero_energy()
        for i, k, p in set(items):
            self.objective.apply(energies, i, k, p)
        return float(self.objective.value(energies))
