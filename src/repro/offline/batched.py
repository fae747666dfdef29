"""The paper's two baselines, GreedyUtility and GreedyCover (§7.2).

These drivers are the only implementation of either baseline: a solo
solve is a batch of one, a batch of B solves B instances in one pass, and
the online runtime plans its τ-delayed baselines with the same drivers on
a delayed activity matrix (``actives``).  Batching exists because the
serve layer and the benchmark harness solve many *similar* instances:
same config, different seeds.  Solving them one by one leaves numpy
dispatch as the dominant cost (a paper-scale GreedyUtility plan is ~6000
partition evaluations of a handful of small ufuncs each).
GreedyUtility stacks the per-partition element-wise work across the batch
via :class:`~repro.objective.haste.BatchedCharger`, so the dispatch count
is ~independent of the batch size.  Execution is a loop over the
column-compressed :func:`~repro.sim.engine.execute_schedule`.

Bit-identity contract (float64): member ``b`` of a batch gets the schedule
it gets as a batch of one, and that schedule equals the plain scalar loop
(one charger, one slot at a time) kept in ``tests/oracles/baselines.py``
*bit for bit*.  The argument, in brief (DESIGN.md §14 has the long form):

* chargers are independent in both baselines (GreedyUtility keeps a
  private own-energy ledger; GreedyCover only reads static data), so
  reordering the ``(slot, charger)`` loops to ``(charger, slot)`` is exact;
* element-wise IEEE ops give the same lane values whether or not other
  lanes are stacked around them; padded lanes are exact ``+0.0`` / ``False``
  no-ops (see :class:`BatchedCharger`);
* every reduction that could reassociate — the gains GEMV — is issued
  per member on a contiguous copy of its exact block, i.e. the very BLAS
  call the scalar loop makes;
* a slot where no member has an active receivable task is skipped: every
  gain there is ``0.0``, so no member commits and the ledgers are unchanged.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..objective.haste import MIN_GAIN, BatchedCharger, HasteObjective
from ..sim.engine import ExecutionResult, execute_schedule

__all__ = [
    "greedy_utility_schedule_batch",
    "greedy_cover_schedule_batch",
    "execute_schedule_batch",
]


def greedy_utility_schedule_batch(
    networks: list[ChargerNetwork],
    *,
    utilities: list[UtilityFunction | None] | None = None,
    actives: list[np.ndarray] | None = None,
    dtype: np.dtype | type = np.float64,
) -> list[Schedule]:
    """GreedyUtility over a batch of networks.

    Each charger keeps a private per-task energy ledger holding only the
    energy *it* delivered, and at every slot selects the policy with the
    largest weighted utility gain against that ledger (ties to the lower
    policy index; no gain above ``MIN_GAIN`` stays idle).

    ``utilities[b]`` overrides network ``b``'s scoring utility; all
    members must resolve to the same utility family.  ``actives[b]`` is the
    ``(m, K)`` activity member ``b`` plans on (default: its network's).
    ``dtype=np.float32`` plans in single precision (linear-bounded
    utilities only) — schedules may then differ from float64 on
    near-ties, see DESIGN.md §14.
    """
    B = len(networks)
    utils = list(utilities) if utilities is not None else [None] * B
    acts = list(actives) if actives is not None else [None] * B
    if len(utils) != B or len(acts) != B:
        raise ValueError("utilities and actives must match networks in length")
    objectives = [
        HasteObjective(net, u, active=a)
        for net, u, a in zip(networks, utils, acts)
    ]
    schedules = [Schedule(net) for net in networks]
    n_max = max((net.n for net in networks), default=0)
    for i in range(n_max):
        members = [
            b
            for b in range(B)
            if i < networks[b].n
            and networks[b].policy_count(i) > 1
            and objectives[b]._cols[i].size > 0
        ]
        if not members:
            continue
        bc = BatchedCharger(
            [(objectives[b], i) for b in members], dtype=dtype
        )
        ar = bc.arange
        rows = np.zeros((len(members), bc.num_slots), dtype=np.int64)
        for k in bc.active_slots():
            G, add = bc.gains(k)
            best = G.argmax(axis=1)
            # Idle gains are exactly 0.0, so a member commits its best
            # policy iff that policy's gain clears MIN_GAIN.
            p_sel = best * (G[ar, best] > MIN_GAIN)
            bc.apply(add, p_sel)
            rows[:, k] = p_sel
        for mpos, b in enumerate(members):
            K_b = networks[b].num_slots
            schedules[b].sel[i, :K_b] = rows[mpos, :K_b]
    return schedules


def greedy_cover_schedule_batch(
    networks: list[ChargerNetwork],
    *,
    actives: list[np.ndarray] | None = None,
) -> list[Schedule]:
    """GreedyCover over a batch of networks.

    Per slot, each charger selects the *lowest-index* policy that covers
    at least one task active at that slot, and stays idle when none does.
    ``cover_masks[i] @ active`` multiplies two boolean arrays, so each
    entry says whether a policy covers *any* active task, not how many.
    One ``(P_i, m) @ (m, K)`` matmul per charger scores every slot at once;
    ``actives[b]`` is the ``(m, K)`` activity member ``b`` plans on
    (default: its network's).
    """
    acts = list(actives) if actives is not None else [None] * len(networks)
    if len(acts) != len(networks):
        raise ValueError("actives must match networks in length")
    schedules = [Schedule(net) for net in networks]
    for net, sched, active in zip(networks, schedules, acts):
        K = net.num_slots
        if K == 0:
            continue
        active = net.active if active is None else active
        cols = np.arange(K)
        for i in range(net.n):
            if net.policy_count(i) <= 1:
                continue
            covered = net.cover_masks[i] @ active  # (P_i, K) bool
            best = np.argmax(covered, axis=0)
            commit = covered[best, cols]
            sched.sel[i, :] = np.where(commit, best, IDLE_POLICY)
    return schedules


def execute_schedule_batch(
    networks: list[ChargerNetwork],
    schedules: list[Schedule],
    *,
    rhos: list[float],
    utilities: list[UtilityFunction | None] | None = None,
) -> list[ExecutionResult]:
    """:func:`~repro.sim.engine.execute_schedule` over a batch of runs.

    A plain loop: the column-compressed executor already accounts each
    charger in one pass, so stacking members bought nothing.  Results are
    the sequential executor's by construction.
    """
    B = len(networks)
    if len(schedules) != B or len(rhos) != B:
        raise ValueError("networks, schedules, rhos must have equal lengths")
    utils = list(utilities) if utilities is not None else [None] * B
    if len(utils) != B:
        raise ValueError("utilities must match networks in length")
    rhos = [float(r) for r in rhos]
    for r in rhos:
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"rho must be in [0, 1], got {r}")
    with obs.span("sim.execute_batch", batch=B):
        return [
            execute_schedule(net, sched, rho=rho, utility=util)
            for net, sched, rho, util in zip(networks, schedules, rhos, utils)
        ]
