"""Batched multi-instance baselines — one BLAS-shaped pass, B instances.

The serve layer and the benchmark harness solve many *similar* instances:
same config, different seeds.  Solving them one by one leaves numpy
dispatch as the dominant cost (a paper-scale GreedyUtility plan is ~6000
partition evaluations of a handful of small ufuncs each).  The planning
drivers here run the same algorithms with the per-partition element-wise
work stacked across the batch via
:class:`~repro.objective.haste.BatchedCharger`, so the dispatch count is
~independent of the batch size.  Execution is a loop over the
column-compressed :func:`~repro.sim.engine.execute_schedule`.

Bit-identity contract (float64): for every member ``b`` the returned
schedule and execution equal ``greedy_*_schedule(networks[b])`` /
``execute_schedule(networks[b], ...)`` *bit for bit*.  The argument, in
brief (DESIGN.md §14 has the long form):

* chargers are independent in both baselines (GreedyUtility keeps a
  private own-energy ledger; GreedyCover only reads static data), so
  reordering the ``(slot, charger)`` loops to ``(charger, slot)`` is exact;
* element-wise IEEE ops give the same lane values whether or not other
  lanes are stacked around them; padded lanes are exact ``+0.0`` / ``False``
  no-ops (see :class:`BatchedCharger`);
* every reduction that could reassociate — the gains GEMV — is issued
  per member on a contiguous copy of its exact block, i.e. the very BLAS
  call the sequential path makes.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..objective.haste import BatchedCharger, HasteObjective
from ..sim.engine import ExecutionResult, execute_schedule
from .baselines import MIN_GAIN

__all__ = [
    "greedy_utility_schedule_batch",
    "greedy_cover_schedule_batch",
    "execute_schedule_batch",
]


def greedy_utility_schedule_batch(
    networks: list[ChargerNetwork],
    *,
    utilities: list[UtilityFunction | None] | None = None,
    dtype: np.dtype | type = np.float64,
) -> list[Schedule]:
    """GreedyUtility over a batch of networks (see module docstring).

    ``utilities[b]`` overrides network ``b``'s scoring utility exactly like
    the ``utility=`` parameter of :func:`greedy_utility_schedule`; all
    members must resolve to the same utility family.  ``dtype=np.float32``
    plans in single precision (linear-bounded utilities only) — schedules
    may then differ from float64 on near-ties, see DESIGN.md §14.
    """
    B = len(networks)
    utils = list(utilities) if utilities is not None else [None] * B
    if len(utils) != B:
        raise ValueError("utilities must match networks in length")
    objectives = [
        HasteObjective(net, u) for net, u in zip(networks, utils)
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
        for k in range(bc.num_slots):
            G, add = bc.gains(k)
            best = np.argmax(G, axis=1)
            commit = (best != IDLE_POLICY) & (G[ar, best] > MIN_GAIN)
            p_sel = np.where(commit, best, IDLE_POLICY)
            bc.apply(add, p_sel)
            rows[:, k] = p_sel
        for mpos, b in enumerate(members):
            K_b = networks[b].num_slots
            schedules[b].sel[i, :K_b] = rows[mpos, :K_b]
    return schedules


def greedy_cover_schedule_batch(
    networks: list[ChargerNetwork],
) -> list[Schedule]:
    """GreedyCover over a batch of networks.

    One ``(P_i, m) @ (m, K)`` boolean matmul per charger replaces the
    sequential path's ``K`` per-slot matvecs; boolean OR/AND logic is
    order-independent, so the per-column first-covering argmax selects
    exactly the policy :func:`greedy_cover_schedule` selects.
    """
    schedules = [Schedule(net) for net in networks]
    for net, sched in zip(networks, schedules):
        K = net.num_slots
        if K == 0:
            continue
        cols = np.arange(K)
        for i in range(net.n):
            if net.policy_count(i) <= 1:
                continue
            covered = net.cover_masks[i] @ net.active  # (P_i, K) bool
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
