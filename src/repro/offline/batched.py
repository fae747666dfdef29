"""Batched multi-instance baselines — one BLAS-shaped pass, B instances.

The serve layer and the benchmark harness solve many *similar* instances:
same config, different seeds.  Solving them one by one leaves numpy
dispatch as the dominant cost (a paper-scale GreedyUtility plan is ~6000
partition evaluations of a handful of small ufuncs each).  The drivers
here run the same algorithms with the per-partition element-wise work
stacked across the batch via :class:`~repro.objective.haste.BatchedCharger`
and the executor's per-slot accumulation shared across members, so the
dispatch count is ~independent of the batch size.

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
* every reduction that could reassociate — the gains GEMV, the delivered
  row-sum, the utility dot — is issued per member on a contiguous copy of
  its exact block, i.e. the very BLAS call the sequential path makes;
* the executor accumulates delivered energy slot-by-slot in ascending
  ``k`` exactly like the sequential loop; members idle at a slot receive
  ``+0.0`` (idle cover rows are all-``False``), which is a bitwise no-op
  on a non-negative accumulator.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..objective.haste import BatchedCharger, HasteObjective
from ..sim.engine import ExecutionResult
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

    Per-member results are bit-identical to the sequential executor: the
    per-slot delivered-energy accumulation runs in the same ascending-slot
    order with members stacked along a leading axis, and the final
    row-sum / utility / weighted-dot reductions are issued per member on
    contiguous copies of their exact blocks.
    """
    B = len(networks)
    if len(schedules) != B or len(rhos) != B:
        raise ValueError("networks, schedules, rhos must have equal lengths")
    utils = list(utilities) if utilities is not None else [None] * B
    if len(utils) != B:
        raise ValueError("utilities must match networks in length")
    utils = [
        u if u is not None else net.utility for u, net in zip(utils, networks)
    ]
    rhos = [float(r) for r in rhos]
    for r in rhos:
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"rho must be in [0, 1], got {r}")
    ns = [net.n for net in networks]
    ms = [net.m for net in networks]
    Ks = [net.num_slots for net in networks]
    n_max = max(ns, default=0)
    m_max = max(ms, default=0)
    K_max = max(Ks, default=0)

    deliv = np.zeros((B, n_max, m_max))
    switch = [np.zeros((n, K), dtype=bool) for n, K in zip(ns, Ks)]
    frac = np.ones((B, n_max, K_max))
    sel_pad = np.zeros((B, n_max, K_max), dtype=np.int64)
    act_pad = np.zeros((B, m_max, K_max), dtype=bool)
    for b, net in enumerate(networks):
        sel_pad[b, : ns[b], : Ks[b]] = schedules[b].sel
        act_pad[b, : ms[b], : Ks[b]] = net.active

    with obs.span("sim.execute_batch", batch=B):
        # Switch scan: per (member, charger), vectorized over that
        # charger's non-idle slots.  Idle slots inherit the previous
        # orientation, so the previous *non-idle* target is the reference.
        for b, net in enumerate(networks):
            rho = rhos[b]
            sel = schedules[b].sel
            for i in range(ns[b]):
                ks = np.flatnonzero(sel[i] != IDLE_POLICY)
                if ks.size == 0:
                    continue
                targets = net.policy_orientations[i][sel[i, ks]]
                prev = np.empty_like(targets)
                prev[0] = np.nan
                prev[1:] = targets[:-1]
                switched = np.isnan(prev) | (np.abs(targets - prev) > 1e-12)
                switch[b][i, ks] = switched
                frac[b, i, ks] = np.where(switched, 1.0 - rho, 1.0)

        # Delivered-energy accumulation, stacked across members per
        # charger, ascending slot order (the sequential order).
        for i in range(n_max):
            idx = np.array([b for b in range(B) if i < ns[b]])
            sel_i = sel_pad[idx, i, :]  # (M, K_max)
            hot = np.flatnonzero(sel_i.any(axis=0))
            if hot.size == 0:
                continue
            M = idx.size
            p_count = max(int(networks[b].policy_count(i)) for b in idx)
            cov = np.zeros((M, p_count, m_max), dtype=bool)
            powt = np.zeros((M, m_max))
            for mpos, b in enumerate(idx):
                net = networks[b]
                cm = net.cover_masks[i]
                cov[mpos, : cm.shape[0], : ms[b]] = cm
                powt[mpos, : ms[b]] = net.power[i] * net.slot_seconds
            act_i = act_pad[idx]  # (M, m_max, K_max)
            frac_i = frac[idx, i, :]  # (M, K_max)
            ar = np.arange(M)
            acc = np.zeros((M, m_max))
            for k in hot:
                mask = cov[ar, sel_i[:, k], :] & act_i[:, :, k]
                acc += (powt * frac_i[:, k][:, None]) * mask
            deliv[idx, i, :] = acc

        redo = [b for b in range(B) if rhos[b] != 0.0]
        relaxed_map: dict[int, float] = {}
        if redo:
            zero = execute_schedule_batch(
                [networks[b] for b in redo],
                [schedules[b] for b in redo],
                rhos=[0.0] * len(redo),
                utilities=[utils[b] for b in redo],
            )
            relaxed_map = {
                b: r.total_utility for b, r in zip(redo, zero)
            }

        results = []
        for b, net in enumerate(networks):
            delivered = np.ascontiguousarray(deliv[b, : ns[b], : ms[b]])
            energies = delivered.sum(axis=0)
            task_utilities = np.asarray(utils[b](energies), dtype=float)
            total = float(task_utilities @ net.weights)
            relaxed = relaxed_map.get(b, total)
            results.append(
                ExecutionResult(
                    energies=energies,
                    task_utilities=task_utilities,
                    total_utility=total,
                    relaxed_utility=relaxed,
                    switches=switch[b],
                    delivered=delivered,
                )
            )

    if obs.enabled():
        obs.inc("sim.executions", B)
        obs.inc(
            "sim.charger_slots",
            sum(
                int(np.count_nonzero(s.sel != IDLE_POLICY)) for s in schedules
            ),
        )
        obs.inc(
            "sim.switches", sum(int(np.count_nonzero(s)) for s in switch)
        )

    return results
