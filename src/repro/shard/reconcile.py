"""Boundary reconciliation: the staged inter-shard negotiation pass.

Tile solves are independent, so two tiles can both claim a task that sits
within charging range of chargers from each — exactly the chargers the
paper's distributed protocol (Algorithm 3) was built to coordinate.  The
sharded offline solve therefore finishes with a reconciliation pass:

* the **boundary set** is computed exactly from coverage, not distance
  heuristics: a charger is boundary iff one of its receivable tasks is
  also receivable by a charger owned by a *different* tile.  Interior
  chargers by construction share tasks only within their own tile, so
  their tile-local decisions already saw all of their competitors.
* boundary chargers' tile assignments are discarded and re-negotiated
  with :func:`~repro.online.distributed.negotiate_window`, with all
  already-settled harvest (interior chargers, then earlier reconciliation
  stages) banked as ``initial_energies`` — the same banked-past mechanism
  the online runtime uses.
* at paper density the boundary is one connected blob (tile widths are
  comparable to the coverage diameter), so negotiating it as a single net
  is a serial bottleneck that swamps the tile parallelism.  Instead the
  boundary is split into **interface groups** — chargers keyed by the set
  of tiles contesting their tasks (an edge band, a corner cluster) — and
  the groups are **stage-colored** on their *actual* shared-task conflict
  graph: two groups land in the same stage only if they share no
  receivable task at all.  Groups within a stage are therefore provably
  independent negotiations and run through the same process pool as the
  tile solves; stages run in sequence, each seeing the previous stages'
  energies as banked competition.  The critical path of the pass is
  ``Σ_stages max(group time)``, not the sum of all group times.
* each group runs the lossless protocol, so its message accounting is
  the Fig. 16 count of deliveries through the protocol's table of
  standing advertisements; only the online runtime's fault-tolerant
  protocol sends through a :class:`~repro.faults.bus.LossyMessageBus`.
* each group finishes like the other HASTE solvers, with the best of
  ``final_draws`` colour draws
  (:func:`~repro.offline.centralized.best_of_draws`), scored with the
  banked energy added.

Every group net contains its chargers' complete receivable sets, so —
like the tile nets — its policy indices are the global ones and its
selections merge directly into the global schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.policy import Schedule
from ..objective.haste import HasteObjective
from ..offline.centralized import best_of_draws
from ..online.distributed import negotiate_window
from ..sim.parallel import parallel_starmap
from .execute import ChargerPlan, charger_plans_from_network
from .subproblem import slice_instance, utility_from_arrays

__all__ = [
    "ReconcileResult",
    "find_boundary_chargers",
    "boundary_stages",
    "reconcile_boundary",
]


@dataclass
class ReconcileResult:
    """Outcome of the boundary negotiation (empty when nothing to do)."""

    boundary: np.ndarray  # global charger ids, sorted
    task_ids: np.ndarray  # global task ids touched by reconciliation
    plans: list[ChargerPlan]
    message_stats: dict | None
    #: group sizes (chargers) in deterministic group order
    group_sizes: list[int] = field(default_factory=list)
    #: group indices per stage, in negotiation order
    stages: list[list[int]] = field(default_factory=list)
    #: wall seconds per group (net build + negotiate + draws), group order
    group_s: list[float] = field(default_factory=list)
    #: Σ over stages of the slowest group — the pass's parallel critical path
    path_s: float = 0.0
    #: Σ over all groups — the single-worker (measured) negotiation time
    serial_s: float = 0.0


def find_boundary_chargers(
    plans: list[ChargerPlan], owner: np.ndarray, num_tasks: int
) -> np.ndarray:
    """Chargers whose receivable tasks cross tile-ownership lines.

    ``plans`` must cover every charger exactly once (one per owner tile);
    ``plan.cols`` are global task ids.  A task claimed by chargers of two
    or more distinct owner tiles marks all its claimants as boundary.
    """
    first_tile = np.full(num_tasks, -1, dtype=np.int64)
    contested = np.zeros(num_tasks, dtype=bool)
    for plan in plans:
        cols = plan.cols
        if cols.size == 0:
            continue
        tile = int(owner[plan.charger])
        seen_by = first_tile[cols]
        unseen = seen_by == -1
        first_tile[cols[unseen]] = tile
        contested[cols[(~unseen) & (seen_by != tile)]] = True
    boundary = [
        plan.charger
        for plan in plans
        if plan.cols.size and contested[plan.cols].any()
    ]
    return np.asarray(sorted(boundary), dtype=np.int64)


def boundary_stages(
    plans_by_charger: dict[int, ChargerPlan],
    boundary: np.ndarray,
    owner: np.ndarray,
) -> tuple[list[np.ndarray], list[list[int]]]:
    """Split the boundary into interface groups and conflict-free stages.

    Groups key each boundary charger by the sorted tuple of tiles that
    contest its tasks (every claimant of a contested task is itself
    boundary, so the key is computable from boundary plans alone).  Two
    groups *conflict* iff any receivable task — contested or not — is
    claimed by chargers of both; the greedy coloring of that graph yields
    stages whose groups are mutually task-disjoint, hence independent
    negotiations.

    Returns ``(groups, stages)``: per-group sorted global charger ids, and
    per-stage group indices.  Group order is deterministic (sorted by
    interface key), so seeding per group is pool-schedule independent.
    """
    bset = [int(i) for i in boundary]
    # tiles claiming each task among boundary chargers
    claim_tiles: dict[int, set[int]] = {}
    for i in bset:
        tile = int(owner[i])
        for j in plans_by_charger[i].cols.tolist():
            claim_tiles.setdefault(j, set()).add(tile)
    # interface key: the tile-set of this charger's contested tasks
    key_of: dict[int, tuple[int, ...]] = {}
    for i in bset:
        tiles: set[int] = set()
        for j in plans_by_charger[i].cols.tolist():
            claimants = claim_tiles[j]
            if len(claimants) > 1:
                tiles |= claimants
        key_of[i] = tuple(sorted(tiles))
    keys = sorted(set(key_of.values()))
    group_index = {key: g for g, key in enumerate(keys)}
    groups: list[list[int]] = [[] for _ in keys]
    for i in bset:
        groups[group_index[key_of[i]]].append(i)
    group_arrays = [np.asarray(sorted(g), dtype=np.int64) for g in groups]

    # group conflict graph over *all* shared receivable tasks
    adjacency: list[set[int]] = [set() for _ in keys]
    task_groups: dict[int, set[int]] = {}
    for g, members in enumerate(group_arrays):
        for i in members.tolist():
            for j in plans_by_charger[int(i)].cols.tolist():
                task_groups.setdefault(j, set()).add(g)
    for gs in task_groups.values():
        if len(gs) > 1:
            for a in gs:
                adjacency[a] |= gs - {a}

    # greedy coloring, largest group first, to balance stage heights
    order = sorted(
        range(len(keys)), key=lambda g: (-group_arrays[g].size, g)
    )
    color_of = {}
    for g in order:
        taken = {color_of[h] for h in adjacency[g] if h in color_of}
        color = 0
        while color in taken:
            color += 1
        color_of[g] = color
    num_stages = max(color_of.values(), default=-1) + 1
    stages = [
        [g for g in range(len(keys)) if color_of[g] == s]
        for s in range(num_stages)
    ]
    return group_arrays, stages


def _reconcile_group_worker(
    sub,
    charger_ids: np.ndarray,
    task_ids: np.ndarray,
    banked: np.ndarray,
    seed_seq,
    wopts: dict,
    num_slots: int,
) -> dict:
    """Negotiate one interface group (module-level: crosses processes)."""
    start = time.perf_counter()
    net = sub.network()
    util = (
        None
        if wopts["utility"] is None
        else utility_from_arrays(net.required_energy, wopts["utility"], wopts["gamma"])
    )
    objective = HasteObjective(net, util)
    slots = [int(k) for k in np.flatnonzero(net.active.any(axis=0))]
    rng = np.random.default_rng(seed_seq)
    num_colors = wopts["colors"]

    result = negotiate_window(
        net,
        objective,
        slots,
        num_colors,
        rng=rng,
        num_samples=wopts["samples"],
        initial_energies=banked,
    )

    chargers, part_slots, policies = result.partition_policies()
    best_sched, _ = best_of_draws(
        objective, Schedule(net), chargers, part_slots, policies,
        wopts["final_draws"], rng, banked,
    )

    return {
        "plans": charger_plans_from_network(
            net, charger_ids, task_ids, best_sched.sel, num_slots
        ),
        "energies": objective.energies_of_schedule(best_sched),
        "stats": result.stats.as_dict(),
        "group_s": time.perf_counter() - start,
    }


def reconcile_boundary(
    instance,
    plans_by_charger: dict[int, ChargerPlan],
    boundary: np.ndarray,
    owner: np.ndarray,
    interior_relaxed_energies: np.ndarray,
    rng: np.random.Generator,
    *,
    num_colors: int,
    num_samples: int,
    final_draws: int,
    utility_family: str | None,
    gamma: float,
    num_slots: int,
    processes: int | None = None,
) -> ReconcileResult:
    """Re-negotiate every boundary charger's schedule, in parallel stages."""
    if boundary.size == 0:
        return ReconcileResult(
            boundary=boundary,
            task_ids=np.zeros(0, dtype=np.int64),
            plans=[],
            message_stats=None,
        )
    all_task_ids = np.unique(
        np.concatenate([plans_by_charger[int(i)].cols for i in boundary])
    ).astype(np.int64)
    if all_task_ids.size == 0:
        # Boundary chargers with no receivable tasks cannot exist (the
        # boundary predicate requires a contested task), but stay safe.
        return ReconcileResult(
            boundary=boundary,
            task_ids=all_task_ids,
            plans=[plans_by_charger[int(i)] for i in boundary],
            message_stats=None,
        )

    groups, stages = boundary_stages(plans_by_charger, boundary, owner)
    root = int(rng.integers(0, 2**63 - 1))
    seeds = np.random.SeedSequence(root).spawn(len(groups))
    wopts = {
        "colors": num_colors,
        "samples": num_samples,
        "final_draws": final_draws,
        "utility": utility_family,
        "gamma": gamma,
    }

    banked = interior_relaxed_energies.astype(float, copy=True)
    plans: list[ChargerPlan] = []
    stats_totals: dict = {}
    group_s = [0.0] * len(groups)
    path_s = 0.0
    for stage in stages:
        jobs = []
        stage_tasks = []
        for g in stage:
            chargers = groups[g]
            task_ids = np.unique(
                np.concatenate(
                    [plans_by_charger[int(i)].cols for i in chargers]
                )
            ).astype(np.int64)
            stage_tasks.append(task_ids)
            jobs.append(
                (
                    slice_instance(instance, chargers, task_ids),
                    chargers,
                    task_ids,
                    banked[task_ids],
                    seeds[g],
                    wopts,
                    num_slots,
                )
            )
        results = parallel_starmap(
            _reconcile_group_worker, jobs, processes=processes
        )
        stage_max = 0.0
        for g, task_ids, res in zip(stage, stage_tasks, results):
            plans.extend(res["plans"])
            # stage groups are task-disjoint, so banking order is immaterial
            banked[task_ids] += res["energies"]
            for key, value in res["stats"].items():
                stats_totals[key] = stats_totals.get(key, 0) + value
            group_s[g] = float(res["group_s"])
            stage_max = max(stage_max, group_s[g])
        path_s += stage_max

    return ReconcileResult(
        boundary=boundary,
        task_ids=all_task_ids,
        plans=plans,
        message_stats=stats_totals or None,
        group_sizes=[int(g.size) for g in groups],
        stages=stages,
        group_s=group_s,
        path_s=path_s,
        serial_s=float(sum(group_s)),
    )
