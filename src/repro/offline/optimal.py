"""Exact optimal schedules for small instances.

The paper validates its approximation ratios against a brute-force optimum
on small networks (Figs. 8–9).  Enumerating all policy combinations is
exponential, so alongside the literal brute force (used to certify the
solver in tests) this module formulates HASTE-R as a **mixed-integer linear
program** solved by scipy's HiGHS backend:

* binaries ``x_{i,k,p}`` — charger ``i`` selects dominant set ``p`` at slot
  ``k`` (``Σ_p x_{i,k,p} ≤ 1``: the partition matroid);
* continuous ``u_j ∈ [0, 1]`` — task ``j``'s utility, constrained by
  ``u_j ≤ energy_j / E_j``; since we *maximize* ``Σ w_j u_j`` and the
  linear-bounded utility is concave piecewise-linear, these two upper
  envelopes make the LP relaxation of ``u`` exact given the binaries.

``include_switching=True`` additionally models the switching delay with
switch indicators ``z_{i,k}`` (forced to 1 whenever the selected policy
differs from the previous slot's, with the initial orientation Φ counting
as different) and products ``s = x·z`` linearized as ``s ≥ x + z − 1``.
Note one modelling simplification, documented for honesty: the MILP treats
an idle slot as breaking orientation continuity, whereas the execution
engine lets an idle charger keep its last orientation; the MILP optimum
with switching is therefore a (very slightly) conservative lower bound.
The default HASTE-R optimum is an *upper* bound on the HASTE optimum, which
is the conservative direction for verifying approximation-ratio claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.network import ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import LinearBoundedUtility
from ..objective.haste import HasteObjective, HasteSetFunction
from ..submodular.exact import brute_force_partition
from ..submodular.matroid import haste_policy_matroid

__all__ = ["OptimalResult", "optimal_schedule", "brute_force_optimal"]


@dataclass
class OptimalResult:
    """An exact optimum: the schedule and its objective value."""

    schedule: Schedule
    objective_value: float
    include_switching: bool
    status: str

    def summary(self) -> str:
        tag = "HASTE" if self.include_switching else "HASTE-R"
        return f"OptimalResult({tag} OPT = {self.objective_value:.6g}, {self.status})"


def _require_linear_bounded(network: ChargerNetwork) -> None:
    if not isinstance(network.utility, LinearBoundedUtility):
        raise TypeError(
            "the MILP formulation requires the paper's linear-bounded utility; "
            f"got {type(network.utility).__name__}"
        )


def optimal_schedule(
    network: ChargerNetwork,
    *,
    include_switching: bool = False,
    rho: float = 0.0,
    time_limit: float | None = None,
) -> OptimalResult:
    """Solve for the exact optimal schedule with HiGHS.

    With ``include_switching=False`` (default) this is the HASTE-R optimum
    ``Ū*_R ≥ Ū*`` — the reference the approximation-ratio experiments
    divide by.  With ``include_switching=True`` pass the switching delay
    ``rho`` (fraction of a slot).
    """
    # Imported here, not at module level: scipy.optimize takes longer to
    # import than the rest of the package, and only this solver needs it.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    _require_linear_bounded(network)
    if include_switching and not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho}")

    objective = HasteObjective(network)
    items: list[tuple[int, int, int]] = []
    partitions: list[tuple[int, int]] = []
    for i in range(network.n):
        p_count = network.policy_count(i)
        if p_count <= 1:
            continue
        for k in network.relevant_slots(i):
            partitions.append((i, int(k)))
            for p in range(1, p_count):
                items.append((i, int(k), p))
    m = network.m
    nx = len(items)

    # Energy-per-required-energy coefficients a[v, j] for each item v.
    a = np.zeros((nx, m))
    for v, (i, k, p) in enumerate(items):
        a[v] = objective.added_energy(i, k)[p] / network.required_energy

    part_index = {ik: r for r, ik in enumerate(partitions)}
    item_rows = [part_index[(i, k)] for (i, k, _p) in items]

    if not include_switching:
        # Variables: [x (nx binaries), u (m in [0,1])].
        nvar = nx + m
        c = np.zeros(nvar)
        c[nx:] = -network.weights  # maximize Σ w u

        cons = []
        if partitions:
            sel = sparse.csr_matrix(
                (np.ones(nx), (item_rows, np.arange(nx))),
                shape=(len(partitions), nvar),
            )
            cons.append(LinearConstraint(sel, -np.inf, 1.0))
        # u_j − Σ a[v, j] x_v ≤ 0
        env = sparse.hstack(
            [sparse.csr_matrix(-a.T), sparse.eye(m, format="csr")], format="csr"
        )
        cons.append(LinearConstraint(env, -np.inf, 0.0))

        integrality = np.concatenate([np.ones(nx), np.zeros(m)])
        bounds = Bounds(np.zeros(nvar), np.ones(nvar))
    else:
        # Variables: [x (nx), z (#partitions), s (nx), u (m)].
        npart = len(partitions)
        nvar = nx + npart + nx + m
        xs, zs, ss, us = (
            slice(0, nx),
            slice(nx, nx + npart),
            slice(nx + npart, nx + npart + nx),
            slice(nx + npart + nx, nvar),
        )
        c = np.zeros(nvar)
        c[us] = -network.weights

        cons = []
        if partitions:
            sel = sparse.csr_matrix(
                (np.ones(nx), (item_rows, np.arange(nx))), shape=(npart, nvar)
            )
            cons.append(LinearConstraint(sel, -np.inf, 1.0))

        # Switch forcing: x_{i,k,p} − x_{i,k−1,p} − z_{i,k} ≤ 0; if (i,k−1)
        # is not a partition (idle by construction) the previous term drops
        # and any selection forces a switch (initial orientation Φ / idle
        # breaks continuity in this model).
        rows, cols, vals = [], [], []
        row = 0
        item_index = {ikp: v for v, ikp in enumerate(items)}
        for v, (i, k, p) in enumerate(items):
            rows.append(row), cols.append(v), vals.append(1.0)
            prev = item_index.get((i, k - 1, p))
            if prev is not None:
                rows.append(row), cols.append(prev), vals.append(-1.0)
            rows.append(row), cols.append(nx + part_index[(i, k)]), vals.append(-1.0)
            row += 1
        if row:
            sw = sparse.csr_matrix((vals, (rows, cols)), shape=(row, nvar))
            cons.append(LinearConstraint(sw, -np.inf, 0.0))

        # Linearized product: s_v ≥ x_v + z_{part(v)} − 1.
        rows, cols, vals = [], [], []
        for v in range(nx):
            rows += [v, v, v]
            cols += [v, nx + item_rows[v], nx + npart + v]
            vals += [1.0, 1.0, -1.0]
        prod = sparse.csr_matrix((vals, (rows, cols)), shape=(nx, nvar))
        cons.append(LinearConstraint(prod, -np.inf, 1.0))

        # u_j ≤ Σ a x − ρ Σ a s.
        env = sparse.hstack(
            [
                sparse.csr_matrix(-a.T),
                sparse.csr_matrix((m, npart)),
                sparse.csr_matrix(rho * a.T),
                sparse.eye(m, format="csr"),
            ],
            format="csr",
        )
        cons.append(LinearConstraint(env, -np.inf, 0.0))

        integrality = np.concatenate(
            [np.ones(nx), np.ones(npart), np.zeros(nx), np.zeros(m)]
        )
        bounds = Bounds(np.zeros(nvar), np.ones(nvar))

    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        c=c,
        constraints=cons,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    if res.x is None:
        raise RuntimeError(f"MILP solver failed: {res.message}")

    schedule = Schedule(network)
    for v, (i, k, p) in enumerate(items):
        if res.x[v] > 0.5:
            schedule.set(i, k, p)
    value = objective.value_of_schedule(schedule)
    if include_switching:
        # Report the solver's delay-aware objective rather than HASTE-R.
        value = float(-res.fun)
    return OptimalResult(
        schedule=schedule,
        objective_value=value,
        include_switching=include_switching,
        status=res.message,
    )


def brute_force_optimal(
    network: ChargerNetwork, *, max_combinations: int = 2_000_000
) -> OptimalResult:
    """Literal enumeration of all policy combinations (HASTE-R).

    Exponential; certifies :func:`optimal_schedule` on tiny instances.
    """
    objective = HasteObjective(network)
    f = HasteSetFunction(objective)
    matroid = haste_policy_matroid(network)
    best_set, best_val = brute_force_partition(
        f, matroid, max_combinations=max_combinations
    )
    return OptimalResult(
        schedule=objective.items_to_schedule(best_set),
        objective_value=best_val,
        include_switching=False,
        status="brute force",
    )
