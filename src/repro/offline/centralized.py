"""Centralized offline scheduler — paper Algorithm 2.

A vectorized TabularGreedy over the partition matroid of scheduling
policies.  For every color ``c ∈ [C]`` the algorithm sweeps all partitions
``(charger i, slot k)`` and greedily adds the S-C tuple maximizing the
sampled expectation ``F(Q) = E_c[f(sample_c(Q))]``; finally one color per
partition is drawn uniformly and the matching tuples become the schedule.

Approximation (Lemma 5.1 / Thm 5.1): ``1 − (1 − 1/C)^C − O(C⁻¹)`` for
HASTE-R, hence ``(1 − ρ)(1 − 1/e)`` for HASTE as ``C → ∞``; ``C = 1``
degenerates to the exact locally greedy (½ guarantee) with no sampling
noise.

Implementation notes (performance-guide driven):

* the expectation is estimated with **common random numbers** — an
  ``(S, #partitions)`` matrix of pre-drawn colors shared by every candidate
  evaluation (see :mod:`repro.submodular.estimation`);
* the per-partition candidate scan is one numpy expression: the objective
  returns the marginal of *every* policy against the matching sample rows
  at once (:meth:`repro.objective.haste.HasteObjective.partition_gains_rows`,
  which gathers only the ``(rows × receivable columns)`` block);
* with the paper's linear-bounded utility and the compiled kernels loaded
  (``online/_fastpath.c``), a scan is ``fill`` → ``np.matmul`` →
  ``finish`` and a commit one ``fold`` — bit-identical to the numpy
  expression, which stays the reference and the fallback;
* partitions are visited in ``(slot, charger)`` order by default; the
  TabularGreedy guarantee is order-invariant (the paper leans on this for
  Thm 6.1), and the tests verify order invariance for ``C = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..core.policy import Schedule
from ..core.utility import UtilityFunction
from ..objective.haste import HasteObjective
from ..submodular.estimation import ColorSampler

__all__ = ["OfflineResult", "CentralizedScheduler", "schedule_offline"]

#: Marginal gains below this are treated as zero (stay idle).
MIN_GAIN: float = 1e-12


@dataclass
class OfflineResult:
    """Outcome of a centralized offline run.

    ``objective_value`` is the HASTE-R value (no switching delay) of the
    final schedule — the quantity Algorithm 2 optimizes.  The delay-aware
    utility is computed by :func:`repro.sim.engine.execute_schedule`.
    """

    schedule: Schedule
    objective_value: float
    num_colors: int
    num_samples: int
    table: dict = field(repr=False, default_factory=dict)
    partitions: int = 0
    #: Partition visits with at least one matching sample — the sweep's
    #: gain-kernel runs (Thm 5.1's work unit).
    candidate_scans: int = 0

    def summary(self) -> str:
        return (
            f"OfflineResult(f={self.objective_value:.6g}, C={self.num_colors}, "
            f"S={self.num_samples}, partitions={self.partitions}, "
            f"scans={self.candidate_scans})"
        )


class CentralizedScheduler:
    """Reusable Algorithm 2 runner bound to one network.

    Useful when many runs share the network (sweeps over ``C``): the
    objective's precomputation is shared, only the color draws change.
    """

    def __init__(
        self,
        network: ChargerNetwork,
        *,
        utility: UtilityFunction | None = None,
        objective: HasteObjective | None = None,
    ) -> None:
        self.network = network
        # A caller-supplied objective (the prepared-state warm path) must
        # already be bound to this network; ``utility`` is then carried by
        # the objective itself.
        if objective is not None and objective.network is not network:
            raise ValueError("objective is bound to a different network")
        self.objective = (
            objective if objective is not None else HasteObjective(network, utility)
        )
        # Partitions in (slot, charger) order; chargers with only the idle
        # policy or no relevant slots never appear.
        parts: list[tuple[int, int]] = []
        for i in range(network.n):
            if network.policy_count(i) <= 1:
                continue
            for k in network.relevant_slots(i):
                parts.append((i, int(k)))
        parts.sort(key=lambda ik: (ik[1], ik[0]))
        self.partitions = parts

    def run(
        self,
        num_colors: int = 4,
        *,
        num_samples: int = 24,
        rng: np.random.Generator | None = None,
        group_order: Sequence[tuple[int, int]] | None = None,
        final_draws: int = 8,
    ) -> OfflineResult:
        """Execute TabularGreedy and return the sampled schedule.

        ``final_draws`` independent color vectors are drawn at the sampling
        step and the best-scoring one is kept — a standard derandomization
        by sampling (the maximum over draws is at least the expectation the
        guarantee is stated for).  ``final_draws = 1`` is the literal
        Algorithm 2.

        When the observability layer is enabled (:mod:`repro.obs`), the
        run is traced as an ``offline.run`` span with one
        ``offline.color_sweep`` child per color, and the scan counters
        reported in :class:`OfflineResult` are folded into the registry.
        """
        if num_colors < 1:
            raise ValueError(f"num_colors must be >= 1, got {num_colors}")
        with obs.span("offline.run", colors=num_colors):
            result = self._run(
                num_colors,
                num_samples=num_samples,
                rng=rng,
                group_order=group_order,
                final_draws=final_draws,
            )
        obs.inc("offline.runs")
        obs.inc("offline.partitions", result.partitions)
        obs.inc("offline.candidate_scans", result.candidate_scans)
        obs.event(
            "offline.run",
            colors=num_colors,
            samples=result.num_samples,
            value=result.objective_value,
            candidate_scans=result.candidate_scans,
        )
        return result

    def _compiled_kernels(self, num_samples: int) -> tuple:
        """The compiled kernel module and its per-charger sweep bindings.

        Returns ``(module, kernels)`` where ``kernels[i]`` is ``(cols, E,
        w, tens, rg)`` — charger ``i``'s receivable columns, required
        energies, column weights and reusable ``(S, P_i, |T_i|)`` /
        ``(S, P_i)`` scratch buffers — or ``None`` where the NumPy loop
        runs: no compiled kernel, an objective other than
        :class:`HasteObjective` (the test oracles), a utility other than
        the linear-bounded one, or a charger beyond the kernel's fixed
        capacity.
        """
        # Read at run time: the negotiation owns the one kernel handle
        # (importing it at module level would cycle offline → online), and
        # tests switch the kernel off by patching that attribute.
        from ..online import _ckernel, distributed

        ck = distributed._C
        objective = self.objective
        n = self.network.n
        if ck is None or not isinstance(objective, HasteObjective):
            return ck, [None] * n
        kernels: list = []
        for i in range(n):
            E = objective._util_E[i]
            cols = objective._cols[i]
            P, t = self.network.policy_count(i), cols.size
            if E is None or not (
                2 <= P <= _ckernel.FP_MAX_DIM and 0 < t <= _ckernel.FP_MAX_DIM
            ):
                kernels.append(None)
                continue
            tens, rg = np.empty((num_samples, P, t)), np.empty((num_samples, P))
            kernels.append((cols, E, objective._w_cols[i], tens, rg))
        return ck, kernels

    def _run(
        self,
        num_colors: int,
        *,
        num_samples: int,
        rng: np.random.Generator | None,
        group_order: Sequence[tuple[int, int]] | None,
        final_draws: int,
    ) -> OfflineResult:
        """The actual TabularGreedy sweep (see :meth:`run`)."""
        rng = rng if rng is not None else np.random.default_rng()
        order = list(group_order) if group_order is not None else self.partitions
        known_partitions = set(self.partitions)
        extra = [g for g in order if g not in known_partitions]
        if extra:
            raise ValueError(f"group_order contains unknown partitions: {extra!r}")

        sampler = ColorSampler(order, num_colors, num_samples, rng)
        S = sampler.num_samples
        objective = self.objective
        energies = objective.zero_energy((S,))  # (S, m)
        views = energies[None]  # the (receivers, S, m) layout fold takes
        matches = sampler.matches_by_color()
        ck, kernels = self._compiled_kernels(S)

        # Per partition: its charger's kernel bindings and, on the compiled
        # path, its slot-energy block, looked up once for all colors.
        plan = [
            (i, k, kernels[i], None if kernels[i] is None
             else objective.added_energy_cols(i, k))
            for i, k in order
        ]
        table: dict[tuple[int, int, int], int] = {}
        # The same table as a (partition, color) array, idle where empty.
        chosen = np.zeros((len(order), num_colors), dtype=np.int32)
        scans = 0
        for c in range(num_colors):
            with obs.span("offline.color_sweep", color=c):
                for g, rows in enumerate(matches[c]):
                    i, k, kernel, add = plan[g]
                    R = rows.size
                    if R == 0:
                        continue
                    scans += 1
                    if kernel is not None:
                        # fill = gather + clipped-utility difference, finish
                        # = NumPy's sequential axis-0 sum and first-max
                        # argmax; the BLAS-ordered task sum stays in NumPy.
                        cols, E, w, tens, rg = kernel
                        ck.fill(energies, tens[:R], rows, None, cols, add, E)
                        np.matmul(tens[:R], w, out=rg[:R])
                        best_p, best = ck.finish(rg[:R], S)
                    else:
                        gains = objective.partition_gains_rows(
                            energies, rows, i, k
                        )
                        total = gains.sum(axis=0) / S  # (P_i,)
                        best_p = int(total.argmax())
                        best = total[best_p]
                    if best_p == IDLE_POLICY or best <= MIN_GAIN:
                        continue
                    table[(i, k, c)] = chosen[g, c] = best_p
                    if kernel is not None:
                        ck.fold(views, [0], rows, cols, add[best_p])
                    else:
                        objective.apply_rows(energies, rows, i, k, best_p)

        if final_draws < 1:
            raise ValueError(f"final_draws must be >= 1, got {final_draws}")
        best_schedule: Schedule | None = None
        best_value = -np.inf
        part_i, part_k = np.array(order, dtype=np.intp).reshape(-1, 2).T
        part_g = np.arange(len(order))
        with obs.span("offline.final_draws"):
            for _ in range(final_draws if num_colors > 1 else 1):
                candidate = Schedule(self.network)
                # One batched draw per vector — bit-identical to
                # per-partition scalar draws (the generator consumes the
                # same stream).
                draws = rng.integers(0, num_colors, size=len(order))
                candidate.sel[part_i, part_k] = chosen[part_g, draws]
                value = objective.value_of_schedule(candidate)
                if value > best_value:
                    best_schedule, best_value = candidate, value
        assert best_schedule is not None
        schedule = best_schedule

        return OfflineResult(
            schedule=schedule,
            objective_value=best_value,
            num_colors=num_colors,
            num_samples=S,
            table=table,
            partitions=len(order),
            candidate_scans=scans,
        )


def schedule_offline(
    network: ChargerNetwork,
    num_colors: int = 4,
    *,
    num_samples: int = 24,
    rng: np.random.Generator | None = None,
    utility: UtilityFunction | None = None,
    final_draws: int = 8,
) -> OfflineResult:
    """One-shot convenience wrapper around :class:`CentralizedScheduler`."""
    return CentralizedScheduler(network, utility=utility).run(
        num_colors, num_samples=num_samples, rng=rng, final_draws=final_draws
    )
