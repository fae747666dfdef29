"""The online runtime: task arrivals, rescheduling delay, execution.

Drives the paper's online scenario (§6): tasks arrive stochastically at
their release slots; each arrival triggers the distributed negotiation of
Algorithm 3, whose new policies take effect only after the rescheduling
delay ``τ`` (slots) — the first ``τ`` slots of every task window are
effectively "cut off", which is exactly where the extra factor ½ of the
competitive ratio comes from (Thm 6.1).

Knowledge model: the planner at event time ``t`` sees only tasks with
``release_slot ≤ t`` (a *masked* objective).  Policy decisions for slots
before ``t + τ`` are frozen at whatever earlier negotiations chose.  The
physics, however, is indifferent to knowledge — a device inside a charger's
sector harvests energy whether or not the schedule "meant" it — so final
accounting runs the committed schedule through the ground-truth engine on
the full task set.

The comparison baselines (GreedyUtility / GreedyCover, §7.2) run here too,
with the same τ-delayed knowledge of arrivals, so the online sweeps
(Figs. 11–15) compare like with like: :func:`run_online_baseline` plans
the offline drivers of :mod:`repro.offline.batched` on the delayed
activity and executes on the true network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.network import ChargerNetwork
from ..core.policy import Schedule
from ..faults.bus import FaultStats
from ..faults.model import FaultModel
from ..objective.haste import HasteObjective
from ..offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from ..offline.centralized import best_of_draws
from ..offline.smoothing import smooth_switches
from ..sim.engine import ExecutionResult, execute_schedule
from .distributed import negotiate_window
from .messaging import MessageStats

__all__ = ["OnlineRunResult", "run_online_haste", "run_online_baseline"]


@dataclass
class OnlineRunResult:
    """One full online run: the executed schedule plus its accounting."""

    schedule: Schedule
    execution: ExecutionResult
    stats: MessageStats
    events: int
    #: Fault-layer totals when the run negotiated under an active
    #: :class:`~repro.faults.model.FaultModel` (``None`` otherwise), and
    #: the injector's recorded trace for replay/forensics.
    fault_stats: FaultStats | None = None
    fault_trace: object | None = None

    @property
    def total_utility(self) -> float:
        """Overall charging utility (switching delay applied)."""
        return self.execution.total_utility

    def summary(self) -> str:
        return (
            f"OnlineRunResult(utility={self.total_utility:.6g}, "
            f"events={self.events}, {self.stats.summary()})"
        )


def run_online_haste(
    network: ChargerNetwork,
    *,
    num_colors: int = 4,
    num_samples: int = 24,
    tau: int = 1,
    rho: float = 1.0 / 12.0,
    rng: np.random.Generator | None = None,
    final_draws: int = 4,
    fault_model: FaultModel | None = None,
    base_objective: HasteObjective | None = None,
) -> OnlineRunResult:
    """HASTE-DO: the distributed online algorithm end to end.

    ``fault_model`` activates the fault-injected negotiation
    (:mod:`repro.faults`): one seeded injector serves every replanning
    window, so the fault stream, the crash clock, and the counters are
    continuous across arrival events and the whole run replays bit for
    bit from the model alone.  A ``None`` or null model is byte-identical
    to the lossless run — the negotiation ``rng`` stream never sees the
    fault layer.

    Every distinct release slot is an arrival event: the fleet renegotiates
    all policies for slots ``≥ event + τ`` against the energy already
    banked by the frozen past, via :func:`negotiate_window`.

    ``final_draws`` samples several color vectors at each event and keeps
    the best under the *known-task* objective (``1`` = the literal
    Algorithm 3 draw; values > 1 are the same derandomization-by-sampling
    used by the centralized scheduler, realizable with shared
    pseudorandomness plus one aggregation round).

    Per-arrival replanning is incremental: one base objective is built for
    the whole run and each event derives a knowledge-masked view from it
    (:meth:`~repro.objective.haste.HasteObjective.masked_view`), sharing
    the per-policy energy kernels instead of reallocating them.

    When :mod:`repro.obs` is enabled the run is traced as an
    ``online.run`` span with one ``online.arrival`` child per event —
    the per-arrival negotiation latency histogram the paper's §5/§6
    complexity discussion is about — and the run's final
    :class:`~repro.online.messaging.MessageStats` are emitted as an
    ``online.run`` telemetry event (bit-identical to the counters the
    per-window folds accumulate).
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if final_draws < 1:
        raise ValueError(f"final_draws must be >= 1, got {final_draws}")
    rng = rng if rng is not None else np.random.default_rng()
    injector = None
    if fault_model is not None and not fault_model.is_null():
        injector = fault_model.injector(network.n)

    K = network.num_slots
    committed = Schedule(network)
    stats = MessageStats()
    events = 0
    # ``base_objective`` is the prepared-state warm path: a caller (the
    # serve engine, the registry body) hands in the objective it already
    # holds for this network so repeated runs skip the kernel rebuild.
    # The objective's cross-run state is idempotent value caches only, so
    # a warm run is bit-identical to a cold one.
    if base_objective is not None:
        if base_objective.network is not network:
            raise ValueError("base_objective is bound to a different network")
    else:
        base_objective = HasteObjective(network)

    arrival_slots = sorted({t.release_slot for t in network.tasks})
    with obs.span("online.run", colors=num_colors, tau=tau):
        for t in arrival_slots:
            boundary = t + tau
            if boundary >= K:
                continue  # nothing left to replan for this arrival
            known = network.release_slots <= t
            objective = base_objective.masked_view(known)

            window = [k for k in range(boundary, K)]
            # Restrict to slots where anything known is active for any
            # charger.
            active_any = objective.active[:, boundary:K].any(axis=0)
            window = [k for k, keep in zip(window, active_any) if keep]
            if not window:
                continue

            events += 1
            if obs.enabled():
                # Queue-depth telemetry for sustained-traffic runs: how
                # many known tasks are still in flight past this replan
                # boundary, and how many arrivals this event is absorbing.
                inflight = int(np.sum(known & (network.end_slots > boundary)))
                backlog = int(np.sum(network.release_slots == t))
                obs.set_gauge("online.inflight_tasks", inflight)
                obs.set_gauge("online.arrival_backlog", backlog)
                obs.observe("online.inflight_tasks", inflight)
                obs.observe("online.arrival_backlog", backlog)
            with obs.span(
                "online.arrival", slot=int(t), window_slots=len(window)
            ):
                banked = objective.energies_of_schedule(
                    committed, stop=boundary
                )
                result = negotiate_window(
                    network,
                    objective,
                    window,
                    num_colors,
                    rng=rng,
                    num_samples=num_samples,
                    initial_energies=banked,
                    fault_injector=injector,
                )
                stats.merge(result.stats)

                # Sample final colors; keep the best of ``final_draws``
                # vectors under the known-task objective.
                chargers, part_slots, policies = result.partition_policies()
                with obs.span("online.draw_and_smooth"):
                    base = committed.copy()
                    base.clear_from(boundary)
                    best_sched, _ = best_of_draws(
                        objective, base, chargers, part_slots, policies,
                        final_draws, rng,
                    )
                    # Delay-aware switch smoothing of the freshly planned
                    # future, seeing only the already-released tasks (no
                    # clairvoyance).
                    committed = smooth_switches(
                        network,
                        best_sched,
                        rho=rho,
                        task_mask=known,
                        start_slot=boundary,
                    )

        execution = execute_schedule(network, committed, rho=rho)
    if obs.enabled():
        obs.inc("online.runs")
        obs.inc("online.events", events)
        fields = dict(stats.as_dict())
        if injector is not None:
            fields.update(
                {f"faults_{k}": v for k, v in injector.stats.as_dict().items()}
            )
        obs.event(
            "online.run",
            events=events,
            utility=execution.total_utility,
            **fields,
        )
    return OnlineRunResult(
        schedule=committed,
        execution=execution,
        stats=stats,
        events=events,
        fault_stats=injector.stats if injector is not None else None,
        fault_trace=injector.trace if injector is not None else None,
    )


def run_online_baseline(
    network: ChargerNetwork,
    kind: str = "utility",
    *,
    tau: int = 1,
    rho: float = 1.0 / 12.0,
) -> OnlineRunResult:
    """GreedyUtility / GreedyCover with τ-delayed knowledge of arrivals.

    At slot ``k`` a charger only reacts to tasks released at or before
    ``k − τ`` (it needs τ slots to learn about and re-plan for an arrival,
    like HASTE-DO); it then greedily picks its orientation exactly as the
    offline baseline would.  So the plan is the offline driver's on the
    delayed activity ``active & (release_slot + τ ≤ k)``, and at ``τ = 0``
    it is the offline schedule.  ``kind`` is ``"utility"`` or ``"cover"``.
    """
    if kind not in ("utility", "cover"):
        raise ValueError(f"kind must be 'utility' or 'cover', got {kind!r}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")

    slots = np.arange(network.num_slots)
    delayed = network.active & (network.release_slots[:, None] + tau <= slots)
    if kind == "utility":
        (sched,) = greedy_utility_schedule_batch([network], actives=[delayed])
    else:
        (sched,) = greedy_cover_schedule_batch([network], actives=[delayed])
    execution = execute_schedule(network, sched, rho=rho)
    return OnlineRunResult(
        schedule=sched, execution=execution, stats=MessageStats(), events=0
    )
