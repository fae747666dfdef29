"""Distributed negotiation — paper Algorithm 3's core protocol.

Every charger runs the same local loop: for each future slot ``k`` (outer)
and color ``c`` (inner) it computes the best marginal gain ``ΔF*_i`` of its
own policies against its *local* view of task energies, broadcasts it to
its neighbors, and commits its policy when its advertised gain beats every
undecided neighbor's (ties break to the lower charger ID, as in the paper).
Committed policies are announced with an ``UPD`` message; receiving agents
fold the announced energy into their local views and recompute.

Why the local view is exact (paper §6.2, first part of the proof): the
marginal gain of charger ``i`` only involves tasks ``i`` can cover, and any
other charger able to touch those tasks is by definition a neighbor of
``i`` — so tracking self + neighbor commitments reproduces the global
marginal exactly, and the asynchronous commits linearize into the same
greedy order the centralized Algorithm 2 uses (the DAG/topological-sort
argument).  The tests pin distributed C=1 output against centralized C=1.

One interpretation note: Algorithm 3's pseudocode describes ``e_i^{k*}`` as
"a set of K_i scheduling policies"; we implement the per-(slot, color)
negotiation of single-slot policies, which matches the outer ``k`` / inner
``c`` loop structure, the per-slot partition matroid, and the equivalence
argument to Algorithm 2 (whose guarantee is order-invariant).

The Monte Carlo color draws (``C > 1``) are *public pseudorandomness*: all
agents derive the same ``(S, partitions)`` color table from a shared seed,
which needs no communication — only the seed — so locality is preserved.

Simulation note: in the lossless protocol radio delivery is accounted, not
materialized.  Within a round, every receiver of an advertisement would
read the sender's latest ``(ΔF*, e*)`` — in the synchronous model because
all views are current, in the asynchronous model because a sleeping
sender's *last* advertisement stays standing with every neighbor.  A
single shared table of standing advertisements therefore reproduces each
agent's inbox-derived knowledge exactly (agents only ever consult entries
of their own neighbors), while the
:class:`~repro.online.messaging.MessageStats` accounting — one
transmission plus ``|N(s_i)|`` deliveries per broadcast, the Fig. 16
quantities — counts the deliveries that table stands for.  Only the
fault-tolerant protocol sends messages, through a
:class:`~repro.faults.bus.LossyMessageBus`.  Energy views are per-agent
but stacked in one array, so a commit's fold into every receiver's view is
a single batched scatter-add — see :class:`ChargerAgent`.

A window is built once (:class:`_Window`) and run by one of three bodies:
the compiled slot kernel, the lossless Python loop (the kernel's
reference) or the fault-tolerant loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.network import IDLE_POLICY, ChargerNetwork
from ..faults.bus import FaultStats, LossyMessageBus
from ..objective.haste import MIN_GAIN, HasteObjective
from ..submodular.estimation import ColorSampler
from . import _ckernel
from .messaging import CMD_ACK, CMD_NULL, CMD_UPDATE, Message, MessageStats
from .ordering import CommitEvent

__all__ = [
    "ChargerAgent",
    "MatroidViolationError",
    "NegotiationResult",
    "negotiate_window",
]


class MatroidViolationError(RuntimeError):
    """The hard safety invariant tripped: a per-slot partition was about
    to receive a second policy.  Structurally unreachable — each agent
    owns its ``(charger, slot)`` partition and leaves the race after
    committing, no matter how divergent the views get — and the chaos
    suite asserts it never fires under any injected fault trace."""


#: Compiled negotiation kernels (``_fastpath.c``), or ``None`` when no C
#: compiler is available / ``REPRO_DISABLE_CKERNEL`` is set.  The pure
#: NumPy code below remains the reference implementation; the tests pin
#: protocol-level equivalence between the two.
_C = _ckernel.load()


class ChargerAgent:
    """One charger's local negotiation state.

    ``energies`` is the agent's ``(S, m)`` view of per-task harvested
    energy under each Monte Carlo color sample, fed by its own commitments
    and the ``UPD`` messages of neighbors.  :func:`negotiate_window` hands
    each agent a row of one stacked ``(n, S, m)`` array so commit folds
    can be batched across receivers; the views themselves remain strictly
    per-agent.  Entries for tasks outside the agent's coverage may be
    stale — they are never read (see module docstring).
    """

    def __init__(
        self,
        index: int,
        objective: HasteObjective,
        num_samples: int,
        energies: np.ndarray,
    ) -> None:
        if energies.shape != (num_samples, objective.network.m):
            raise ValueError("energies has the wrong shape")
        self.index = index
        self.objective = objective
        self.num_samples = num_samples
        self.energies = energies
        self._slot = -1
        #: cached own proposal for the active negotiation; valid until a
        #: commit changes this agent's energy view.
        self._proposal: tuple[float, int] | None = None
        #: sample-row bitmask of the active negotiation's matching rows.
        self._match_bits: int = 0
        #: the matching rows, as an index array and as plain ints.
        self._rows: np.ndarray | None = None
        self._row_list: list[int] = []
        #: per-matching-row gain vectors ``(R, P_i)`` for the active
        #: negotiation; rows are recomputed selectively (the kernel is
        #: row-independent, so a partial refresh is bitwise identical).
        self._row_gains: np.ndarray | None = None
        self._dirty_pos: set[int] = set()
        self._add: np.ndarray | None = None
        # Receivable-task bitmask — lets note_commit test column overlap
        # with one integer AND.
        bits = 0
        for t in objective._cols[index]:
            bits |= 1 << int(t)
        self._col_bits = bits
        util_E = objective._util_E[index]
        cols = objective._cols[index]
        num_policies = objective.network.policy_count(index)
        self._ck = None
        if (
            _C is not None
            and util_E is not None
            and cols.dtype == np.intp
            and 2 <= num_policies <= _ckernel.FP_MAX_DIM
            and 0 < cols.size <= _ckernel.FP_MAX_DIM
        ):
            # Compiled kernels for the linear-bounded utility: the
            # gather/element-wise stage and the sum/argmax stage become one
            # C call each; only the BLAS-ordered weighted sum stays in
            # NumPy, keeping the result bit-identical to the NumPy branch.
            # Buffers are allocated once at the window's full sample count
            # and sliced per negotiation.
            self._ck = _C
            self._cols_i = np.ascontiguousarray(cols)
            self._E_i = np.ascontiguousarray(util_E)
            self._w_i = np.ascontiguousarray(objective._w_cols[index])
            self._tens_full = np.empty((num_samples, num_policies, cols.size))
            self._rg_full = np.empty((num_samples, num_policies))

    def reset_negotiation(
        self,
        slot: int,
        match_bits: int,
        match_rows: np.ndarray,
        row_list: list[int],
        add: np.ndarray,
    ) -> None:
        """Start a fresh ``(slot, color)`` negotiation over ``match_rows``
        (also given as plain ints and as a bitmask), with ``add`` the
        agent's ``(P_i, |T_i|)`` slot-energy block."""
        self._slot = slot
        self._proposal = None
        self._match_bits = match_bits
        self._rows = match_rows
        self._row_list = row_list
        self._row_gains = None
        self._dirty_pos.clear()
        self._add = add

    def best_candidate(self) -> tuple[float, int]:
        """Best ``(ΔF, policy)`` for this agent's partition at the slot.

        The matching rows are the color-sample indices whose draw for the
        partition equals the color under negotiation; the expectation is
        normalized by the full sample count.  The result is cached between
        negotiation rounds: an agent's marginal only changes when a commit
        touches its view (:meth:`note_commit` invalidates), so
        re-advertising an untouched proposal skips the kernel entirely —
        the dominant per-arrival saving of the incremental runtime.
        """
        if self._proposal is not None:
            return self._proposal
        if not self._row_list:
            self._proposal = (0.0, IDLE_POLICY)
            return self._proposal
        rg = self._row_gains
        dirty = None if rg is None else sorted(self._dirty_pos)
        self._dirty_pos.clear()
        if self._ck is not None:
            # C refreshes the dirty rows of the difference tensor and later
            # takes the column-sum/argmax; the weighted sum over tasks keeps
            # NumPy's own matmul (its BLAS summation order is part of the
            # reference semantics — see _fastpath.c).
            n_rows = len(self._row_list)
            if rg is None:
                rg = self._row_gains = self._rg_full[:n_rows]
            tens = self._tens_full[:n_rows]
            self._ck.fill(
                self.energies, tens, self._rows, dirty,
                self._cols_i, self._add, self._E_i,
            )
            np.matmul(tens, self._w_i, out=rg)
            best_p, best_v = self._ck.finish(rg, self.num_samples)
        else:
            gains_rows = self.objective.partition_gains_rows
            if rg is None:
                rg = self._row_gains = gains_rows(
                    self.energies, self._rows, self.index, self._slot
                )
            else:
                # Only the rows commits touched since the last compute.
                rg[dirty] = gains_rows(
                    self.energies, self._rows[dirty], self.index, self._slot
                )
            total = rg.sum(axis=0) / self.num_samples
            best_p = int(total.argmax())
            best_v = float(total[best_p])
        if best_p == IDLE_POLICY or best_v <= MIN_GAIN:
            self._proposal = (0.0, IDLE_POLICY)
        else:
            self._proposal = (best_v, best_p)
        return self._proposal

    def note_commit(self, sender_bits: int, changed_bits: int) -> None:
        """Maintain the caches after a neighbor's commit touched the view.

        The energy fold itself happens once, in :meth:`_Window.fold` (see
        the class docstring); this method only decides whether the cached
        proposal survives.  It depends on the ``(matching rows ×
        receivable tasks)`` block alone, so a commit whose touched block
        is provably disjoint — the sender's matching rows miss ours, or
        its changed tasks miss our receivable set — leaves the proposal
        bit-identical and costs two integer ANDs.
        """
        if self._proposal is None and self._row_gains is None:
            return  # nothing cached to maintain
        if not (sender_bits & self._match_bits):
            return
        if not (changed_bits & self._col_bits):
            return
        self._proposal = None
        # Only rows the commit actually wrote need a fresh gain vector.
        dirty = self._dirty_pos
        for p, r in enumerate(self._row_list):
            if (sender_bits >> r) & 1:
                dirty.add(p)


def _row_bitmasks(sampler: ColorSampler) -> list[list[int]]:
    """``out[c][g]``: the sample rows whose draw for group ``g`` is color
    ``c``, as an int bitmask (bit ``r`` = row ``r``).

    One OR-reduction over the draw matrix per color and 64-row block.
    """
    colors = sampler.colors
    out = []
    for c in range(sampler.num_colors):
        bits: list[int] = []
        for lo in range(0, colors.shape[0], 64):
            hit = colors[lo : lo + 64] == c
            weights = np.left_shift(
                np.uint64(1), np.arange(hit.shape[0], dtype=np.uint64)
            )
            words = np.bitwise_or.reduce(
                np.where(hit, weights[:, None], np.uint64(0)), axis=0
            ).tolist()
            bits = [b | (w << lo) for b, w in zip(bits, words)] if lo else words
        out.append(bits)
    return out


def _window_partitions(
    network: ChargerNetwork, objective: HasteObjective, slots: list[int]
) -> tuple[list[int], list[tuple[int, int]], list[tuple[list[int], list[int]]]]:
    """The partitions a window negotiates, from one relevance array.

    A charger negotiates slot ``k`` when one of its receivable tasks is
    active at ``k`` under the objective's (masked) activity; such a
    charger always has a policy besides idle, one aimed at that task.
    Charger ``i``'s receivable tasks are its columns, so row ``i`` of
    ``receivable @ active[:, slots]`` is
    ``_active_sub[i][:, slots].any(axis=0)``: one array for every charger
    and window slot.  Returns the participants (chargers relevant at some
    window slot, ascending), the colour-draw group keys ``(charger,
    slot)`` in slot-major order, and per window slot its active chargers
    in ascending order with their group indices.  The keys are
    slot-major, so each slot's groups are consecutive.
    """
    relevant = network.receivable @ objective.active[:, slots]
    slot_pos, chargers = np.nonzero(relevant.T)
    chargers = chargers.tolist()
    part_keys = list(zip(chargers, np.asarray(slots)[slot_pos].tolist()))
    bounds = np.cumsum(relevant.sum(axis=0)).tolist()
    by_slot = [
        (chargers[a:b], list(range(a, b))) for a, b in zip([0, *bounds], bounds)
    ]
    participants = np.flatnonzero(relevant.any(axis=1)).tolist()
    return participants, part_keys, by_slot


def _slot_window(
    network: ChargerNetwork,
    objective: HasteObjective,
    slots: list[int],
    participants: list[int],
    sampler: ColorSampler,
    views: np.ndarray,
) -> tuple | None:
    """The compiled slot kernel's bindings for one window, or ``None``.

    ``None`` — the NumPy loop runs — when the kernel is not loaded or some
    participant is off the compiled path: a utility other than the
    linear-bounded one, or more policies or receivable tasks than the
    kernel's fixed capacity (``FP_MAX_DIM``).  Each participant binds its
    receivable columns, required energies, column weights, reusable
    ``(S, P_i, |T_i|)`` / ``(S, P_i)`` scratch buffers and its slot-energy
    blocks for the whole window, ``(|slots|, P_i, |T_i|)``: one multiply of
    its policy energies by the masked activity, the same float × bool
    product per element as :meth:`HasteObjective.added_energy_cols`, so
    each block is that method's bytes.  The window adds the views, the
    color draws, its slots, the neighbor sets as CSR arrays and every
    charger's receivable-column mask.  The tuple layout is
    ``negotiate_slot``'s, documented in ``_fastpath.c``.
    """
    if _C is None:
        return None
    S = sampler.num_samples
    slots = np.asarray(slots, dtype=np.intp)
    agents: list[tuple | None] = [None] * network.n
    colmask = np.zeros((network.n, network.m), dtype=np.uint8)
    for i in participants:
        E = objective._util_E[i]
        cols = objective._cols[i]
        P, t = network.policy_count(i), cols.size
        if (
            E is None
            or cols.dtype != np.intp
            or not 2 <= P <= _ckernel.FP_MAX_DIM
            or not 0 < t <= _ckernel.FP_MAX_DIM
        ):
            return None
        blocks = np.empty((slots.size, P, t))
        np.multiply(
            objective._sparse_energy[i],
            objective._active_sub[i][:, slots].T[:, None, :],
            out=blocks,
        )
        agents[i] = (
            np.ascontiguousarray(cols),
            np.ascontiguousarray(E),
            np.ascontiguousarray(objective._w_cols[i]),
            np.empty((S, P, t)),
            np.empty((S, P)),
            blocks,
        )
        colmask[i, cols] = 1
    nbrs = [sorted(nb) for nb in network.neighbors]
    nbr_ptr = np.zeros(network.n + 1, dtype=np.intp)
    nbr_ptr[1:] = np.cumsum([len(nb) for nb in nbrs])
    nbr_idx = np.array([j for nb in nbrs for j in nb], dtype=np.intp)
    colors = np.ascontiguousarray(sampler.colors, dtype=np.int64)
    return (
        views, colors, sampler.num_colors, slots, agents, nbr_ptr, nbr_idx,
        colmask,
    )


@dataclass
class NegotiationResult:
    """Outcome of negotiating one window of slots.

    ``table`` maps ``(charger, slot, color) → policy`` in commit order;
    ``stats`` is the communication accounting for Fig. 16;
    ``commit_rounds`` holds each commit's synchronous round, in the same
    order, and :attr:`commit_trace` joins the two for the Thm 6.1
    linearization (:mod:`repro.online.ordering`).
    """

    table: dict[tuple[int, int, int], int]
    stats: MessageStats
    sampler: ColorSampler = field(repr=False, default=None)
    commit_rounds: list[int] = field(repr=False, default_factory=list)
    #: Advertisement-phase accounting: how many proposals ran the gain
    #: kernel vs were answered from an agent's still-valid cache — the
    #: incremental runtime's dominant saving, surfaced for the registry.
    proposal_evals: int = 0
    proposal_cache_hits: int = 0
    #: Fault-layer accounting (the run-level totals of the shared
    #: injector) when the window negotiated under an active
    #: :class:`~repro.faults.model.FaultModel`; ``None`` on the lossless
    #: path, which is also what a null fault model routes to.
    fault_stats: FaultStats | None = field(repr=False, default=None)

    @property
    def commit_trace(self) -> list[CommitEvent]:
        """Every commit with its synchronous round, in commit order."""
        return [
            CommitEvent(i, k, c, rnd, policy)
            for ((i, k, c), policy), rnd in zip(
                self.table.items(), self.commit_rounds
            )
        ]

    def partition_policies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table as arrays, for drawing final colors in bulk.

        Returns ``(chargers, slots, policies)``: the ``(charger, slot)``
        partitions holding a commit, in sorted order, and their
        ``(partition, color)`` policies, idle where that color committed
        nothing.
        """
        n = len(self.table)
        keys = np.fromiter(
            (x for key in self.table for x in key), dtype=np.intp, count=3 * n
        ).reshape(n, 3)
        # One int per partition, in (charger, slot) order.
        span = int(keys[:, 1].max()) + 1 if n else 1
        parts, part_of = np.unique(
            keys[:, 0] * span + keys[:, 1], return_inverse=True
        )
        policies = np.full(
            (parts.size, self.sampler.num_colors), IDLE_POLICY, dtype=np.int32
        )
        policies[part_of, keys[:, 2]] = np.fromiter(
            self.table.values(), dtype=np.int32, count=n
        )
        return parts // span, parts % span, policies


class _Window:
    """One window's negotiation, built once whichever body runs it.

    Holds the window's slots, its partitions (:func:`_window_partitions`),
    the colour draws, the stacked ``(n, S, m)`` energy views and the
    outcome every body writes: the commit table in commit order, the
    commit rounds, the :class:`MessageStats` and the proposal counts.

    The views are per-agent, stacked so a commit can be folded into all
    its receivers' views with a single batched scatter-add: every receiver
    gets the same addend at distinct index triples, bit-identical to
    folding each inbox separately.  An agent that already decided a
    negotiation misses its later commits, exactly as in the
    message-passing protocol.

    The two Python loops share the agent steps from :meth:`start_agents`
    on: the per-(slot, colour) reset, the cached-or-fresh proposal, the
    commit fold and the changed-task bitmask.  The compiled body uses none
    of them.
    """

    def __init__(
        self,
        network: ChargerNetwork,
        objective: HasteObjective,
        slots: list[int],
        num_colors: int,
        num_samples: int,
        rng: np.random.Generator,
        initial_energies: np.ndarray | None,
    ) -> None:
        self.network = network
        self.objective = objective
        self.slots = [int(k) for k in slots]
        self.participants, part_keys, self.by_slot = _window_partitions(
            network, objective, self.slots
        )
        self.sampler = ColorSampler(part_keys, num_colors, num_samples, rng)
        S = self.sampler.num_samples
        if initial_energies is None:
            self.views = objective.zero_energy((network.n, S))
        else:
            banked = (
                initial_energies[None, None, :]
                if initial_energies.ndim == 1
                else initial_energies[None, :, :]
            )
            self.views = np.broadcast_to(banked, (network.n, S, network.m)).copy()
        self.table: dict[tuple[int, int, int], int] = {}
        self.commit_rounds: list[int] = []
        self.stats = MessageStats()
        self.proposal_evals = 0
        self.proposal_cache_hits = 0

    def result(self, fault_stats: FaultStats | None = None) -> NegotiationResult:
        """The outcome as the caller sees it."""
        return NegotiationResult(
            table=self.table,
            stats=self.stats,
            sampler=self.sampler,
            commit_rounds=self.commit_rounds,
            proposal_evals=self.proposal_evals,
            proposal_cache_hits=self.proposal_cache_hits,
            fault_stats=fault_stats,
        )

    def start_agents(self) -> None:
        """Build the participants' agents and the per-(colour, group)
        matching rows as index arrays, plain-int lists and bitmasks."""
        sampler = self.sampler
        self._matches = sampler.matches_by_color()
        self._row_lists = [
            [rows.tolist() for rows in per_color] for per_color in self._matches
        ]
        self._row_bits = _row_bitmasks(sampler)
        # The layout the compiled fold takes; a no-op for intp columns.
        self._cols = [
            np.ascontiguousarray(c, dtype=np.intp) for c in self.objective._cols
        ]
        # (charger, slot, policy) → int bitmask of the tasks the commit funds.
        self._changed: dict[tuple[int, int, int], int] = {}
        S = sampler.num_samples
        self.agents = {
            i: ChargerAgent(i, self.objective, S, self.views[i])
            for i in self.participants
        }

    def start_slot(self, k: int, active: list[int]) -> None:
        """Bind slot ``k``'s slot-energy blocks of its active agents."""
        self._k = k
        self._adds = {i: self.objective.added_energy_cols(i, k) for i in active}

    def start_negotiation(self, c: int, active: list[int], groups: list[int]) -> None:
        """Reset every active agent for colour ``c`` of the current slot."""
        self.stats.negotiations += 1
        rows_c, lists_c, bits_c = (
            self._matches[c], self._row_lists[c], self._row_bits[c]
        )
        k, adds, agents = self._k, self._adds, self.agents
        for i, g in zip(active, groups):
            agents[i].reset_negotiation(k, bits_c[g], rows_c[g], lists_c[g], adds[i])

    def propose(self, i: int) -> tuple[float, int]:
        """Agent ``i``'s proposal, from its cache or freshly evaluated."""
        agent = self.agents[i]
        if agent._proposal is not None:
            self.proposal_cache_hits += 1
            return agent._proposal
        self.proposal_evals += 1
        return agent.best_candidate()

    def fold(self, receivers: list[int], w: int, policy: int) -> None:
        """Add ``w``'s committed policy to each receiver's view, on ``w``'s
        matching rows and receivable columns."""
        rows, cols = self.agents[w]._rows, self._cols[w]
        vals = self._adds[w][policy]
        if _C is not None:
            _C.fold(self.views, receivers, rows, cols, vals)
        else:
            recv = np.asarray(receivers, dtype=np.intp)
            self.views[
                recv[:, None, None], rows[None, :, None], cols[None, None, :]
            ] += vals

    def changed_bits(self, w: int, policy: int) -> int:
        """Bitmask of the tasks ``w``'s committed policy funds at this slot."""
        key = (w, self._k, policy)
        bits = self._changed.get(key)
        if bits is None:
            bits = 0
            for t in self.objective.changed_tasks(w, self._k, policy):
                bits |= 1 << int(t)
            self._changed[key] = bits
        return bits

    def note_commit(self, receivers: list[int], w: int, policy: int) -> None:
        """Let each receiver's caches see ``w``'s commit."""
        sender_bits = self.agents[w]._match_bits
        changed = self.changed_bits(w, policy)
        for i in receivers:
            self.agents[i].note_commit(sender_bits, changed)


def negotiate_window(
    network: ChargerNetwork,
    objective: HasteObjective,
    slots: list[int],
    num_colors: int,
    *,
    rng: np.random.Generator,
    num_samples: int = 24,
    initial_energies: np.ndarray | None = None,
    async_dropout: float = 0.0,
    async_rng: np.random.Generator | None = None,
    fault_injector=None,
) -> NegotiationResult:
    """Run the distributed negotiation for every slot in ``slots``.

    ``initial_energies`` (shape ``(S, m)`` or ``(m,)`` broadcast to all
    samples) carries energy already banked by the executed past — the
    online runtime passes the pre-window harvest so marginal gains account
    for tasks' existing progress.

    ``async_dropout`` models the paper's "totally asynchronous" chargers:
    with probability ``async_dropout`` an undecided agent misses a round
    (does not recompute/broadcast; its last advertisement stays standing
    and it cannot commit that round).  The protocol's outcome quality is
    insensitive to this — commits still linearize into a greedy order
    (Thm 6.1's argument never assumes lock-step rounds) — and the tests
    assert it; rounds simply stretch.  ``0.0`` (default) is the synchronous
    model used for the Fig. 16 accounting.

    Returns the committed S-C table; drawing the final colors and building
    the schedule is the caller's job (the runtime shares draws between
    events to keep unchanged partitions stable).

    The window is built once and run by one of three bodies.  The
    synchronous lossless protocol runs in the compiled slot kernel
    (:func:`_negotiate_compiled`) when it is loaded and every participant
    is on its path, else in the Python loop (:func:`_negotiate_lossless`),
    its reference, which also runs the asynchronous model; both produce
    the same table, commit trace, stats and proposal counts.  A
    ``fault_injector`` (a :class:`~repro.faults.model.FaultInjector`)
    switches the window to the fault-tolerant protocol
    (:func:`_negotiate_faulty`): advertisements and UPD commits are
    materialized as per-receiver deliveries through a
    :class:`~repro.faults.bus.LossyMessageBus`, with stale-advertisement
    expiry, ack/retransmit for commits, and a per-negotiation round cap.
    An injector whose model :meth:`~repro.faults.model.FaultModel.is_null`
    routes straight through the lossless protocol — a zero-fault model is
    byte-identical to not having a fault layer at all (pinned by the
    chaos suite).  The negotiation ``rng`` stream is consumed identically
    on every path (only the color sampler reads it); all fault randomness
    lives in the injector's own seeded stream.

    When :mod:`repro.obs` is enabled the window is traced as a
    ``negotiation.window`` span and the window's
    :class:`~repro.online.messaging.MessageStats`, commit and
    proposal-cache counts are folded into the registry once, after the
    protocol finishes (nothing is recorded inside the round loop).  An
    active fault injector additionally folds its ``faults.*`` deltas
    (drops, retransmits, expiries, …) the same way.
    """
    if not (0.0 <= async_dropout < 1.0):
        raise ValueError(f"async_dropout must be in [0, 1), got {async_dropout}")
    if async_dropout > 0.0 and async_rng is None:
        raise ValueError("async_dropout > 0 requires async_rng")
    faulty = fault_injector is not None and not fault_injector.model.is_null()
    if faulty and async_dropout != 0.0:
        raise ValueError(
            "async_dropout is a lossless-path model; use the fault "
            "model's crash schedule instead"
        )
    fault_base = fault_injector.stats.as_dict() if faulty else None
    with obs.span("negotiation.window", slots=len(slots), colors=num_colors):
        win = _Window(
            network, objective, slots, num_colors, num_samples, rng,
            initial_energies,
        )
        bound = None
        if not faulty and async_dropout == 0.0:
            bound = _slot_window(
                network, objective, win.slots, win.participants, win.sampler,
                win.views,
            )
        if faulty:
            _negotiate_faulty(win, fault_injector)
        elif bound is not None:
            _negotiate_compiled(win, bound)
        else:
            _negotiate_lossless(win, async_dropout, async_rng)
    result = win.result(fault_injector.stats if faulty else None)
    if obs.enabled():
        obs.inc("negotiation.windows")
        for name, total in result.stats.as_dict().items():
            obs.inc(f"negotiation.{name}", total)
        obs.inc("negotiation.commits", len(result.table))
        obs.inc("negotiation.proposal_evals", result.proposal_evals)
        obs.inc("negotiation.proposal_cache_hits", result.proposal_cache_hits)
        if faulty:
            for name, total in fault_injector.stats.as_dict().items():
                obs.inc(f"faults.{name}", total - fault_base[name])
    return result


def _negotiate_compiled(win: _Window, bound: tuple) -> None:
    """The synchronous lossless protocol in the compiled kernel.

    One ``negotiate_slot`` call per slot runs all its colours with the
    Python loop's semantics step for step.  The call is per slot, not per
    window, because the kernel holds the interpreter lock while it runs:
    between slots, other threads (the serve daemon's) get their turn.
    """
    stats = win.stats
    for q, (active, groups) in enumerate(win.by_slot):
        if not active:
            continue
        messages, broadcasts, rounds, negotiations, evals, hits = (
            _C.negotiate_slot(bound, q, active, groups, win.table, win.commit_rounds)
        )
        stats.messages += messages
        stats.broadcasts += broadcasts
        stats.rounds += rounds
        stats.negotiations += negotiations
        win.proposal_evals += evals
        win.proposal_cache_hits += hits


def _negotiate_lossless(
    win: _Window, async_dropout: float, async_rng: np.random.Generator | None
) -> None:
    """The lossless protocol's round loop in Python (see
    :func:`negotiate_window`): the compiled kernel's reference, and the
    body for the asynchronous model, non-linear utilities and hosts
    without the kernel."""
    sync = async_dropout == 0.0
    neighbors = win.network.neighbors
    degree = [len(nbrs) for nbrs in neighbors]
    stats, table, commit_rounds = win.stats, win.table, win.commit_rounds
    win.start_agents()

    for k, (active_agents, groups) in zip(win.slots, win.by_slot):
        if not active_agents:
            continue
        deg_active = sum(degree[i] for i in active_agents)
        win.start_slot(k, active_agents)
        for c in range(win.sampler.num_colors):
            win.start_negotiation(c, active_agents, groups)
            undecided = set(active_agents)
            # Message-count bookkeeping: in the synchronous model every
            # undecided agent broadcasts each round, so the per-round
            # degree sum is maintained incrementally.
            deg_u = deg_active
            # Standing advertisements: the latest ``ΔF*`` each agent has
            # broadcast this negotiation (``None`` = withdrawn/committed).
            # One shared table reproduces every receiver's inbox-derived
            # knowledge exactly — see the module docstring.
            standing: dict[int, float | None] = {}
            # Last neighbor observed to beat each agent; its standing
            # advertisement is re-checked first so persistent losers skip
            # the full neighbor scan (pure short-circuit — same verdict).
            blocker: dict[int, int] = {}

            negotiation_round = 0
            while undecided:
                negotiation_round += 1
                # Asynchrony model: a sleeping agent skips the round; its
                # previous advertisement stays standing with its neighbors.
                if sync:
                    order = sorted(undecided)
                else:
                    awake = {
                        i
                        for i in undecided
                        if async_rng.random() >= async_dropout
                    }
                    if not awake:
                        continue  # a fully silent round; retry
                    order = sorted(awake)

                # Advertisement phase: every awake undecided agent
                # broadcasts its current best marginal (possibly 0 =
                # withdrawal).  Each broadcast is one transmission plus
                # ``|N(s_i)|`` deliveries in the Fig. 16 accounting.
                proposals: dict[int, tuple[float, int]] = {}
                for i in order:
                    prop = proposals[i] = win.propose(i)
                    standing[i] = prop[0] if prop[0] > MIN_GAIN else None
                stats.broadcasts += len(order)
                stats.messages += (
                    deg_u if sync else sum(degree[i] for i in order)
                )
                stats.rounds += 1

                # Withdrawal: awake agents with no positive gain are done.
                contenders = []
                for i in order:
                    if proposals[i][0] <= MIN_GAIN:
                        undecided.discard(i)
                        deg_u -= degree[i]
                    else:
                        contenders.append(i)
                if not undecided:
                    break

                # Commit phase: local maxima (ties to lower ID) commit in
                # parallel — each agent decides from its neighbors' standing
                # advertisements only: a neighbor is out of the race once it
                # announced a commit (UPD) or a zero gain, both of which set
                # its standing entry to None.
                standing_get = standing.get
                winners = []
                for i in contenders:
                    gain_i = proposals[i][0]
                    b = blocker.get(i)
                    if b is not None:
                        gain_b = standing_get(b)
                        if gain_b is not None and (gain_b, -b) >= (gain_i, -i):
                            continue  # still beaten by the cached blocker
                    beat_all = True
                    for j in neighbors[i]:
                        gain_j = standing_get(j)
                        if gain_j is None:
                            continue
                        if (gain_j, -j) >= (gain_i, -i):
                            beat_all = False
                            blocker[i] = j
                            break
                    if beat_all:
                        winners.append(i)

                if not winners:
                    if not sync:
                        # The current maximum may be asleep, or a stale
                        # higher advertisement blocks everyone awake; both
                        # resolve once the blocker wakes up.
                        continue
                    # Synchronous model: cannot happen with consistent
                    # views (the global max always wins locally); guard
                    # against livelock.
                    raise RuntimeError(
                        "negotiation livelock: no winner among undecided agents"
                    )

                for i in winners:
                    table[(i, k, c)] = proposals[i][1]
                    commit_rounds.append(negotiation_round)
                    standing[i] = None
                stats.broadcasts += len(winners)
                stats.messages += sum(degree[i] for i in winners)
                stats.rounds += 1
                for i in winners:
                    undecided.discard(i)
                    deg_u -= degree[i]
                # UPD delivery: every undecided neighbor of a winner folds
                # the committed policy into its view, the winner folds its
                # own.  Winners are in ascending ID order, so each receiver
                # folds commits in the same order its inbox would have
                # delivered them.  Undecided neighbors then refresh their
                # caches against the touched (rows × tasks) block.
                for w in winners:
                    policy = proposals[w][1]
                    receivers = [i for i in neighbors[w] if i in undecided]
                    win.fold(receivers + [w], w, policy)
                    win.note_commit(receivers, w, policy)


def _negotiate_faulty(win: _Window, injector) -> None:
    """Algorithm 3 hardened for lossy radios and crashing chargers.

    Unlike the lossless protocol — where a single shared table of
    standing advertisements reproduces every inbox exactly because
    delivery is guaranteed — this variant materializes each agent's
    knowledge from the messages it actually received through a
    :class:`~repro.faults.bus.LossyMessageBus`:

    * **Advertisements** (``NULL``) are rebroadcast every round by every
      awake undecided agent, stamped with a sequence number so delayed
      or duplicated copies cannot roll knowledge backwards.  Entries not
      refreshed within ``model.timeout`` rounds expire — a crashed or
      silently-withdrawn neighbor's high bid cannot block the
      neighborhood forever.
    * **Commits** (``UPD``) are acknowledged per receiver; the committer
      retransmits to unacked neighbors for up to ``model.retry`` rounds
      before giving up, so a lost commit degrades a neighbor's *view*
      (it keeps planning against stale task energies) without stalling
      the protocol.  Folds are idempotent — duplicates cannot double
      apply energy.
    * **Safety**: each agent owns its ``(charger, slot)`` partition and
      leaves the race the moment it commits, so the per-slot partition
      matroid holds *by construction* no matter how far views diverge;
      :class:`MatroidViolationError` guards the invariant anyway.
    * **Liveness**: the globally best awake bidder always commits once
      stale blockers expire, and ``model.max_rounds`` caps every
      negotiation outright (an abort keeps whatever committed so far).

    Commits are pipelined one delivery round behind the lossless
    protocol's, so even under a zero-fault injector this is a different
    protocol, not the lossless one with a bus.  Every fault decision
    comes from the injector's own seeded stream, which also makes whole
    runs replayable bit for bit from a recorded
    :class:`~repro.faults.model.FaultTrace`.
    """
    model = injector.model
    neighbors = win.network.neighbors
    bus = LossyMessageBus(list(neighbors), injector)
    bus.stats = win.stats
    fs = injector.stats
    table, commit_rounds = win.table, win.commit_rounds
    win.start_agents()

    for k, (active_agents, groups) in zip(win.slots, win.by_slot):
        if not active_agents:
            continue
        active_set = set(active_agents)
        win.start_slot(k, active_agents)
        for c in range(win.sampler.num_colors):
            win.start_negotiation(c, active_agents, groups)
            bus.reset_inboxes()
            undecided = set(active_agents)
            #: per-receiver knowledge: i -> {j: (gain, policy, stamp)}.
            known: dict[int, dict[int, tuple[float, int, int]]] = {
                i: {} for i in active_agents
            }
            #: newest advertisement sequence seen per (receiver, sender).
            last_seq: dict[int, dict[int, int]] = {i: {} for i in active_agents}
            #: (receiver, committer) pairs already folded — idempotence.
            folded: set[tuple[int, int]] = set()
            #: committer -> neighbors still owing an ACK / retry budget.
            pending: dict[int, set[int]] = {}
            retries: dict[int, int] = {}
            upd_msg: dict[int, Message] = {}

            rnd = 0
            while undecided or pending:
                rnd += 1
                if rnd > model.max_rounds:
                    fs.aborts += 1
                    break
                bus.advance_round()

                # -- receive phase: fold commits, refresh knowledge, ack.
                for i in active_agents:
                    inbox = bus.inbox(i)
                    if not inbox:
                        continue
                    know_i = known[i]
                    seq_i = last_seq[i]
                    for msg in inbox:
                        j = msg.sender
                        if msg.command == CMD_NULL:
                            if msg.seq <= seq_i.get(j, -1):
                                continue  # delayed/duplicated stale copy
                            seq_i[j] = msg.seq
                            if msg.gain > MIN_GAIN:
                                know_i[j] = (msg.gain, msg.policy, rnd)
                            else:
                                know_i.pop(j, None)  # withdrawal
                        elif msg.command == CMD_UPDATE:
                            fs.acks += 1
                            bus.unicast(
                                Message(i, k, c, CMD_ACK, 0.0, msg.policy, rnd),
                                j,
                            )
                            know_i.pop(j, None)  # j left the race
                            if msg.seq > seq_i.get(j, -1):
                                seq_i[j] = msg.seq
                            if (i, j) in folded:
                                continue  # duplicate UPD — fold once
                            folded.add((i, j))
                            win.fold([i], j, msg.policy)
                            win.note_commit([i], j, msg.policy)
                        else:  # CMD_ACK — i committed earlier, j confirms
                            acked = pending.get(i)
                            if acked is not None:
                                acked.discard(j)

                # -- retransmit phase: chase unacked UPD receivers.
                for w in sorted(pending):
                    if not pending[w]:
                        del pending[w], retries[w], upd_msg[w]
                        continue
                    if injector.crashed(w):
                        continue  # a down committer cannot retransmit
                    if retries[w] <= 0:
                        fs.giveups += len(pending[w])
                        del pending[w], retries[w], upd_msg[w]
                        continue
                    retries[w] -= 1
                    fs.retransmits += 1
                    bus.broadcast(upd_msg[w])

                if not undecided:
                    continue  # draining acks/retransmits only

                # -- advertise phase: every awake undecided agent bids.
                awake = []
                for i in sorted(undecided):
                    if injector.crashed(i):
                        fs.crashed_skips += 1
                    else:
                        awake.append(i)
                proposals: dict[int, tuple[float, int]] = {}
                for i in awake:
                    prop = proposals[i] = win.propose(i)
                    gain = prop[0] if prop[0] > MIN_GAIN else 0.0
                    bus.broadcast(Message(i, k, c, CMD_NULL, gain, prop[1], rnd))
                for i in awake:
                    if proposals[i][0] <= MIN_GAIN:
                        undecided.discard(i)  # permanent withdrawal

                # -- commit phase: needs one delivery round of knowledge.
                if rnd < 2:
                    continue
                for i in awake:
                    if i not in undecided:
                        continue
                    gain_i = proposals[i][0]
                    know_i = known[i]
                    beaten = False
                    for j in list(know_i):
                        gain_j, _pol, stamp = know_i[j]
                        if rnd - stamp > model.timeout:
                            del know_i[j]
                            fs.expiries += 1
                            continue
                        if (gain_j, -j) >= (gain_i, -i):
                            beaten = True
                            break
                    if beaten:
                        continue
                    key = (i, k, c)
                    if key in table:
                        raise MatroidViolationError(
                            f"partition (charger={i}, slot={k}, color={c}) "
                            "was committed twice"
                        )
                    policy = proposals[i][1]
                    table[key] = policy
                    commit_rounds.append(rnd)
                    undecided.discard(i)
                    folded.add((i, i))
                    win.fold([i], i, policy)
                    upd = Message(i, k, c, CMD_UPDATE, gain_i, policy, rnd)
                    bus.broadcast(upd)
                    targets = {j for j in neighbors[i] if j in active_set}
                    if targets:
                        pending[i] = targets
                        retries[i] = model.retry
                        upd_msg[i] = upd

            # Receivers the committer never reached keep a diverged view;
            # that is the graceful part of the degradation — count them.
            for w, missing in pending.items():
                fs.giveups += len(missing)
