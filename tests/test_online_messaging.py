"""Unit tests for the message bus and the distributed negotiation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Schedule
from repro.objective import HasteObjective
from repro.offline import schedule_offline
from repro.online import (
    CMD_NULL,
    Message,
    MessageBus,
    MessageStats,
    negotiate_window,
)

from conftest import build_network


class TestMessage:
    def test_fields(self):
        msg = Message(1, 2, 0, CMD_NULL, 0.5, 3)
        assert msg.sender == 1 and msg.slot == 2 and msg.policy == 3

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 0, 0, "BOGUS", 0.0, 0)


class TestMessageStats:
    def test_merge(self):
        a = MessageStats(messages=3, broadcasts=1, rounds=2, negotiations=1)
        b = MessageStats(messages=5, broadcasts=2, rounds=1, negotiations=1)
        a.merge(b)
        assert (a.messages, a.broadcasts, a.rounds, a.negotiations) == (8, 3, 3, 2)

    def test_summary(self):
        assert "messages=0" in MessageStats().summary()

    def test_as_dict_round_trip(self):
        a = MessageStats(messages=7, broadcasts=3, rounds=5, negotiations=2)
        assert MessageStats(**a.as_dict()) == a
        assert list(a.as_dict()) == [
            "messages", "broadcasts", "rounds", "negotiations",
        ]

    def test_merge_equals_fieldwise_sum_of_dicts(self):
        a = MessageStats(messages=1, broadcasts=2, rounds=3, negotiations=4)
        b = MessageStats(messages=10, broadcasts=20, rounds=30, negotiations=40)
        expect = {k: a.as_dict()[k] + b.as_dict()[k] for k in a.as_dict()}
        a.merge(b)
        assert a.as_dict() == expect


class TestMessageBus:
    def _bus(self):
        neighbors = [frozenset({1}), frozenset({0, 2}), frozenset({1})]
        return MessageBus(neighbors)

    def test_delivery_to_neighbors_only(self):
        bus = self._bus()
        bus.broadcast(Message(1, 0, 0, CMD_NULL, 1.0, 1))
        bus.advance_round()
        assert len(bus.inbox(0)) == 1
        assert len(bus.inbox(2)) == 1
        assert len(bus.inbox(1)) == 0

    def test_messages_counted_per_neighbor(self):
        bus = self._bus()
        bus.broadcast(Message(1, 0, 0, CMD_NULL, 1.0, 1))
        assert bus.stats.broadcasts == 1
        assert bus.stats.messages == 2  # two neighbors

    def test_no_delivery_before_round(self):
        bus = self._bus()
        bus.broadcast(Message(0, 0, 0, CMD_NULL, 1.0, 1))
        assert bus.inbox(1) == []

    def test_round_counter(self):
        bus = self._bus()
        bus.advance_round()
        bus.advance_round()
        assert bus.stats.rounds == 2

    def test_reset_inboxes(self):
        bus = self._bus()
        bus.broadcast(Message(0, 0, 0, CMD_NULL, 1.0, 1))
        bus.advance_round()
        bus.reset_inboxes()
        assert bus.inbox(1) == []


class TestNegotiateWindow:
    def _net(self, seed=0):
        return build_network(seed, n=4, m=10, horizon=5)

    def test_produces_valid_table(self):
        net = self._net()
        obj = HasteObjective(net)
        res = negotiate_window(
            net, obj, list(range(net.num_slots)), 1, rng=np.random.default_rng(0)
        )
        for (i, k, c), p in res.table.items():
            assert 0 <= i < net.n
            assert 0 <= k < net.num_slots
            assert c == 0
            assert 1 <= p < net.policy_count(i)

    def test_c1_value_close_to_centralized(self):
        """Both are locally greedy (different orders) → same ballpark, and
        the distributed one must itself satisfy the ½ bound structure."""
        for seed in range(3):
            net = self._net(seed)
            obj = HasteObjective(net)
            res = negotiate_window(
                net, obj, list(range(net.num_slots)), 1, rng=np.random.default_rng(0)
            )
            sched = Schedule(net)
            for (i, k, _c), p in res.table.items():
                sched.set(i, k, p)
            dist_val = obj.value_of_schedule(sched)
            cent = schedule_offline(net, 1, rng=np.random.default_rng(0))
            assert dist_val >= 0.5 * cent.objective_value - 1e-9
            assert dist_val <= cent.objective_value * 2.0 + 1e-9

    def test_greedy_order_linearizes(self):
        """Commits within one (slot, color) happen in decreasing-gain order
        among neighbors: recompute the sequential greedy with the winners'
        order and confirm the same value (paper Thm 6.1 first part)."""
        net = self._net(2)
        obj = HasteObjective(net)
        res = negotiate_window(net, obj, [0], 1, rng=np.random.default_rng(0))
        sched = Schedule(net)
        for (i, k, _c), p in res.table.items():
            sched.set(i, k, p)
        # Sequential replay: applying the same commitments one at a time
        # must reproduce the same energies (additivity sanity).
        energies = obj.zero_energy()
        for (i, k, _c), p in res.table.items():
            obj.apply(energies, i, k, p)
        assert obj.value(energies) == pytest.approx(obj.value_of_schedule(sched))

    def test_initial_energies_respected(self):
        net = self._net(3)
        obj = HasteObjective(net)
        # Saturate every task: no gain remains, nothing should be committed.
        full = np.full(net.m, 1e12)
        res = negotiate_window(
            net,
            obj,
            list(range(net.num_slots)),
            1,
            rng=np.random.default_rng(0),
            initial_energies=full,
        )
        assert res.table == {}

    def test_stats_populated(self):
        net = self._net(4)
        obj = HasteObjective(net)
        res = negotiate_window(
            net, obj, list(range(net.num_slots)), 1, rng=np.random.default_rng(0)
        )
        assert res.stats.negotiations > 0
        assert res.stats.rounds > 0
        # Broadcast fan-out: messages = Σ deliveries ≤ broadcasts · max degree.
        max_deg = max(len(nb) for nb in net.neighbors)
        assert res.stats.messages <= res.stats.broadcasts * max(max_deg, 1)

    def test_multi_color_table(self):
        net = self._net(5)
        obj = HasteObjective(net)
        res = negotiate_window(
            net,
            obj,
            list(range(net.num_slots)),
            3,
            rng=np.random.default_rng(1),
            num_samples=12,
        )
        colors = {c for (_i, _k, c) in res.table}
        assert colors <= {0, 1, 2}


class TestNegotiateWindowObsDeltas:
    """``negotiate_window`` folds only *its own* contribution into the obs
    registry: on counters an earlier window already populated, each window
    adds exactly its own result's stats."""

    def _net(self, seed=0):
        return build_network(seed, n=4, m=10, horizon=5)

    def test_deltas_not_totals_with_prepopulated_bus(self):
        from repro import obs

        net = self._net(6)
        obj = HasteObjective(net)

        obs.configure()
        try:
            results = [
                negotiate_window(
                    net, obj, list(range(net.num_slots)), 2,
                    rng=np.random.default_rng(seed),
                )
                for seed in (0, 1)
            ]
            snap = obs.get_registry().snapshot()["counters"]
        finally:
            obs.shutdown()
            obs.get_registry().reset()
        for name in ("messages", "broadcasts", "rounds", "negotiations"):
            own = [res.stats.as_dict()[name] for res in results]
            assert min(own) > 0
            assert snap[f"negotiation.{name}"] == sum(own)

    def test_fault_deltas_sum_to_injector_totals(self):
        """Two faulty windows sharing one injector: the obs ``faults.*``
        counters accumulate exactly the injector's run-level totals."""
        from repro import obs
        from repro.faults import FaultModel

        net = self._net(7)
        obj = HasteObjective(net)
        injector = FaultModel(loss=0.3, duplicate=0.1, seed=4).injector(net.n)
        slots = list(range(net.num_slots))
        mid = len(slots) // 2

        obs.configure()
        try:
            negotiate_window(
                net, obj, slots[:mid], 1,
                rng=np.random.default_rng(0), fault_injector=injector,
            )
            negotiate_window(
                net, obj, slots[mid:], 1,
                rng=np.random.default_rng(1), fault_injector=injector,
            )
            snap = obs.get_registry().snapshot()["counters"]
        finally:
            obs.shutdown()
            obs.get_registry().reset()
        for name, total in injector.stats.as_dict().items():
            assert snap.get(f"faults.{name}", 0) == total
