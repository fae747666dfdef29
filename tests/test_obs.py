"""Tests for the observability layer (``repro.obs``).

Covers the ISSUE acceptance list: registry thread-safety, histogram
percentiles, span nesting (including exception paths and per-thread
stacks), JSONL round-trips, the no-op disabled mode, the one-time
C-kernel fallback warning, and the exact agreement between the folded
``negotiation.*`` counters and each run's reported ``MessageStats``.
"""

from __future__ import annotations

import json
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.obs import Histogram, JsonlSink, MemorySink, MetricRegistry

from conftest import build_network


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a disabled, empty global registry."""
    obs.shutdown()
    obs.get_registry().reset()
    yield
    obs.shutdown()
    obs.get_registry().reset()


class TestRegistryBasics:
    def test_counter_gauge_histogram(self):
        reg = MetricRegistry(enabled=True)
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 2.0

    def test_reset_clears_aggregates(self):
        reg = MetricRegistry(enabled=True)
        reg.inc("a")
        with reg.span("s"):
            pass
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}

    def test_event_counts_and_emits(self):
        reg = MetricRegistry(enabled=True)
        sink = MemorySink()
        reg.sinks.append(sink)
        reg.event("backend.chosen", level="info", backend="numpy")
        reg.event("backend.chosen")
        assert reg.snapshot()["counters"]["event.backend.chosen"] == 2
        assert sink.records[0]["kind"] == "event"
        assert sink.records[0]["fields"]["backend"] == "numpy"

    def test_thread_safety_exact_totals(self):
        reg = MetricRegistry(enabled=True)
        threads, per_thread = 8, 2_000

        def work():
            for _ in range(per_thread):
                reg.inc("hits")
                reg.observe("lat", 1.0)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.counter("hits").value == threads * per_thread
        assert reg.histogram("lat").count == threads * per_thread


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0  # nearest-rank floor: first sample
        assert h.mean == pytest.approx(50.5)

    def test_single_observation(self):
        h = Histogram("h")
        h.observe(7.0)
        snap = h.snapshot()
        assert snap["p50"] == snap["p99"] == snap["min"] == snap["max"] == 7.0

    def test_max_samples_caps_retention_not_stats(self):
        h = Histogram("h", max_samples=10)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.max == 99.0
        assert len(h._values) == 10


class TestSpans:
    def test_nested_paths(self):
        reg = MetricRegistry(enabled=True)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        paths = reg.span_paths()
        assert paths[("outer",)][0] == 1
        assert paths[("outer", "inner")][0] == 2

    def test_exception_still_records_and_pops(self):
        reg = MetricRegistry(enabled=True)
        with pytest.raises(ValueError):
            with reg.span("boom"):
                raise ValueError("x")
        assert reg.span_paths()[("boom",)][0] == 1
        # The stack must be clean: a new span is top-level again.
        with reg.span("next"):
            pass
        assert ("next",) in reg.span_paths()

    def test_per_thread_stacks_do_not_splice(self):
        reg = MetricRegistry(enabled=True)
        barrier = threading.Barrier(2)

        def work(name):
            with reg.span(name):
                barrier.wait()
                with reg.span("child"):
                    time.sleep(0.01)

        a = threading.Thread(target=work, args=("a",))
        b = threading.Thread(target=work, args=("b",))
        a.start(), b.start()
        a.join(), b.join()
        paths = set(reg.span_paths())
        assert ("a", "child") in paths and ("b", "child") in paths
        # No cross-thread nesting like ("a", "b", ...).
        assert all(len(p) <= 2 for p in paths)

    def test_span_duration_observed_as_histogram(self):
        reg = MetricRegistry(enabled=True)
        with reg.span("timed"):
            time.sleep(0.005)
        h = reg.histogram("span.timed")
        assert h.count == 1
        assert h.total >= 0.004

    def test_tree_order_parents_first(self):
        reg = MetricRegistry(enabled=True)
        with reg.span("run"):
            with reg.span("step"):
                pass
        text = obs.format_span_tree(reg)
        lines = text.splitlines()
        assert lines[1].strip().startswith("run")
        assert lines[2].strip().startswith("step")
        assert lines[2].index("step") > lines[1].index("run")


class TestDisabledNoop:
    def test_helpers_touch_nothing_when_disabled(self):
        reg = obs.get_registry()
        assert not reg.enabled
        obs.inc("x")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)
        obs.event("e")
        with obs.span("s"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == {}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("a") is obs.span("b")

    def test_noop_span_overhead_smoke(self):
        """The disabled call site is a flag check — must stay ~free."""
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with obs.span("noop"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6  # 20µs is already 20x a generous budget


class TestConfigureAndSinks:
    def test_configure_defaults_to_memory_sink(self):
        reg = obs.configure()
        assert reg.enabled
        assert isinstance(reg.sinks[0], MemorySink)
        with obs.span("s"):
            pass
        assert any(r["kind"] == "span" for r in reg.sinks[0].records)

    def test_shutdown_emits_summary_and_disables(self):
        reg = obs.configure()
        sink = reg.sinks[0]
        obs.inc("c", 3)
        obs.shutdown()
        assert not reg.enabled
        assert sink.records[-1]["kind"] == "summary"
        assert sink.records[-1]["counters"]["c"] == 3

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace=path)
        with obs.span("outer", tag="x"):
            with obs.span("inner"):
                pass
        obs.event("marker", value=np.int64(7))  # numpy scalar must coerce
        obs.inc("total", np.int64(5))
        obs.shutdown()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds.count("span") == 2 and kinds.count("event") == 1
        assert kinds[-1] == "summary"
        inner = next(r for r in records if r.get("path") == "outer/inner")
        assert inner["dur_s"] >= 0.0
        event = next(r for r in records if r["kind"] == "event")
        assert event["fields"]["value"] == 7
        assert records[-1]["counters"]["total"] == 5

    def test_jsonl_sink_ignores_emit_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"kind": "event", "name": "a"})
        sink.close()
        sink.emit({"kind": "event", "name": "late"})  # must not raise
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_configure_fresh_resets_previous_run(self):
        obs.configure()
        obs.inc("stale", 9)
        reg = obs.configure()
        assert "stale" not in reg.snapshot()["counters"]

    def test_configure_from_env(self, tmp_path):
        assert obs._configure_from_env({}) is None
        assert obs._configure_from_env({"REPRO_TRACE": "0"}) is None
        assert obs._configure_from_env({"REPRO_TRACE": "off"}) is None
        reg = obs._configure_from_env({"REPRO_TRACE": "1"})
        assert reg is not None and isinstance(reg.sinks[0], MemorySink)
        obs.shutdown()
        path = tmp_path / "env.jsonl"
        reg = obs._configure_from_env({"REPRO_TRACE": str(path)})
        assert isinstance(reg.sinks[0], JsonlSink)
        obs.shutdown()
        assert path.exists()

    def test_daemon_telemetry_keeps_a_bounded_record_count(self):
        from repro.serve.daemon import TELEMETRY_RECORDS, configure_telemetry

        reg = configure_telemetry()
        (sink,) = reg.sinks
        total = TELEMETRY_RECORDS + 100
        for i in range(total):
            obs.event("tick", i=i)
        assert len(sink.records) == TELEMETRY_RECORDS
        assert sink.records[0]["fields"]["i"] == total - TELEMETRY_RECORDS
        assert sink.records[-1]["fields"]["i"] == total - 1
        obs.shutdown()  # the summary record evicts the oldest tick
        assert len(sink.records) == TELEMETRY_RECORDS
        assert sink.records[-1]["kind"] == "summary"


class TestWarnOnce:
    def test_fires_once_per_key(self):
        obs._reset_warned()
        with pytest.warns(RuntimeWarning, match="degraded"):
            obs.warn_once("k1", "degraded path")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs.warn_once("k1", "degraded path")  # second: silent
        obs._reset_warned()

    def test_mirrors_event_when_enabled(self):
        obs._reset_warned()
        reg = obs.configure()
        with pytest.warns(RuntimeWarning):
            obs.warn_once("k2", "something fell back", detail="d")
        assert reg.snapshot()["counters"]["event.k2"] == 1
        obs._reset_warned()

    def test_ckernel_build_failure_warns_once(self, tmp_path, monkeypatch):
        from repro.online import _ckernel

        src = tmp_path / "_fastpath.c"
        src.write_text("int x;\n")
        monkeypatch.setattr(_ckernel, "_SRC", src)  # no cached .so → stale
        monkeypatch.setattr(
            _ckernel, "_build", lambda so: (False, "cc exploded")
        )
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
        obs._reset_warned()
        with pytest.warns(RuntimeWarning, match="cc exploded"):
            assert _ckernel.load() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ckernel.load() is None  # second failure: no new warning
        obs._reset_warned()

    def test_ckernel_disable_env_is_silent(self, monkeypatch):
        from repro.online import _ckernel

        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        obs._reset_warned()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ckernel.load() is None


class TestSchedulerIntegration:
    def test_negotiation_counters_match_message_stats(self):
        from repro.online import run_online_haste

        net = build_network(3, n=4, m=10, horizon=6)
        reg = obs.configure()
        run = run_online_haste(
            net, num_colors=2, tau=1, rho=0.1, rng=np.random.default_rng(0)
        )
        snap = reg.snapshot()["counters"]
        assert snap["negotiation.messages"] == run.stats.messages
        assert snap["negotiation.broadcasts"] == run.stats.broadcasts
        assert snap["negotiation.rounds"] == run.stats.rounds
        assert snap["negotiation.negotiations"] == run.stats.negotiations
        assert snap["online.events"] == run.events
        h = reg.histogram("span.online.arrival")
        assert h.count == run.events

    def test_offline_counters_match_result(self):
        from repro.offline import CentralizedScheduler

        net = build_network(5, n=3, m=8, horizon=5)
        reg = obs.configure()
        res = CentralizedScheduler(net).run(
            2, num_samples=8, rng=np.random.default_rng(1)
        )
        snap = reg.snapshot()["counters"]
        assert snap["offline.candidate_scans"] == res.candidate_scans
        assert snap["offline.runs"] == 1
        assert reg.span_paths()[("offline.run", "offline.color_sweep")][0] == 2

    def test_execution_counted_once(self):
        """A ρ > 0 execution also reports its ρ = 0 value; that is still one
        execution, in the counters and in the spans."""
        from repro.offline import CentralizedScheduler
        from repro.offline.batched import execute_schedule_batch
        from repro.sim.engine import execute_schedule

        net = build_network(5, n=3, m=8, horizon=5)
        sched = CentralizedScheduler(net).run(
            2, num_samples=8, rng=np.random.default_rng(1)
        ).schedule
        reg = obs.configure()
        ex = execute_schedule(net, sched, rho=1 / 12)
        assert ex.switch_count > 0
        snap = reg.snapshot()["counters"]
        assert snap["sim.executions"] == 1
        assert snap["sim.charger_slots"] == np.count_nonzero(sched.sel)
        assert snap["sim.switches"] == ex.switch_count
        assert reg.histogram("span.sim.execute").count == 1

        reg = obs.configure()
        execute_schedule_batch([net, net], [sched, sched], rhos=[1 / 12, 0.5])
        snap = reg.snapshot()["counters"]
        assert snap["sim.executions"] == 2
        assert snap["sim.switches"] == 2 * ex.switch_count
        assert reg.histogram("span.sim.execute").count == 2

    def test_untraced_runs_are_unaffected(self):
        """Identical results with tracing on and off (observer effect)."""
        from repro.online import run_online_haste

        net = build_network(9, n=3, m=8, horizon=5)
        kwargs = dict(num_colors=1, tau=1, rho=0.1)
        plain = run_online_haste(net, rng=np.random.default_rng(2), **kwargs)
        obs.configure()
        traced = run_online_haste(net, rng=np.random.default_rng(2), **kwargs)
        assert plain.schedule == traced.schedule
        assert plain.stats.messages == traced.stats.messages


class TestReservoirRetention:
    """The seeded-reservoir fix for the first-N retention bias."""

    def test_retention_is_unbiased_on_rising_stream(self):
        # A monotone stream 0..9999 with a cap of 100: a first-N cap
        # would freeze every percentile below 100; the reservoir's
        # retained sample is uniform over the whole stream.
        h = Histogram("bias", max_samples=100)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert h.total == pytest.approx(sum(range(10_000)))
        assert h.min == 0.0 and h.max == 9_999.0
        assert 3_000.0 < h.percentile(50) < 7_000.0
        assert h.percentile(99) > 8_000.0

    def test_retention_is_deterministic_per_name(self):
        a, b = Histogram("same-name", 16), Histogram("same-name", 16)
        for v in range(1_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a._values == b._values
        c = Histogram("other-name", 16)
        for v in range(1_000):
            c.observe(float(v))
        assert c._values != a._values  # different seed, different subset

    def test_snapshot_keys_are_stable(self):
        h = Histogram("keys", max_samples=4)
        for v in range(50):
            h.observe(float(v))
        assert set(h.snapshot()) == {
            "count", "mean", "min", "max", "p50", "p90", "p99",
        }


class TestWindowedHistogram:
    def test_percentiles_match_brute_force_below_capacity(self):
        import math

        from repro.obs import WindowedHistogram

        rng = np.random.default_rng(5)
        wh = WindowedHistogram("lat", capacity=10_000)
        per_window: dict[str, list[float]] = {"calm": [], "burst": []}
        for _ in range(2_000):
            window = "burst" if rng.random() < 0.3 else "calm"
            v = float(rng.exponential(1.0 if window == "calm" else 5.0))
            wh.observe(v, window=window)
            per_window[window].append(v)

        def nearest_rank(values, q):
            ordered = sorted(values)
            rank = max(1, math.ceil(q / 100.0 * len(ordered)))
            return ordered[min(rank, len(ordered)) - 1]

        pooled = per_window["calm"] + per_window["burst"]
        for q in (0, 50, 90, 99, 100):
            assert wh.percentile(q) == nearest_rank(pooled, q)
            for w, vals in per_window.items():
                assert wh.percentile(q, window=w) == nearest_rank(vals, q)

    def test_registry_windowed_snapshot_and_summary(self):
        reg = obs.configure()
        obs.observe_windowed("traffic.lat", 1.0, window="calm")
        obs.observe_windowed("traffic.lat", 9.0, window="burst")
        obs.observe_windowed("traffic.lat", 3.0)
        snap = reg.snapshot()
        w = snap["windowed"]["traffic.lat"]
        assert w["count"] == 3
        assert w["windows"]["calm"]["count"] == 1
        assert w["windows"]["burst"]["p99"] == 9.0
        text = obs.format_summary(reg)
        assert "windowed histograms" in text
        assert "burst" in text

    def test_windowed_disabled_is_noop(self):
        obs.observe_windowed("traffic.lat", 1.0, window="calm")
        assert "windowed" not in obs.get_registry().snapshot()


class TestLifecycleIdempotency:
    def test_configure_twice_fresh_does_not_stack_sinks(self):
        reg = obs.configure()
        first = reg.sinks[0]
        reg = obs.configure()
        assert len(reg.sinks) == 1
        assert reg.sinks[0] is not first  # a fresh epoch, fresh sink

    def test_configure_twice_same_trace_path_no_duplicate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        reg = obs.configure(trace=path)
        reg = obs.configure(trace=path, fresh=False)
        jsonl = [s for s in reg.sinks if isinstance(s, JsonlSink)]
        assert len(jsonl) == 1

    def test_shutdown_twice_emits_one_summary(self):
        sink = MemorySink()
        obs.configure(sink=sink)
        obs.inc("a")
        obs.shutdown()
        obs.shutdown()  # second shutdown must be a no-op
        summaries = [r for r in sink.records if r.get("kind") == "summary"]
        assert len(summaries) == 1
        assert not obs.enabled()

    def test_registry_close_idempotent_directly(self):
        reg = MetricRegistry(enabled=True)
        sink = MemorySink()
        reg.sinks.append(sink)
        reg.close()
        reg.close()
        assert len([r for r in sink.records if r["kind"] == "summary"]) == 1
        assert reg.sinks == []

    def test_reconfigure_after_shutdown_records_again(self):
        obs.configure()
        obs.inc("a")
        obs.shutdown()
        reg = obs.configure()
        obs.inc("b")
        snap = reg.snapshot()["counters"]
        assert snap == {"b": 1}
