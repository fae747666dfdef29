"""The whole-fleet dominant-set pass against the per-charger sweep.

:func:`repro.core.coverage.dominant_set_rows` replaces a per-charger
Python sweep (kept in ``tests/oracles/coverage.py``).  It must reproduce
that sweep bit for bit: each charger's ``(tasks, orientation)`` list, and
every policy array :class:`~repro.core.network.ChargerNetwork` lays out
from it.  The fleets below mix apertures down to a near-full circle and a
hair-thin arc, include chargers with no receivable task, one charger that
holds most tasks, duplicate and touching azimuths, and forced-small chunk
bounds.  Padded lanes must never leak into arithmetic, so the module runs
with RuntimeWarnings as errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.coverage import dominant_sets_sweep, reference_policies
from repro.core import Charger, ChargerNetwork, ChargingTask, coverage
from repro.core.coverage import dominant_set_rows, dominant_sets_from_arcs
from repro.core.geometry import TWO_PI
from repro.sim import SimulationConfig, sample_network

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

APERTURES = [TWO_PI, TWO_PI - 1e-10, np.pi, np.pi / 3, 1e-3]

POLICY_ARRAYS = (
    "cover_masks",
    "policy_power",
    "policy_orientations",
    "policy_tasks",
    "sparse_cover",
    "sparse_power",
)


def assert_same_sets(got, want):
    """Equal task sets in equal order, orientations equal to the bit."""
    assert [d.tasks for d in got] == [d.tasks for d in want]
    assert [d.orientation.hex() for d in got] == [d.orientation.hex() for d in want]


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_network_matches_oracle(net):
    ref = reference_policies(net)
    for name in POLICY_ARRAYS:
        assert len(getattr(net, name)) == net.n, name
        for i, (got, want) in enumerate(zip(getattr(net, name), ref[name])):
            assert_same_array(got, want, f"{name}[{i}]")
    assert_same_array(net.policy_offsets, ref["policy_offsets"], "policy_offsets")
    assert_same_array(net.policy_power_flat, ref["policy_power_flat"], "policy_power_flat")
    for got, want in zip(net.dominant_sets, ref["dominant_sets"]):
        assert_same_sets(got, want)


def assert_rows_match_sweep(azimuth, receivable, angles):
    charger, orientation, cover = dominant_set_rows(azimuth, receivable, angles)
    assert cover.shape == (charger.size, receivable.shape[1])
    for i in range(receivable.shape[0]):
        idx = np.flatnonzero(receivable[i])
        mine = charger == i
        got = [
            coverage.DominantSet(frozenset(np.flatnonzero(row).tolist()), float(o))
            for row, o in zip(cover[mine], orientation[mine])
        ]
        assert_same_sets(got, dominant_sets_sweep(idx, azimuth[i, idx], angles[i]))


@st.composite
def fleets(draw, *, quantized=False):
    """Raw ``(azimuth, receivable, apertures)`` for a small fleet."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    if quantized:
        # Multiples of π/6 against π/3-wide arcs: duplicates and arcs that
        # touch exactly at their ends.
        cell = st.integers(0, 11).map(lambda k: k * np.pi / 6)
    else:
        cell = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)
    azimuth = np.array(
        [[draw(cell) for _ in range(m)] for _ in range(n)], dtype=float
    ).reshape(n, m)
    receivable = np.array(
        [[draw(st.booleans()) for _ in range(m)] for _ in range(n)], dtype=bool
    ).reshape(n, m)
    # One charger that receives nothing, whatever the draw.
    receivable[draw(st.integers(0, n - 1))] = False
    angles = np.array(
        [draw(st.sampled_from(APERTURES + ([np.pi / 3] if quantized else []))) for _ in range(n)]
    )
    return azimuth, receivable, angles


class TestFleetPassEqualsSweep:
    @settings(max_examples=120, deadline=None)
    @given(fleets())
    def test_mixed_apertures(self, fleet):
        assert_rows_match_sweep(*fleet)

    @settings(max_examples=120, deadline=None)
    @given(fleets(quantized=True))
    def test_duplicate_and_touching_azimuths(self, fleet):
        assert_rows_match_sweep(*fleet)

    @settings(max_examples=60, deadline=None)
    @given(fleets(), st.sampled_from([1, 16, 200]))
    def test_small_chunk_bound(self, fleet, bound):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coverage, "CHUNK_ELEMENTS", bound)
            assert_rows_match_sweep(*fleet)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9), max_size=14),
        st.sampled_from(APERTURES),
    )
    def test_one_charger_call(self, azimuths, angle):
        idx = np.arange(len(azimuths)) * 3 + 1
        az = np.asarray(azimuths, dtype=float)
        assert_same_sets(
            dominant_sets_from_arcs(idx, az, angle),
            dominant_sets_sweep(idx, az, angle),
        )

    def test_arc_start_rounding_up_to_two_pi(self):
        # An azimuth one ulp below A_s/2 puts its arc start at exactly 2π
        # (np.mod rounds up), beside a start at 0: a probe difference of 2π.
        w = np.pi / 3
        below = np.nextafter(w / 2, 0.0)
        azimuth = np.array([[below, w / 2, 0.3, below + w, 5.0]])
        starts, _ = coverage.coverage_arcs(azimuth, w)
        assert starts[0, 0] == TWO_PI and starts[0, 1] == 0.0
        assert_rows_match_sweep(azimuth, np.ones(azimuth.shape, dtype=bool), np.array([w]))

    def test_probe_offsets_equal_np_mod(self):
        edge = [0.0, 5e-324, 1e-17, 4e-16, np.pi, np.nextafter(TWO_PI, 0.0), TWO_PI]
        angles = np.concatenate([edge, np.random.default_rng(2).uniform(0.0, TWO_PI, 300)])
        diff = angles[:, None] - angles[None, :]
        assert coverage._mod_two_pi(diff).tobytes() == np.mod(diff, TWO_PI).tobytes()

    @pytest.mark.parametrize("bound", [1, 64, coverage.CHUNK_ELEMENTS])
    def test_one_charger_holds_most_tasks(self, monkeypatch, bound):
        monkeypatch.setattr(coverage, "CHUNK_ELEMENTS", bound)
        rng = np.random.default_rng(5)
        n, m = 12, 150
        azimuth = rng.uniform(0.0, TWO_PI, (n, m))
        receivable = rng.random((n, m)) < 0.05
        receivable[3] = rng.random(m) < 0.9
        angles = rng.choice(APERTURES, n)
        angles[3] = np.pi / 3
        assert_rows_match_sweep(azimuth, receivable, angles)


@st.composite
def networks(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 10))
    coords = st.floats(min_value=0.0, max_value=15.0)
    chargers = [
        Charger(
            i,
            draw(coords),
            draw(coords),
            charging_angle=draw(st.sampled_from(APERTURES)),
            radius=draw(st.floats(min_value=3.0, max_value=30.0)),
        )
        for i in range(n)
    ]
    tasks = []
    for j in range(m):
        release = draw(st.integers(0, 3))
        tasks.append(
            ChargingTask(
                j,
                draw(coords),
                draw(coords),
                orientation=draw(st.floats(min_value=0.0, max_value=TWO_PI)),
                release_slot=release,
                end_slot=release + draw(st.integers(1, 4)),
                required_energy=draw(st.floats(min_value=1.0, max_value=1e5)),
                receiving_angle=draw(st.floats(min_value=0.3, max_value=TWO_PI)),
            )
        )
    return ChargerNetwork(chargers, tasks, slot_seconds=60.0)


class TestNetworkPolicyArrays:
    @settings(max_examples=60, deadline=None)
    @given(networks())
    def test_hypothesis_fleets(self, net):
        assert_network_matches_oracle(net)

    @settings(max_examples=20, deadline=None)
    @given(networks(), st.data())
    def test_restricted_networks(self, net, data):
        keep = data.draw(st.lists(st.integers(0, max(net.m - 1, 0)), unique=True))
        keep = [t for t in keep if t < net.m]
        assert_network_matches_oracle(net.restricted_to_tasks(keep))

    @pytest.mark.parametrize("seed", [7, 11])
    def test_paper_scale(self, seed):
        net = sample_network(SimulationConfig.paper(), np.random.default_rng(seed))
        assert (net.n, net.m) == (50, 200)
        assert_network_matches_oracle(net)

    def test_paper_scale_small_chunks(self, monkeypatch):
        monkeypatch.setattr(coverage, "CHUNK_ELEMENTS", 1)
        net = sample_network(SimulationConfig.paper(), np.random.default_rng(3))
        assert_network_matches_oracle(net)
