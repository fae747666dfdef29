"""Unit tests for dominant task set extraction (paper Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.coverage import dominant_sets_naive
from repro.core.coverage import DominantSet, coverage_arcs, dominant_sets_from_arcs
from repro.core.geometry import TWO_PI, Arc


def extract(azimuths, angle):
    idx = np.arange(len(azimuths))
    return dominant_sets_from_arcs(idx, np.asarray(azimuths, dtype=float), angle)


class TestCoverageArcs:
    def test_width_equals_charging_angle(self):
        starts, width = coverage_arcs(np.array([1.0]), np.pi / 3)
        assert width == pytest.approx(np.pi / 3)

    def test_start_centred_on_azimuth(self):
        starts, width = coverage_arcs(np.array([1.0]), 0.5)
        assert starts[0] == pytest.approx(1.0 - 0.25)

    def test_width_capped_at_two_pi(self):
        _, width = coverage_arcs(np.array([0.0]), 10.0)
        assert width == pytest.approx(TWO_PI)


class TestDominantSetExtraction:
    def test_no_tasks(self):
        assert extract([], np.pi / 3) == []

    def test_single_task(self):
        sets = extract([1.0], np.pi / 3)
        assert len(sets) == 1
        assert sets[0].tasks == frozenset({0})

    def test_representative_covers_its_set(self):
        azimuths = [0.0, 0.3, 2.0, 4.0]
        angle = np.pi / 2
        for ds in extract(azimuths, angle):
            for j in ds.tasks:
                assert Arc(azimuths[j] - angle / 2, angle).contains(ds.orientation)

    def test_two_close_tasks_merge(self):
        sets = extract([0.0, 0.1], np.pi / 3)
        assert len(sets) == 1
        assert sets[0].tasks == frozenset({0, 1})

    def test_two_far_tasks_separate(self):
        sets = extract([0.0, np.pi], np.pi / 3)
        assert len(sets) == 2
        assert {frozenset(s.tasks) for s in sets} == {frozenset({0}), frozenset({1})}

    def test_paper_toy_structure(self):
        # Six tasks around the circle with a wide aperture produce a chain
        # of overlapping dominant sets, each maximal.
        azimuths = [0.0, 0.4, 0.8, 1.8, 2.6, 5.5]
        sets = extract(azimuths, 1.2)
        families = [s.tasks for s in sets]
        # No dominant set contains another.
        for a in families:
            for b in families:
                if a is not b:
                    assert not a < b
        # Every task appears in at least one dominant set.
        assert set().union(*families) == set(range(6))

    def test_full_circle_aperture(self):
        sets = extract([0.0, 1.0, 2.0, 3.0], TWO_PI)
        assert len(sets) == 1
        assert sets[0].tasks == frozenset({0, 1, 2, 3})

    def test_identical_azimuths(self):
        sets = extract([1.5, 1.5, 1.5], np.pi / 6)
        assert len(sets) == 1
        assert sets[0].tasks == frozenset({0, 1, 2})

    def test_task_indices_preserved(self):
        # Network-level indices are arbitrary, not consecutive.
        sets = dominant_sets_from_arcs(
            np.array([7, 11]), np.array([0.0, 0.05]), np.pi / 3
        )
        assert sets[0].tasks == frozenset({7, 11})

    def test_sorted_by_orientation(self):
        sets = extract([0.0, 1.5, 3.0, 4.5], np.pi / 3)
        orients = [s.orientation for s in sets]
        assert orients == sorted(orients)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("angle", [np.pi / 6, np.pi / 3, np.pi / 2, np.pi])
    def test_matches_naive_reference(self, seed, angle):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 12))
        azimuths = rng.uniform(0, TWO_PI, t)
        idx = np.arange(t)
        fast = {s.tasks for s in dominant_sets_from_arcs(idx, azimuths, angle)}
        naive = {s.tasks for s in dominant_sets_naive(idx, azimuths, angle)}
        assert fast == naive

    @pytest.mark.parametrize("seed", range(5))
    def test_every_coverable_set_dominated(self, seed):
        """Definition 4.1: every covered set ⊆ some dominant set."""
        rng = np.random.default_rng(100 + seed)
        t = 8
        angle = np.pi / 2
        azimuths = rng.uniform(0, TWO_PI, t)
        dominant = [s.tasks for s in extract(list(azimuths), angle)]
        starts = np.mod(azimuths - angle / 2, TWO_PI)
        for theta in rng.uniform(0, TWO_PI, 60):
            offset = np.mod(theta - starts, TWO_PI)
            covered = frozenset(np.flatnonzero(offset <= angle).tolist())
            if covered:
                assert any(covered <= d for d in dominant), (theta, covered)


class TestDominantSetContainer:
    def test_contains_and_len(self):
        ds = DominantSet(frozenset({1, 2}), 0.5)
        assert 1 in ds
        assert 3 not in ds
        assert len(ds) == 2
