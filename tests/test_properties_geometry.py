"""Property-based tests (hypothesis) for geometry and coverage invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.coverage import dominant_sets_naive
from repro.core.coverage import dominant_sets_from_arcs
from repro.core.geometry import (
    TWO_PI,
    Arc,
    angle_diff,
    arc_intersection_nonempty,
    common_orientation,
    wrap_angle,
)

angles = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
unit_angles = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)
widths = st.floats(min_value=1e-3, max_value=TWO_PI)


class TestWrapAngleProperties:
    @given(angles)
    def test_range(self, theta):
        w = wrap_angle(theta)
        assert 0.0 <= w < TWO_PI

    @given(angles)
    def test_idempotent(self, theta):
        w = wrap_angle(theta)
        assert abs(wrap_angle(w) - w) < 1e-12

    @given(angles)
    def test_congruent_modulo_two_pi(self, theta):
        w = wrap_angle(theta)
        assert abs(angle_diff(w, theta)) < 1e-6


class TestAngleDiffProperties:
    @given(angles, angles)
    def test_range(self, a, b):
        d = angle_diff(a, b)
        assert -np.pi - 1e-9 <= d <= np.pi + 1e-9

    @given(angles, angles)
    def test_antisymmetry(self, a, b):
        d1, d2 = angle_diff(a, b), angle_diff(b, a)
        # Antisymmetric except at exactly ±π where both sides give +π.
        assert abs(d1 + d2) < 1e-6 or abs(abs(d1) - np.pi) < 1e-6

    @given(angles)
    def test_self_is_zero(self, a):
        assert abs(angle_diff(a, a)) < 1e-12


class TestArcProperties:
    @given(unit_angles, widths)
    def test_start_and_end_contained(self, start, width):
        arc = Arc(start, width)
        assert arc.contains(arc.start)
        assert arc.contains(arc.end)

    @given(unit_angles, widths)
    def test_midpoint_contained(self, start, width):
        arc = Arc(start, width)
        assert arc.contains(arc.midpoint())

    @given(unit_angles, widths, unit_angles)
    def test_complement_consistency(self, start, width, theta):
        """A non-full arc and the point outside it disagree consistently
        with the offset arithmetic."""
        arc = Arc(start, width)
        if arc.is_full_circle:
            assert arc.contains(theta)
        else:
            offset = np.mod(theta - arc.start, TWO_PI)
            assert arc.contains(theta) == (
                offset <= arc.width + 1e-9 or offset >= TWO_PI - 1e-9
            )


class TestArcIntersectionProperties:
    @given(st.lists(st.tuples(unit_angles, widths), min_size=1, max_size=5))
    def test_common_orientation_is_witness(self, arc_specs):
        arcs = [Arc(s, w) for s, w in arc_specs]
        theta = common_orientation(arcs)
        if theta is None:
            assert not arc_intersection_nonempty(arcs)
        else:
            assert all(a.contains(theta, eps=1e-6) for a in arcs)

    @given(unit_angles, widths)
    def test_single_arc_always_intersects(self, start, width):
        assert arc_intersection_nonempty([Arc(start, width)])


class TestDominantSetProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(unit_angles, min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=TWO_PI),
    )
    def test_sweep_equals_naive(self, azimuths, angle):
        idx = np.arange(len(azimuths))
        # Quantize so the fuzzer cannot construct arcs that touch within
        # the sub-epsilon (< 1e-9 rad) angular tolerance — a measure-zero
        # configuration where "equal" is ill-defined for both algorithms.
        az = np.round(np.asarray(azimuths), 6)
        angle = round(angle, 6)
        fast = {s.tasks for s in dominant_sets_from_arcs(idx, az, angle)}
        naive = {s.tasks for s in dominant_sets_naive(idx, az, angle)}
        assert fast == naive

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(unit_angles, min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=TWO_PI),
    )
    def test_maximality_and_coverage(self, azimuths, angle):
        idx = np.arange(len(azimuths))
        az = np.asarray(azimuths)
        sets = dominant_sets_from_arcs(idx, az, angle)
        families = [s.tasks for s in sets]
        # Pairwise non-containment (Definition 4.1).
        for a in families:
            for b in families:
                if a is not b:
                    assert not a < b
        # Completeness: every task belongs to at least one dominant set.
        assert set().union(*families) == set(range(len(azimuths)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(unit_angles, min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=np.pi),
    )
    def test_representative_orientation_covers_exactly(self, azimuths, angle):
        idx = np.arange(len(azimuths))
        az = np.asarray(azimuths)
        for ds in dominant_sets_from_arcs(idx, az, angle):
            arcs = [Arc(az[j] - angle / 2, angle) for j in ds.tasks]
            assert all(a.contains(ds.orientation, eps=1e-6) for a in arcs)
