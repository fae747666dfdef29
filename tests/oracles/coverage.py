"""Per-charger reference for dominant task set extraction (Algorithm 1).

:func:`repro.core.coverage.dominant_set_rows` finds every charger's
dominant task sets in one whole-fleet NumPy pass.  This module keeps the
plain formulations it is certified against:

* :func:`dominant_sets_sweep` — the per-charger sweep: probe the covered
  set at every arc end, then every arc start, keep each new set at its
  first probe with its representative orientation, drop non-maximal sets,
  sort by orientation.  The fleet pass must equal it bit for bit;
* :func:`dominant_sets_naive` — a denser probe of every arc start, end and
  pairwise midpoint, which sees every distinct coverable set;
* :func:`reference_policies` — the per-charger, per-policy layout of a
  network's policy arrays from the sweep's sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.coverage import DominantSet, coverage_arcs
from repro.core.geometry import ANGLE_EPS, TWO_PI, wrap_angle


def _covered_at(theta: float, starts: np.ndarray, width: float, eps: float) -> np.ndarray:
    """Boolean mask of arcs containing orientation ``theta`` (closed arcs)."""
    if width >= TWO_PI - eps:
        return np.ones_like(starts, dtype=bool)
    offset = np.mod(theta - starts, TWO_PI)
    return (offset <= width + eps) | (offset >= TWO_PI - eps)


def _representative_orientation(
    theta0: float, member_starts: np.ndarray, width: float, eps: float
) -> float:
    """Interior point of the intersection of member arcs around ``theta0``.

    Every member arc contains ``theta0``; sliding backward is limited by the
    latest member start, forward by the earliest member end.  Returns the
    midpoint of the residual interval.
    """
    if width >= TWO_PI - eps or member_starts.size == 0:
        return float(wrap_angle(theta0))
    back = np.mod(theta0 - member_starts, TWO_PI)
    # Guard arcs that contain theta0 through the wrap-around closure.
    back = np.where(back > width + eps, 0.0, back)
    fwd = width - back
    lo = float(np.min(back))
    hi = float(np.min(fwd))
    return float(wrap_angle(theta0 + (hi - lo) / 2.0))


def _maximal_sorted(candidates: dict[frozenset[int], float]) -> list[DominantSet]:
    sets = list(candidates.items())
    maximal = [
        DominantSet(members, rep)
        for members, rep in sets
        if not any(members < other for other, _ in sets)
    ]
    maximal.sort(key=lambda d: d.orientation)
    return maximal


def dominant_sets_sweep(
    task_indices: np.ndarray,
    azimuths: np.ndarray,
    charging_angle: float,
    *,
    eps: float = ANGLE_EPS,
) -> list[DominantSet]:
    """One charger's dominant sets by the per-charger probe sweep."""
    idx = np.asarray(task_indices, dtype=int)
    if idx.size == 0:
        return []
    starts, width = coverage_arcs(azimuths, charging_angle)
    width = float(width)
    if width >= TWO_PI - eps:
        return [DominantSet(frozenset(int(i) for i in idx), 0.0)]
    candidates: dict[frozenset[int], float] = {}
    ends = np.mod(starts + width, TWO_PI)
    for theta0 in np.concatenate([ends, starts]):
        mask = _covered_at(float(theta0), starts, width, eps)
        members = frozenset(int(i) for i in idx[mask])
        if not members or members in candidates:
            continue
        candidates[members] = _representative_orientation(
            float(theta0), starts[mask], width, eps
        )
    return _maximal_sorted(candidates)


def dominant_sets_naive(
    task_indices: np.ndarray,
    azimuths: np.ndarray,
    charging_angle: float,
    *,
    eps: float = ANGLE_EPS,
) -> list[DominantSet]:
    """Probe every arc start, end, and pairwise midpoint.

    The covered-set function is piecewise constant with breakpoints exactly
    at arc endpoints, so this enumeration sees every distinct coverable
    set.  Quadratic; it certifies which sets are dominant, not the
    representative orientations.
    """
    idx = np.asarray(task_indices, dtype=int)
    if idx.size == 0:
        return []
    starts, width = coverage_arcs(azimuths, charging_angle)
    width = float(width)
    if width >= TWO_PI - eps:
        return [DominantSet(frozenset(int(i) for i in idx), 0.0)]
    ends = np.mod(starts + width, TWO_PI)
    probes = list(np.concatenate([starts, ends]))
    breakpoints = sorted(set(float(b) for b in np.concatenate([starts, ends])))
    for a, b in zip(breakpoints, breakpoints[1:] + [breakpoints[0] + TWO_PI]):
        probes.append(wrap_angle((a + b) / 2.0))

    seen: dict[frozenset[int], float] = {}
    for theta in probes:
        mask = _covered_at(float(theta), starts, width, eps)
        members = frozenset(int(i) for i in idx[mask])
        if members and members not in seen:
            seen[members] = _representative_orientation(float(theta), starts[mask], width, eps)
    return _maximal_sorted(seen)


def reference_policies(network) -> dict:
    """A network's policy arrays laid out per charger and per policy.

    Returns the attributes :meth:`ChargerNetwork._build_policies` sets,
    under the same names, built from :func:`dominant_sets_sweep`.
    """
    ref: dict = {
        name: []
        for name in (
            "dominant_sets",
            "cover_masks",
            "policy_power",
            "policy_orientations",
            "policy_tasks",
            "sparse_cover",
            "sparse_power",
        )
    }
    for i in range(network.n):
        receivable_idx = np.flatnonzero(network.receivable[i])
        sets = dominant_sets_sweep(
            receivable_idx,
            network.azimuth[i, receivable_idx],
            network.chargers[i].charging_angle,
        )
        p = len(sets) + 1
        cover = np.zeros((p, network.m), dtype=bool)
        orient = np.full(p, np.nan)
        for row, ds in enumerate(sets, start=1):
            cover[row, list(ds.tasks)] = True
            orient[row] = ds.orientation
        sparse = cover[:, receivable_idx]
        ref["dominant_sets"].append(sets)
        ref["cover_masks"].append(cover)
        ref["policy_power"].append(cover * network.power[i][None, :])
        ref["policy_orientations"].append(orient)
        ref["policy_tasks"].append(receivable_idx)
        ref["sparse_cover"].append(sparse)
        ref["sparse_power"].append(sparse * network.power[i][receivable_idx][None, :])
    sizes = np.array(
        [s.shape[0] * s.shape[1] for s in ref["sparse_cover"]], dtype=np.int64
    )
    ref["policy_offsets"] = np.concatenate([[0], np.cumsum(sizes)])
    ref["policy_power_flat"] = (
        np.concatenate([s.ravel() for s in ref["sparse_power"]])
        if ref["sparse_power"]
        else np.empty(0)
    )
    return ref
