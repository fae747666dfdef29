"""Dominant task set extraction — paper Algorithm 1 (§4.1).

A charger can rotate continuously, but only the *set of tasks it covers*
matters to the objective, and among coverable sets only the maximal ones
("dominant task sets", Def. 4.1) need be considered: any non-maximal set is
weakly dominated by a superset with the same or larger marginal gain (the
objective is monotone).

Geometry: task ``j`` is coverable by charger ``i`` iff it is *receivable*
(distance ≤ D and the charger sits in the device's receiving sector — both
orientation-independent), and the charger orientation ``θ`` lies in the arc
of width ``A_s`` centred on the charger→task azimuth.  A set of tasks is
simultaneously coverable iff their arcs intersect, so dominant task sets are
the maximal "arc cliques".

The paper's rotate-until-a-task-drops procedure implies that every maximal
set is the covered set at the instant just before one of its members
rotates out of view, i.e. at the end angle of one of the arcs.
:func:`dominant_set_rows` probes the covered set at every arc end, then
every arc start (which guards configurations where two arcs touch within
the angular tolerance), for every charger of the fleet at once:

1. the probes of a chunk of chargers form one padded
   ``(chargers × 2T × T)`` coverage tensor, ``T`` the chunk's largest
   receivable count;
2. each distinct non-empty probe row is kept at its first appearance, and
   rows strictly contained in another row are dropped — both read off the
   rows' pairwise intersection counts;
3. each kept row's representative orientation is the midpoint of the arc
   intersection around its probe, from exact masked minima;
4. each charger's rows are stably sorted by orientation — the order the
   counter-clockwise rotation would emit them in.

Every step is element-wise IEEE arithmetic, an exact minimum, an integer
count (exact in float64) or a stable sort, so each charger's result equals
a one-charger sweep bit for bit and depends only on that charger's own
receivable tasks.  ``tests/oracles/coverage.py`` keeps that sweep, and a
dense-probe reference, to certify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ANGLE_EPS, TWO_PI, wrap_angle

__all__ = [
    "DominantSet",
    "coverage_arcs",
    "dominant_set_rows",
    "dominant_sets_from_arcs",
]

#: Upper bound on ``chargers × (2T)²`` — the element count of a chunk's
#: pairwise-intersection tensor, the largest temporary of the pass.
#: Chargers are chunked in order of receivable count, so one charger that
#: holds most tasks pads no one else; a charger above the bound alone
#: forms its own chunk.
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class DominantSet:
    """A maximal coverable task set with a representative orientation.

    ``tasks`` holds *task indices* (network-level ids), frozen for hashing.
    ``orientation`` is a charger orientation that covers exactly this set —
    chosen in the interior of the feasible arc intersection so downstream
    float comparisons are robust.
    """

    tasks: frozenset[int]
    orientation: float

    def __contains__(self, task_index: int) -> bool:
        return task_index in self.tasks

    def __len__(self) -> int:
        return len(self.tasks)


def coverage_arcs(
    azimuths: np.ndarray, charging_angle
) -> tuple[np.ndarray, float | np.ndarray]:
    """Arc starts for each receivable task plus the arc width.

    The arc of orientations covering the task at azimuth ``a`` is
    ``[a − A_s/2, a + A_s/2]`` (width ``A_s``, capped at ``2π``).  Returns
    ``(starts, width)`` with ``starts`` wrapped into ``[0, 2π)``; an array
    of apertures broadcasts against the azimuths.
    """
    az = np.asarray(azimuths, dtype=float)
    width = np.minimum(charging_angle, TWO_PI)
    starts = np.mod(az - width / 2.0, TWO_PI)
    return starts, width


def _mod_two_pi(diff: np.ndarray) -> np.ndarray:
    """``np.mod(diff, 2π)`` for differences of two angles in ``[0, 2π]``.

    On ``[-2π, 2π]`` the floored remainder is ``diff`` itself, ``diff + 2π``
    below zero, and ``0`` at ``2π`` — the same single IEEE addition
    ``np.mod`` makes there, without its general-case division.
    """
    out = np.where(diff < 0.0, diff + TWO_PI, diff)
    out[diff == TWO_PI] = 0.0
    return out


def _chunks(counts: np.ndarray):
    """``(start, stop)`` runs of ascending ``counts`` under the chunk bound."""
    start = 0
    for stop in range(1, counts.size + 1):
        if stop == counts.size or (
            (stop - start + 1) * (2 * int(counts[stop])) ** 2 > CHUNK_ELEMENTS
        ):
            yield start, stop
            start = stop


def _sweep_chunk(az, valid, widths, eps):
    """The probe sweep for one chunk of non-full chargers.

    ``az`` holds each charger's receivable azimuths in lanes ``0..t-1`` of
    a ``(C, T)`` array, ``valid`` marks those lanes.  Returns
    ``(charger, orientation, members)`` for the kept rows in chunk order:
    chunk-local charger index, representative orientation, and the
    ``(rows, T)`` covered-lane mask.
    """
    T = az.shape[1]
    starts, width = coverage_arcs(az, widths[:, None])
    ends = np.mod(starts + width, TWO_PI)
    probes = np.concatenate([ends, starts], axis=1)  # (C, 2T): ends first
    reach = widths + eps
    offset = _mod_two_pi(probes[:, :, None] - starts[:, None, :])
    cover = (offset <= reach[:, None, None]) | (offset >= TWO_PI - eps)
    cover &= valid[:, None, :]
    cover &= np.concatenate([valid, valid], axis=1)[:, :, None]

    # Row i ⊆ row j iff |i ∩ j| = |i|.  Row j outranks row i when it is
    # larger, or as large and probed earlier; i is kept iff it is not
    # empty and no row containing it outranks it — that drops both
    # non-maximal rows and repeats of an earlier row.
    size = cover.sum(axis=2)
    hits = cover.astype(float)
    inter = hits @ np.ascontiguousarray(hits.transpose(0, 2, 1))
    rank = size * (2 * T) - np.arange(2 * T)
    outranked = (inter == size[:, :, None]) & (rank[:, None, :] > rank[:, :, None])
    keep = (size > 0) & ~outranked.any(axis=2)

    # Representative orientation: every member arc contains the probe;
    # sliding back is limited by the latest member start, forward by the
    # earliest member end — take the midpoint of that residual interval.
    charger, probe = np.nonzero(keep)
    members = cover[charger, probe]
    back = offset[charger, probe]
    back = np.where(back > reach[charger, None], 0.0, back)
    lo = np.min(back, axis=1, where=members, initial=np.inf)
    hi = np.min(width[charger] - back, axis=1, where=members, initial=np.inf)
    orientation = wrap_angle(probes[charger, probe] + (hi - lo) / 2.0)
    return charger, orientation, members


def dominant_set_rows(
    azimuth: np.ndarray,
    receivable: np.ndarray,
    charging_angles: np.ndarray,
    *,
    eps: float = ANGLE_EPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every charger's dominant task sets, in one pass over the fleet.

    Parameters
    ----------
    azimuth, receivable:
        ``(n, m)`` charger→task azimuths and the receivable predicate.
    charging_angles:
        ``(n,)`` apertures ``A_s``.

    Returns ``(charger, orientation, cover)`` with one entry per dominant
    set: its charger, its representative orientation, and its ``(m,)``
    covered-task mask.  Rows are grouped by charger in ascending order and,
    within a charger, sorted by orientation (the order Algorithm 1's
    counter-clockwise rotation would emit them in).  A charger with no
    receivable task has no row; one with a full-circle aperture has one,
    covering all its tasks at orientation 0.
    """
    receivable = np.asarray(receivable, dtype=bool)
    n, m = receivable.shape
    widths = np.minimum(np.asarray(charging_angles, dtype=float), TWO_PI)
    owner, tasks = np.nonzero(receivable)  # each charger's tasks, ascending
    counts = np.bincount(owner, minlength=n)
    first = np.cumsum(counts) - counts
    full = (widths >= TWO_PI - eps) & (counts > 0)
    swept = np.flatnonzero(~full & (counts > 0))
    swept = swept[np.argsort(counts[swept], kind="stable")]

    chargers = [np.flatnonzero(full)]
    orientations = [np.zeros(chargers[0].size)]
    covers = [receivable[full]]
    for start, stop in _chunks(counts[swept]):
        ids = swept[start:stop]  # ascending count: the last is widest
        lanes = np.arange(counts[ids[-1]])
        valid = lanes < counts[ids][:, None]
        # Lane k of charger i holds its k-th receivable task; padded lanes
        # repeat the first nonzero entry and are masked by ``valid``.
        task = tasks[np.where(valid, first[ids][:, None] + lanes, 0)]
        local, orient, members = _sweep_chunk(
            azimuth[ids[:, None], task], valid, widths[ids], eps
        )
        cover = np.zeros((local.size, m), dtype=bool)
        row, lane = np.nonzero(members)
        cover[row, task[local[row], lane]] = True
        chargers.append(ids[local])
        orientations.append(orient)
        covers.append(cover)
    charger = np.concatenate(chargers)
    orientation = np.concatenate(orientations)
    order = np.lexsort((orientation, charger))
    return charger[order], orientation[order], np.concatenate(covers)[order]


def dominant_sets_from_arcs(
    task_indices: np.ndarray,
    azimuths: np.ndarray,
    charging_angle: float,
    *,
    eps: float = ANGLE_EPS,
) -> list[DominantSet]:
    """All dominant task sets of one charger.

    Parameters
    ----------
    task_indices:
        Network-level indices of the charger's *receivable* tasks, ``(t,)``,
        distinct.
    azimuths:
        Charger→task azimuths for those tasks, ``(t,)``.
    charging_angle:
        The charger's aperture ``A_s``.

    A one-charger call of :func:`dominant_set_rows`, sorted by
    representative orientation.  An empty task list yields an empty result
    — the caller is responsible for adding an idle policy.
    """
    idx = np.asarray(task_indices, dtype=int)
    az = np.asarray(azimuths, dtype=float).reshape(1, idx.size)
    _, orientation, cover = dominant_set_rows(
        az, np.ones(az.shape, dtype=bool), [charging_angle], eps=eps
    )
    return [
        DominantSet(frozenset(idx[row].tolist()), float(o))
        for row, o in zip(cover, orientation)
    ]
