"""Color sampling for TabularGreedy's expected-value objective.

TabularGreedy [54, 55] labels every chosen policy with a *color* from a
palette ``[C]`` and ultimately keeps, within each partition group, the item
whose color matches an independently uniformly drawn per-group color.  The
greedy therefore optimizes ``F(Q) = E_c[f(sample_c(Q))]``.

Evaluating that expectation exactly costs ``C^{#groups}`` — feasible only
for tiny instances — so production code estimates it by **common random
numbers**: a fixed matrix of ``S`` pre-drawn color vectors shared across all
candidate evaluations of one run.  CRN makes marginal comparisons within a
group exact *conditionally on the draws* (a candidate of color ``c`` only
affects the samples whose draw for that group equals ``c``), removes
comparison noise between candidates of the same color, and keeps the greedy
deterministic given a seed.

:class:`ColorSampler` encapsulates the draws; :func:`exact_color_average`
enumerates the expectation for tests to certify the estimator.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

__all__ = ["ColorSampler", "exact_color_average"]


class ColorSampler:
    """Pre-drawn per-group color samples with lookup by group key.

    Parameters
    ----------
    group_keys:
        Ordered group identifiers (one color per group per sample).
    num_colors:
        Palette size ``C``.
    num_samples:
        ``S`` — Monte Carlo sample count.  With ``C == 1`` a single sample
        is forced (the draw is deterministic) so the C = 1 path is exact.
    rng:
        Source of randomness; pass a seeded generator for reproducibility.
    """

    def __init__(
        self,
        group_keys: Sequence[Hashable],
        num_colors: int,
        num_samples: int,
        rng: np.random.Generator,
    ) -> None:
        if num_colors < 1:
            raise ValueError(f"num_colors must be >= 1, got {num_colors}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.group_keys = list(group_keys)
        self.num_colors = int(num_colors)
        self.num_samples = 1 if num_colors == 1 else int(num_samples)
        self._index = {g: pos for pos, g in enumerate(self.group_keys)}
        if len(self._index) != len(self.group_keys):
            raise ValueError("group_keys contains duplicates")
        # colors[s, g] ∈ [0, C): the color drawn for group g in sample s.
        self.colors = rng.integers(
            0, self.num_colors, size=(self.num_samples, len(self.group_keys))
        )

    def matching_samples(self, group: Hashable, color: int) -> np.ndarray:
        """Indices of samples whose draw for ``group`` equals ``color``."""
        if not (0 <= color < self.num_colors):
            raise ValueError(f"color {color} outside palette [0, {self.num_colors})")
        return np.flatnonzero(self.colors[:, self._index[group]] == color)

    def column(self, group: Hashable) -> np.ndarray:
        """All drawn colors for ``group``, shape ``(S,)``."""
        return self.colors[:, self._index[group]]

    def matches_by_color(self) -> list[list[np.ndarray]]:
        """All :meth:`matching_samples` lookups, precomputed in bulk.

        Returns ``out[c][g]`` = the ascending sample rows whose draw for the
        ``g``-th group equals color ``c`` — identical to
        ``matching_samples(group_keys[g], c)``.  One stable argsort over the
        color matrix replaces the per-visit ``flatnonzero`` calls of a sweep
        (``C × #groups`` of them), which matters at paper scale.  The sort
        runs per group along a row of the transposed matrix, so every row
        set is a C-contiguous ``intp`` slice — the layout the compiled
        kernels take as is.
        """
        order = np.argsort(self.colors.T, axis=1, kind="stable")  # (G, S)
        num_groups = len(self.group_keys)
        counts = np.empty((self.num_colors, num_groups), dtype=np.intp)
        for c in range(self.num_colors):
            counts[c] = (self.colors == c).sum(axis=0)
        ends = np.cumsum(counts, axis=0)
        starts, ends = (ends - counts).tolist(), ends.tolist()
        per_group = list(order)
        return [
            [row[a:b] for row, a, b in zip(per_group, starts[c], ends[c])]
            for c in range(self.num_colors)
        ]


def exact_color_average(
    value_of_assignment: Callable[[Mapping[Hashable, int]], float],
    group_keys: Sequence[Hashable],
    num_colors: int,
) -> float:
    """Exact ``E_c[v(c)]`` by enumerating all ``C^{#groups}`` color vectors.

    ``value_of_assignment`` receives a mapping group→color.  Exponential —
    used only in tests on tiny instances to validate the Monte Carlo path.
    """
    keys = list(group_keys)
    total = 0.0
    count = 0
    for combo in itertools.product(range(num_colors), repeat=len(keys)):
        total += value_of_assignment(dict(zip(keys, combo)))
        count += 1
    return total / max(count, 1)
