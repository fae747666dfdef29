"""Charging utility functions (paper §3.2 and the concave extension of §1.3).

The paper's utility for a task is *linear and bounded*:

```
U(x) = min(x / E_j, 1)
```

i.e. proportional to harvested energy up to the required energy ``E_j``,
saturating at 1.  Every theoretical result in the paper only uses two
properties of ``U``: it is non-decreasing and concave with ``U(0) = 0``
(concavity is what makes the HASTE-R objective submodular, Lemma 4.2, and
what bounds the switching/rescheduling losses, Thms 5.1/6.1).  The paper
explicitly notes the results extend to general concave utilities, so this
module exposes an abstract :class:`UtilityFunction` plus the paper's
:class:`LinearBoundedUtility` and two concave alternatives used by the
extension experiments.

Implementations must be vectorized: ``__call__`` accepts arrays of energies
and broadcasts.  The scheduling hot path calls ``gain(current, added)``
(= ``U(current+added) − U(current)``) on ``(policies × tasks)`` blocks,
each over one charger's receivable tasks, so every utility also implements
``restrict(cols)`` — the same utility over a task subset.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "UtilityFunction",
    "LinearBoundedUtility",
    "LogUtility",
    "PowerLawUtility",
]


class UtilityFunction(ABC):
    """A normalized non-decreasing concave utility of harvested energy.

    ``U`` maps energy (J) into ``[0, 1]``-ish utility units; the required
    energy of the task parameterizes each instance, so networks hold one
    utility object per task (see :meth:`LinearBoundedUtility.for_tasks`).
    """

    @abstractmethod
    def __call__(self, energy):
        """Utility at ``energy`` (vectorized)."""

    def gain(self, current, added):
        """Marginal utility ``U(current + added) − U(current)`` (vectorized).

        Subclasses may override with a closed form; the default composes two
        evaluations.
        """
        return self(np.asarray(current, dtype=float) + np.asarray(added, dtype=float)) - self(
            current
        )

    @abstractmethod
    def restrict(self, cols) -> "UtilityFunction":
        """The same utility over the task subset ``cols``.

        The scheduling kernels evaluate marginal gains only on the columns
        a charger can reach, so the restricted utility must accept energy
        vectors of length ``len(cols)`` and evaluate exactly like the full
        utility does on those columns.
        """

    def is_concave_on(self, grid) -> bool:
        """Empirical concavity check on a grid — used by property tests."""
        g = np.sort(np.asarray(grid, dtype=float))
        if g.size < 3:
            return True
        vals = self(g)
        d1 = np.diff(vals) / np.maximum(np.diff(g), 1e-300)
        return bool(np.all(np.diff(d1) <= 1e-9))


class LinearBoundedUtility(UtilityFunction):
    """The paper's Eq. (1): ``U(x) = min(x / E, 1)`` per task.

    Holds a vector of required energies so a single instance serves a whole
    network; calling it with an energy vector of the same length evaluates
    every task at once.
    """

    def __init__(self, required_energy) -> None:
        e = np.atleast_1d(np.asarray(required_energy, dtype=float))
        if np.any(e <= 0):
            raise ValueError("required_energy entries must be positive")
        self.required_energy = e

    @classmethod
    def for_tasks(cls, tasks) -> "LinearBoundedUtility":
        """Build from a sequence of :class:`~repro.core.task.ChargingTask`."""
        return cls([t.required_energy for t in tasks])

    def __call__(self, energy):
        x = np.asarray(energy, dtype=float)
        return np.minimum(x / self.required_energy, 1.0)

    def gain(self, current, added):
        cur = np.asarray(current, dtype=float)
        add = np.asarray(added, dtype=float)
        return np.minimum((cur + add) / self.required_energy, 1.0) - np.minimum(
            cur / self.required_energy, 1.0
        )

    def restrict(self, cols) -> "LinearBoundedUtility":
        if self.required_energy.size == 1:
            return type(self)(self.required_energy)
        return type(self)(self.required_energy[np.asarray(cols, dtype=int)])


class LogUtility(UtilityFunction):
    """Smooth concave alternative ``U(x) = log(1 + x/E) / log 2`` (so ``U(E)=1``).

    Exercises the paper's claim that the framework holds for any concave
    utility: unlike the linear-bounded form it never saturates, so schedules
    keep spreading energy across tasks.
    """

    def __init__(self, required_energy) -> None:
        e = np.atleast_1d(np.asarray(required_energy, dtype=float))
        if np.any(e <= 0):
            raise ValueError("required_energy entries must be positive")
        self.required_energy = e

    @classmethod
    def for_tasks(cls, tasks) -> "LogUtility":
        return cls([t.required_energy for t in tasks])

    def __call__(self, energy):
        x = np.asarray(energy, dtype=float)
        return np.log1p(np.maximum(x, 0.0) / self.required_energy) / np.log(2.0)

    def restrict(self, cols) -> "LogUtility":
        if self.required_energy.size == 1:
            return type(self)(self.required_energy)
        return type(self)(self.required_energy[np.asarray(cols, dtype=int)])


class PowerLawUtility(UtilityFunction):
    """Concave power law ``U(x) = min((x/E)^γ, 1)`` with ``0 < γ ≤ 1``.

    ``γ = 1`` recovers the paper's linear-bounded utility exactly.
    """

    def __init__(self, required_energy, gamma: float = 0.5) -> None:
        if not (0.0 < gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        e = np.atleast_1d(np.asarray(required_energy, dtype=float))
        if np.any(e <= 0):
            raise ValueError("required_energy entries must be positive")
        self.required_energy = e
        self.gamma = float(gamma)

    @classmethod
    def for_tasks(cls, tasks, gamma: float = 0.5) -> "PowerLawUtility":
        return cls([t.required_energy for t in tasks], gamma=gamma)

    def __call__(self, energy):
        x = np.maximum(np.asarray(energy, dtype=float), 0.0)
        return np.minimum(np.power(x / self.required_energy, self.gamma), 1.0)

    def restrict(self, cols) -> "PowerLawUtility":
        if self.required_energy.size == 1:
            return type(self)(self.required_energy, gamma=self.gamma)
        return type(self)(
            self.required_energy[np.asarray(cols, dtype=int)], gamma=self.gamma
        )
