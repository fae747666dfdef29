"""Reference implementations the equivalence suites check the program against.

Nothing here runs in production; each oracle is the plain formulation of a
quantity the program computes a faster way.
"""

from .dense import DenseObjective

__all__ = ["DenseObjective"]
