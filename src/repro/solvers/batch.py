"""Batch construction: padding, masking, and content-addressed digests.

The batched kernels (:class:`~repro.objective.haste.BatchedCharger`, the
drivers in :mod:`repro.offline.batched`) stack ragged per-instance arrays
into dense padded tensors.  This module holds the generic plumbing those
layers and the serve layer share:

* :func:`pack_padded` / :func:`unpack_padded` — lossless ragged-to-padded
  round trip for same-rank arrays (each axis padded to the batch maximum);
* :func:`pad_mask` — the boolean validity mask matching a packed tensor;
* :class:`InstanceBatch` — an ordered bundle of
  :class:`~repro.solvers.instance.Instance` objects whose :meth:`digest`
  is a content address over the *multiset* of member ``content_hash``es:
  two batches with the same instances in any order share one digest (the
  property suite pins this), so batch-level provenance keys stay stable
  under the engine's nondeterministic coalescing order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .instance import Instance

__all__ = [
    "InstanceBatch",
    "multiset_digest",
    "pack_padded",
    "unpack_padded",
    "pad_mask",
]


def pack_padded(
    arrays: Sequence[np.ndarray], *, fill=0
) -> tuple[np.ndarray, np.ndarray]:
    """Stack same-rank ragged arrays into one padded tensor.

    Returns ``(packed, shapes)`` where ``packed`` has shape
    ``(B, d1_max, …, dr_max)`` with every lane outside a member's true
    extent set to ``fill``, and ``shapes`` is the ``(B, r)`` int array of
    true per-member shapes — exactly what :func:`unpack_padded` needs to
    reverse the operation losslessly.
    """
    arrs = [np.asarray(a) for a in arrays]
    if not arrs:
        raise ValueError("pack_padded needs at least one array")
    rank = arrs[0].ndim
    if any(a.ndim != rank for a in arrs):
        raise ValueError("all arrays must share one rank")
    shapes = np.array([a.shape for a in arrs], dtype=np.int64).reshape(
        len(arrs), rank
    )
    dims = tuple(int(d) for d in shapes.max(axis=0)) if rank else ()
    dtype = np.result_type(*arrs)
    packed = np.full((len(arrs),) + dims, fill, dtype=dtype)
    for b, a in enumerate(arrs):
        packed[(b,) + tuple(slice(0, s) for s in a.shape)] = a
    return packed, shapes


def unpack_padded(
    packed: np.ndarray, shapes: np.ndarray
) -> list[np.ndarray]:
    """Recover the original ragged arrays from :func:`pack_padded` output.

    Returns views into ``packed`` (copy if you mutate).
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    if shapes.ndim != 2 or shapes.shape[0] != packed.shape[0]:
        raise ValueError(
            f"shapes must be ({packed.shape[0]}, rank), got {shapes.shape}"
        )
    return [
        packed[(b,) + tuple(slice(0, int(s)) for s in row)]
        for b, row in enumerate(shapes)
    ]


def pad_mask(shapes: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Boolean validity mask ``(B, *dims)``: True on real lanes, False on pad.

    ``shapes`` is the ``(B, r)`` array :func:`pack_padded` returned; a lane
    is valid iff its index is inside the member's true extent on every axis.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    B, rank = shapes.shape
    if len(dims) != rank:
        raise ValueError(f"dims must have {rank} entries, got {len(dims)}")
    mask = np.ones((B,) + tuple(int(d) for d in dims), dtype=bool)
    for axis in range(rank):
        idx = np.arange(int(dims[axis]))
        valid = idx[None, :] < shapes[:, axis][:, None]  # (B, d_axis)
        shape = [B] + [1] * rank
        shape[1 + axis] = int(dims[axis])
        mask &= valid.reshape(shape)
    return mask


@dataclass(frozen=True)
class InstanceBatch:
    """An ordered bundle of instances with an order-independent digest."""

    instances: tuple[Instance, ...]

    @classmethod
    def from_instances(cls, instances: Iterable[Instance]) -> "InstanceBatch":
        return cls(instances=tuple(instances))

    def __len__(self) -> int:
        return len(self.instances)

    def content_hashes(self) -> tuple[str, ...]:
        """Per-member content hashes, in batch order."""
        return tuple(inst.content_hash() for inst in self.instances)

    def digest(self) -> str:
        """Content address of the batch as a *multiset* of instances.

        Any permutation of the same instances digests identically; any
        change to a member's payload changes the digest.
        """
        return multiset_digest(self.content_hashes())


def multiset_digest(content_hashes: Iterable[str]) -> str:
    """:meth:`InstanceBatch.digest` from the members' content hashes."""
    h = hashlib.sha256()
    for ch in sorted(content_hashes):
        h.update(ch.encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()
