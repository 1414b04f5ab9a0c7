"""Connected-component labeling of 3-D boolean masks.

A from-scratch union-find labeler with 6-connectivity (face
neighbours), the clustering step of the grid halo finder.  It works on
the foreground voxels alone: their ascending flat (C-order) indices are
its whole input (:func:`label_flat`), so its time and memory follow the
foreground, not the volume.  Face neighbours are found by sorted lookup
-- ``np.searchsorted`` of ``index + stride`` -- and the only
Python-level loop is over the unions of those neighbour pairs, never
over voxels.

The labels are the ones a dense scan of the whole box gives.  The
union-find is indexed by position in the ascending index list, so
position order is flat order; a union keeps the smaller id as the root,
so every component's root is its first voxel; and components are
numbered by root, that is, in first-voxel order.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class DisjointSet:
    """Array-based union-find with path compression (vectorized find)."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        # Path compression.
        while self.parent[x] != root:
            self.parent[x], x = root, int(self.parent[x])
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Attach the larger id under the smaller so labels stay stable.
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def roots(self) -> np.ndarray:
        """Resolve every element to its root (iterated pointer jumping)."""
        parent = self.parent.copy()
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand


def _union_neighbours(dsu: DisjointSet, flat: np.ndarray,
                      sources: np.ndarray, offset: int) -> None:
    """Union each voxel ``flat[s]``, *s* in *sources*, with the voxel at
    flat index ``flat[s] + offset`` wherever that one is foreground."""
    targets = flat[sources] + offset
    found = np.minimum(np.searchsorted(flat, targets), len(flat) - 1)
    hit = flat[found] == targets
    for a, b in zip(sources[hit].tolist(), found[hit].tolist()):
        dsu.union(a, b)


def label_flat(flat: np.ndarray, coords: Sequence[np.ndarray],
               shape: Tuple[int, int, int],
               periodic: bool = False) -> Tuple[np.ndarray, int]:
    """Label the 6-connected components of a sparse foreground.

    *flat* holds the foreground's ascending flat indices in a box of
    *shape*, and *coords* their ``np.unravel_index``.  Returns
    ``(component, n_components)``: ``component[i]`` in
    ``[0, n_components)`` numbers the component of voxel ``flat[i]``, in
    first-voxel order.  With ``periodic=True`` opposite faces are
    adjacent.  The pairs are unioned in a dense scan's order: per axis,
    each voxel with its successor, then the wrap pairs from the first
    plane to the last.
    """
    dsu = DisjointSet(len(flat))
    strides = (shape[1] * shape[2], shape[2], 1)
    for axis, (size, stride) in enumerate(zip(shape, strides)):
        coord = coords[axis]
        _union_neighbours(dsu, flat, np.flatnonzero(coord < size - 1), stride)
        if periodic and size > 1:
            _union_neighbours(dsu, flat, np.flatnonzero(coord == 0),
                              (size - 1) * stride)
    roots, component = np.unique(dsu.roots(), return_inverse=True)
    return component, len(roots)
