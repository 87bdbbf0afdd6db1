"""Sublevel-set persistence of sampled functions and first-order landscapes.

The persistence diagram of a sampled real function is computed from the
sublevel filtration {t : f(t) <= r}: connected components are born at
local minima and die when they merge at saddles, the younger dying first
(elder rule).  The component born at the global minimum survives every
merge and is paired with the global maximum.

Because the diagram of a sublevel filtration always contains the point
(min f, max f) dominating every other point, the first-order landscape

    PL(l) = max_i min(g(l) - b_i, d_i - g(l))_+

reduces to the closed form min(g(l) - d_min, d_max - g(l))_+ on the grid
g.  `tent_rows` is the one implementation of that tent, one row per
(min, max) pair, and the feature pipeline calls it; one function's
landscape is `tent_rows(landscape_grid(lo, hi, L), [f.min()], [f.max()])[0]`.
`sublevel_persistence` and the diagram-based `landscape_from_diagram` are
its correctness oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PersistenceDiagram:
    """Finite multiset of (birth, death) pairs, stored as an (m, 2) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        if len(pts) and np.any(pts[:, 0] > pts[:, 1]):
            raise ValueError("every point must satisfy birth <= death")
        object.__setattr__(self, "points", pts)


def landscape_grid(d_min: float, d_max: float, length: int) -> np.ndarray:
    """Uniform evaluation grid with `length` points spanning [d_min, d_max]."""
    if length < 2:
        raise ValueError("grid needs at least two points")
    if not d_min < d_max:
        raise ValueError("grid bounds must satisfy d_min < d_max")
    steps = np.arange(length, dtype=np.float64)
    return d_min + steps * (d_max - d_min) / (length - 1)


def tent_rows(grid: np.ndarray, mins, maxs) -> np.ndarray:
    """Row i is the tent min(g - mins[i], maxs[i] - g)_+ on the grid g.

    The rows start on a 64-byte boundary, so the time of the passes that
    read them does not depend on where the heap happened to put them.
    """
    mins, maxs = np.reshape(mins, (-1, 1)), np.reshape(maxs, (-1, 1))
    rows = _aligned_empty((len(mins), len(grid)))
    np.subtract(grid, mins, out=rows)
    np.minimum(rows, maxs - grid, out=rows)
    return np.maximum(rows, 0.0, out=rows)


def _aligned_empty(shape: tuple[int, int], align: int = 64) -> np.ndarray:
    """Uninitialized C-ordered float64 array whose data starts on an `align`-byte boundary."""
    nbytes = shape[0] * shape[1] * 8
    raw = np.empty(nbytes + align, dtype=np.uint8)
    offset = -raw.ctypes.data % align
    return raw[offset : offset + nbytes].view(np.float64).reshape(shape)


def sublevel_persistence(f) -> PersistenceDiagram:
    """0-dimensional persistence of the sublevel filtration of a sampled function.

    Samples are swept in increasing (value, index) order with a union-find
    over the 1-D adjacency; a sample that bridges two live components kills
    the younger one (ties broken toward the lower birth index).  Runs of
    equal consecutive samples act as a single sample, so plateaus emit no
    zero-persistence points.  The surviving component is paired with the
    global maximum.

    Args:
        f: real sequence of length >= 1 with finite values.

    Returns:
        PersistenceDiagram sorted by (birth, death).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("expected a non-empty 1-D sequence")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples must be finite")

    # collapse plateaus: consecutive equal samples belong to one component
    keep = np.ones(len(f), dtype=bool)
    keep[1:] = f[1:] != f[:-1]
    v = f[keep]
    m = len(v)

    order = np.argsort(v, kind="stable")
    parent = np.full(m, -1, dtype=np.int64)  # -1 marks not-yet-active samples
    birth_val = np.empty(m, dtype=np.float64)
    birth_idx = np.empty(m, dtype=np.int64)
    points: list[tuple[float, float]] = []

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in order:
        val = v[i]
        roots = []
        for nb in (i - 1, i + 1):
            if 0 <= nb < m and parent[nb] != -1:
                r = find(nb)
                if r not in roots:
                    roots.append(r)
        if not roots:
            parent[i] = i
            birth_val[i] = val
            birth_idx[i] = i
            continue
        # joining an existing component births nothing; a bridge between two
        # components kills the younger (larger (birth value, birth index))
        roots.sort(key=lambda r: (birth_val[r], birth_idx[r]))
        oldest = roots[0]
        parent[i] = oldest
        for r in roots[1:]:
            points.append((float(birth_val[r]), float(val)))
            parent[r] = oldest

    points.append((float(v.min()), float(v.max())))
    points.sort()
    return PersistenceDiagram(points=np.array(points, dtype=np.float64).reshape(-1, 2))


def landscape_from_diagram(
    diagram: PersistenceDiagram, d_min: float, d_max: float, length: int
) -> np.ndarray:
    """First-order landscape of a diagram: the (length,) float64 samples of
    max_i min(g - b_i, d_i - g)_+ on the grid `landscape_grid(d_min, d_max, length)`.

    An empty diagram yields the all-zero landscape.
    """
    grid = landscape_grid(d_min, d_max, length)
    births, deaths = diagram.points[:, :1], diagram.points[:, 1:]
    return np.minimum(grid - births, deaths - grid).max(axis=0, initial=0.0)

