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
g.  `tent_rows` is the one implementation of that tent: both
`landscape_closed_form` and the feature pipeline call it.  The
diagram-based form serves as the correctness oracle for it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wft import SeriesRange


@dataclass(frozen=True)
class PersistenceDiagram:
    """Finite multiset of (birth, death) pairs, stored as an (m, 2) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        if len(pts) and np.any(pts[:, 0] > pts[:, 1]):
            raise ValueError("every point must satisfy birth <= death")
        object.__setattr__(self, "points", pts)

    @property
    def births(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def deaths(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Landscape:
    """First-order persistence landscape sampled on a uniform grid.

    samples[l] is the landscape value at g(l) = D_min + l*(D_max-D_min)/(L-1)
    for l = 0..L-1.  Samples are non-negative and 1-Lipschitz with respect
    to the grid spacing.
    """

    samples: np.ndarray
    D_min: float
    D_max: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    @property
    def L(self) -> int:
        return len(self.samples)


def landscape_grid(d_min: float, d_max: float, length: int) -> np.ndarray:
    """Uniform evaluation grid with `length` points spanning [d_min, d_max]."""
    if length < 2:
        raise ValueError("grid needs at least two points")
    if not d_min < d_max:
        raise ValueError("grid bounds must satisfy d_min < d_max")
    steps = np.arange(length, dtype=np.float64)
    return d_min + steps * (d_max - d_min) / (length - 1)


def tent_rows(grid: np.ndarray, mins, maxs) -> np.ndarray:
    """Row i is the tent min(g - mins[i], maxs[i] - g)_+ on the grid g."""
    rows = np.minimum(grid - np.reshape(mins, (-1, 1)), np.reshape(maxs, (-1, 1)) - grid)
    return np.maximum(rows, 0.0, out=rows)


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
) -> Landscape:
    """First-order landscape of a diagram: max_i min(g - b_i, d_i - g)_+ on the grid.

    An empty diagram yields the all-zero landscape.
    """
    grid = landscape_grid(d_min, d_max, length)
    if len(diagram) == 0:
        return Landscape(samples=np.zeros(length), D_min=d_min, D_max=d_max)
    births = diagram.births[:, None]
    deaths = diagram.deaths[:, None]
    tents = np.minimum(grid[None, :] - births, deaths - grid[None, :])
    samples = np.maximum(tents.max(axis=0), 0.0)
    return Landscape(samples=samples, D_min=d_min, D_max=d_max)


def landscape_closed_form(
    r: SeriesRange, d_min: float, d_max: float, length: int
) -> Landscape:
    """First-order landscape of a sublevel diagram directly from its value range.

    Valid whenever the diagram comes from a sublevel filtration whose
    extreme point (r.d_min, r.d_max) dominates all others:

        samples[l] = min(g(l) - r.d_min, r.d_max - g(l))_+

    Args:
        r: componentwise min/max of the transformed series.
        d_min, d_max: grid bounds; must enclose [r.d_min, r.d_max].
        length: number of grid points (>= 2).

    Raises:
        ValueError: if the grid does not enclose the series range.
    """
    grid = landscape_grid(d_min, d_max, length)
    if not (d_min <= r.d_min and r.d_max <= d_max):
        raise ValueError(
            f"series range [{r.d_min}, {r.d_max}] lies outside grid bounds [{d_min}, {d_max}]"
        )
    return Landscape(samples=tent_rows(grid, [r.d_min], [r.d_max])[0], D_min=d_min, D_max=d_max)
