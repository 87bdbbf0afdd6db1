#!/usr/bin/env python3
"""Sublevel-set persistence and first-order landscapes, step by step.

Uses a small two-basin function to show births, merges, the elder rule,
and why the landscape of a sublevel diagram collapses to a closed form
driven only by the function's min and max.
"""

import numpy as np

from walshscape import landscape_from_diagram, landscape_grid, sublevel_persistence
from walshscape.tda import tent_rows

f = [0.0, 1.0, 0.5, 1.5, 0.5, 2.0]
print("=== Sublevel persistence of a two-basin function ===")
print("samples:", f)
print("""
Raising the threshold r grows the sublevel set {t : f(t) <= r}:
  r=0.0  the basin at t=0 is born (the oldest component)
  r=0.5  two more basins are born at t=2 and t=4
  r=1.0  the t=2 basin merges into the older one -> point (0.5, 1.0)
  r=1.5  the t=4 basin merges as well           -> point (0.5, 1.5)
  r=2.0  one component remains; the survivor is paired (0.0, 2.0)
""")
diagram = sublevel_persistence(f)
print("computed diagram:", sorted(map(tuple, diagram.points)))

print("\n=== The landscape only sees the dominating point ===")
grid_lo, grid_hi, length = 0.0, 2.0, 9
from_diagram = landscape_from_diagram(diagram, grid_lo, grid_hi, length)
closed = tent_rows(landscape_grid(grid_lo, grid_hi, length), [min(f)], [max(f)])[0]
print("grid:        ", np.linspace(grid_lo, grid_hi, length))
print("from diagram:", from_diagram)
print("closed form: ", closed)
print("identical:", bool(np.max(np.abs(from_diagram - closed)) < 1e-12))

print("""
Every (birth, death) of a sublevel diagram sits inside [min f, max f],
so the tent of (min f, max f) dominates all others pointwise.  That is
why the per-series feature only needs the WFT's min and max, and why a
random permutation of the samples leaves the landscape unchanged:
""")
rng = np.random.default_rng(1)
shuffled = rng.permutation(f)
d2 = sublevel_persistence(shuffled)
ls2 = landscape_from_diagram(d2, grid_lo, grid_hi, length)
print("shuffled samples:", shuffled.tolist())
print("same landscape:", bool(np.max(np.abs(ls2 - closed)) < 1e-12))
