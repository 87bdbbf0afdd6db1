#!/usr/bin/env python3
"""End-to-end clustering of planted daily activity patterns.

Synthesizes three archetypes (in-home, night-discretionary, home-and-work),
runs the divide-and-combine protocol across four workers, sweeps K for the
elbow, and summarizes the clusters.  Saves the WCSS-vs-K curve to
elbow.png when matplotlib is available.
"""

import numpy as np

from walshscape import (
    ARCHETYPES,
    archetype_template,
    composition_table,
    elbow_sweep,
    generate_synthetic,
    minute_proportions,
    run_dcc,
)

print("=== Planting three daily archetypes ===")
for arch in ARCHETYPES:
    template = archetype_template(arch, 48)  # 30-minute resolution for display
    print(f"{arch}: {''.join(str(v) for v in template)}")

dataset = generate_synthetic(n_per_archetype=300, t=1440, noise=0.05, seed=7)
print(f"\n{dataset.N} series of T={dataset.T} minutes, J={dataset.J} levels")

print("\n=== Divide-and-combine K-means across 4 workers ===")
result = run_dcc(dataset, k=3, s=4, length=100, seed=7)
print(f"rounds used: {result.rounds_used}, converged: {result.converged}")
print(f"total WCSS: {result.wcss:.2f} "
      f"(features {result.feature_seconds:.2f}s, K-means {result.kmeans_seconds:.2f}s)")

truth = np.array(dataset.attributes["truth"])
print("\ncluster sizes and planted composition:")
for cluster in (1, 2, 3):
    members = truth[result.labels == cluster]
    counts = {arch: int((members == arch).sum()) for arch in ARCHETYPES}
    print(f"  cluster {cluster}: {len(members):4d} series  {counts}")

print("\n=== Model selection: sweep K and look for the elbow ===")
points = elbow_sweep(dataset, [2, 3, 4, 5], s=4, length=100, seed=7)
for p in points:
    print(f"  K={p.K}: WCSS={p.wcss:12.1f}  ({p.feature_seconds:.2f}s FE + {p.kmeans_seconds:.2f}s K-means)")
drops = [(points[i].K, points[i].wcss - points[i + 1].wcss) for i in range(len(points) - 1)]
print("marginal WCSS drops:", ", ".join(f"{k}->{k + 1}: {d:.1f}" for k, d in drops))
print("the curve flattens after K=3, matching the three planted archetypes")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot([p.K for p in points], [p.wcss for p in points], "o-")
    ax.set_xlabel("number of clusters K")
    ax.set_ylabel("total WCSS")
    ax.set_xticks([p.K for p in points])
    fig.tight_layout()
    fig.savefig("elbow.png", dpi=120)
    print("saved elbow.png")
except ImportError:
    print("matplotlib not installed; skipping elbow.png")

print("\n=== Summaries ===")
proportions = minute_proportions(dataset, result.labels, k=3)
for cluster, table in proportions.items():
    daytime_out = table[600:900, 2].mean()  # share at level 2 around midday
    print(f"  cluster {cluster}: mean midday out-of-home share = {daytime_out:.2f}")

composition = composition_table(dataset, result.labels, k=3, attribute="truth")
print("\nweighted composition by planted archetype (share within archetype):")
for cluster, value, share in zip(composition["clusters"], composition["values"],
                                 composition["share_within_value"]):
    print(f"  cluster {cluster} x {value}: {share:.3f}")
