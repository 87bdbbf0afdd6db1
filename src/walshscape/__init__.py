"""Clustering categorical time series with Walsh-Fourier transforms,
first-order persistence landscapes, and divide-and-combine K-means.

The package namespace is lazy (PEP 562): `import walshscape` loads no
submodule, and the first access to a public name, such as
`walshscape.run_dcc` or `from walshscape import load_dataset`, imports only
that name's home module and caches the value here.  Submodules are reached
the same way (`from walshscape import series`).
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides; every submodule is also reachable by its name
_PUBLIC = {
    "dcc": "ClusterResult ProtocolError RoundMessage derive_seed elbow_sweep"
           " master_consensus run_dcc worker_round",
    "features": "build_features local_ranges reduce_global_range",
    "kmeans": "Assignment CentroidSet init_uniform lloyd",
    "series": "ARCHETYPES Dataset DatasetError archetype_template generate_synthetic load_dataset"
              " make_shard_plan save_dataset",
    "summarize": "composition_table minute_proportions",
    "tda": "PersistenceDiagram landscape_from_diagram landscape_grid sublevel_persistence",
    "wft": "fast_wft_batch next_pow2 walsh_matrix walsh_value",
    "cli": "",
    "wire": "",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_HOME)
_HOME.update((module, module) for module in _PUBLIC)


def __getattr__(name: str):
    """Import the home module of a public name or submodule, and cache the value."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
