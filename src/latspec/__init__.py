"""latspec: subgroup lattices, non-permutability graphs, and their spectral invariants.

For a finite permutation group this package computes the full subgroup
lattice, the non-permutability graph of subgroups, adjacency and Laplacian
spectra, Möbius values on lattice intervals, and the subgroup commutativity
degree and factorization number by several independent routes that are
cross-verified exactly.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    LatspecError,
    NumericError,
    SizeError,
)
from .perm import (
    FiniteGroup,
    Permutation,
    compose,
    element_order,
    format_generators,
    generate_group,
    parse_generators,
    parse_permutation,
)

__all__ = [
    "ConsistencyError",
    "DomainError",
    "InputError",
    "LatspecError",
    "NumericError",
    "SizeError",
    "FiniteGroup",
    "Permutation",
    "compose",
    "element_order",
    "format_generators",
    "generate_group",
    "parse_generators",
    "parse_permutation",
    "__version__",
]


def __getattr__(name):
    # heavier modules (numpy-dependent) are reachable lazily:
    # latspec.lattice, latspec.graph, latspec.spectral, latspec.degrees,
    # latspec.closed_forms, latspec.catalog, latspec.cache, latspec.cli
    import importlib

    if name in ("lattice", "graph", "spectral", "degrees", "closed_forms",
                "catalog", "cache", "cli"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
