"""The non-permutability graph of subgroups and its dense matrix forms.

Vertices are the lattice members outside the permuting core, in lattice
canonical order; two vertices H, K are joined exactly when HK != KH. The
adjacency is the complement of the lattice's permutability matrix
(`SubgroupLattice.permutability`, the lattice-order test
|H join K| * |H meet K| = |H| * |K|, exact on a join-closed lattice) with
the core rows and columns taken off. The graph stores it as a read-only
boolean array: the edge list walks it, the spectra's blocks are read off its
rows (`degrees`), and only `graph --matrix` forms the dense float matrices.
Quasihamiltonian groups give the null graph. Isolated vertices are kept:
lying outside the core does not force a vertex to have an edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .lattice import SubgroupLattice


@dataclass(frozen=True)
class DenseSymMatrix:
    """A square matrix stored dense, meant real symmetric or complex
    Hermitian: a graph's integer adjacency or Laplacian for `graph --matrix`,
    or any matrix for the eigensolver, which reads only its `data` (lazy
    blocks from `degrees` form theirs on that read); `dimension` is for
    callers. It checks only that it is square; `eigenvalues_symmetric`
    checks symmetry, naming the matrix's position."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = self.data
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"matrix must be square, got shape {a.shape}")

    @property
    def dimension(self) -> int:
        return self.data.shape[0]

    def to_lists(self) -> list[list[int]]:
        return [[int(round(v)) for v in row] for row in self.data]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.to_lists())


class NonPermutabilityGraph:
    """Simple loop-free graph on the non-core subgroups of a lattice."""

    def __init__(self, lattice: SubgroupLattice, vertex_ids: tuple[int, ...],
                 adjacency: np.ndarray) -> None:
        self.lattice = lattice
        self.vertex_ids = vertex_ids
        self._adj = adjacency  # read-only boolean, rows and columns by vertex position
        self.edge_count = int(adjacency.sum()) // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    def is_null(self) -> bool:
        return self.vertex_count == 0

    def degrees(self) -> list[int]:
        return self._adj.sum(axis=1).tolist()

    def edges(self) -> list[tuple[int, int]]:
        """Unordered adjacent pairs (u, v), u < v, as positions, in row-major order."""
        return [(u, v) for u, v in np.argwhere(np.triu(self._adj, 1)).tolist()]

    def to_json_dict(self) -> dict:
        """Edges reported as subgroup id pairs for stability across runs."""
        ids = self.vertex_ids
        return {
            "vertices": list(ids),
            "edge_count": self.edge_count,
            "edges": [[ids[u], ids[v]] for u, v in self.edges()],
            "degrees": self.degrees(),
        }


def build_graph(lattice: SubgroupLattice) -> NonPermutabilityGraph:
    """The complement of the permutability matrix on the non-core subgroups."""
    permutes = lattice.permutability()  # filled first, so the core tests no pair again
    core = lattice.permuting_core()
    vertex_ids = tuple(i for i in range(lattice.size) if i not in core)
    adj = ~permutes[np.ix_(vertex_ids, vertex_ids)]
    adj.flags.writeable = False
    return NonPermutabilityGraph(lattice, vertex_ids, adj)


def adjacency_matrix(graph: NonPermutabilityGraph) -> DenseSymMatrix:
    return DenseSymMatrix(graph._adj.astype(float))


def laplacian_matrix(graph: NonPermutabilityGraph) -> DenseSymMatrix:
    """Degree diagonal minus adjacency; every row sums to zero."""
    a = graph._adj.astype(float)
    return DenseSymMatrix(np.diag(a.sum(axis=1)) - a)


def vertex_label(lattice: SubgroupLattice, sid: int) -> str:
    """Generator notation for a subgroup, e.g. "<(1,2),(3,4)>"."""
    gens = lattice.minimal_generators(sid)
    if not gens:
        return "<()>"
    parts = ",".join(lattice.group.elements[i].to_cycle_string() for i in gens)
    return f"<{parts}>"


def dot_export(graph: NonPermutabilityGraph) -> str:
    """Undirected DOT document, one node line per vertex and one line per edge."""
    lattice = graph.lattice
    ids = graph.vertex_ids
    lines = ["graph G {"]
    for sid in ids:
        lines.append(f'  s{sid} [label="{vertex_label(lattice, sid)}"];')
    for u, v in graph.edges():
        lines.append(f"  s{ids[u]} -- s{ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
