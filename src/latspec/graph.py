"""The non-permutability graph of subgroups and its dense matrix forms.

Vertices are the lattice members outside the permuting core, in lattice
canonical order; two vertices H, K are joined exactly when HK != KH. The
pair test is arithmetic on the lattice, |H join K| * |H meet K| != |H| * |K|,
which needs a join-closed lattice. Quasihamiltonian groups give the null
graph. Isolated vertices are kept: lying outside the core does not force a
vertex to have an edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .lattice import SubgroupLattice
from .perm import iter_bits


@dataclass(frozen=True)
class DenseSymMatrix:
    """A real symmetric matrix stored dense; adjacency/Laplacian entries are integers."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = self.data
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"matrix must be square, got shape {a.shape}")
        if a.size and not np.array_equal(a, a.T):
            raise InputError("matrix is not symmetric")

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
                 adjacency_bits: tuple[int, ...]) -> None:
        self.lattice = lattice
        self.vertex_ids = vertex_ids
        self._adj = adjacency_bits
        self.edge_count = sum(bits.bit_count() for bits in adjacency_bits) // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    def is_null(self) -> bool:
        return self.vertex_count == 0

    def adjacent(self, u: int, v: int) -> bool:
        """Adjacency between vertex positions (not subgroup ids)."""
        return bool(self._adj[u] & (1 << v))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [bits.bit_count() for bits in self._adj]

    def edges(self) -> list[tuple[int, int]]:
        """Unordered adjacent pairs as (position, position), deterministic order."""
        out = []
        for u in range(self.vertex_count):
            for v in iter_bits(self._adj[u]):
                if v > u:
                    out.append((u, v))
        return out

    def connected_components(self) -> int:
        seen: set[int] = set()
        count = 0
        for start in range(self.vertex_count):
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for v in iter_bits(self._adj[u]):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return count

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
    """Pairwise permutability tests over the non-core subgroups."""
    core = lattice.permuting_core()
    vertex_ids = tuple(i for i in range(lattice.size) if i not in core)
    m = len(vertex_ids)
    adj = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if not lattice.products_commute(vertex_ids[u], vertex_ids[v]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return NonPermutabilityGraph(lattice, vertex_ids, tuple(adj))


def adjacency_matrix(graph: NonPermutabilityGraph) -> DenseSymMatrix:
    m = graph.vertex_count
    a = np.zeros((m, m))
    for u, v in graph.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return DenseSymMatrix(a)


def laplacian_matrix(graph: NonPermutabilityGraph) -> DenseSymMatrix:
    """Degree diagonal minus adjacency; every row sums to zero."""
    a = adjacency_matrix(graph).data
    lap = np.diag(a.sum(axis=1)) - a
    return DenseSymMatrix(lap)


def vertex_label(lattice: SubgroupLattice, sid: int) -> str:
    """Generator notation for a subgroup, e.g. "<(1,2),(3,4)>"."""
    gens = lattice.minimal_generators(sid)
    if not gens:
        return "<()>"
    parts = ",".join(lattice.group.elements[i].to_cycle_string() for i in gens)
    return f"<{parts}>"


def dot_export(graph: NonPermutabilityGraph, labels: dict[int, str] | None = None) -> str:
    """Undirected DOT document, one node line per vertex and one line per edge."""
    lattice = graph.lattice
    ids = graph.vertex_ids
    lines = ["graph G {"]
    for pos, sid in enumerate(ids):
        label = labels[sid] if labels is not None else vertex_label(lattice, sid)
        lines.append(f'  s{sid} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  s{ids[u]} -- s{ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
