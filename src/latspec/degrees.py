"""Subgroup commutativity degree and factorization number by every route, cross-checked.

All degree arithmetic is exact: each sd route gives its count over |L|^2,
an integer (sd_direct the commuting pairs, sd_spectral |L|^2 - 2|E|,
sd_via_f2 the subgroup F2 sum), so the routes compare as integers and the
report prints each count reduced over |L|^2 (`ratio_text`) as str(Fraction)
would; the factorization counts are plain integers too, and no rational
type is used. The spectral split substitutes the exact integer 2|E|
for the floating eigenvalue sums (they agree by the trace identity); both
floating forms, the Laplacian sum and the squared adjacency sum, are kept as
checked shadows so the spectral path is still exercised end to end. The
split is summed once per lattice, each class's shadows checked once by the
report's own rule (`spectral.verify_trace_identities`); its two route
names, Laplacian and adjacency, read the one memoized integer.

Two independent pair computations feed the cross-checks. Every pair-test
consumer (sd[direct], the graph, the core, the quasihamiltonian flag) reads
the lattice's one permutability matrix, filled by the lattice-order test.
`f2_direct` alone multiplies subgroups element by element, and it never reads
joins, meets or that matrix.

Conjugate subgroups are isomorphic, so they share |L|, F2, sd, the
quasihamiltonian flag, the graph's edge count and both spectra. A parent
lattice therefore holds one standalone lattice per conjugacy class
(`SubgroupLattice.class_lattice`), enumerated on the group cut from the
parent's tables and, once the parent's matrix is filled, reading it
restricted to the class representative's down-set; the subgroup F2 sum and
both splits read them.
Every lattice memoizes on itself its graph, its F2, its subgroup F2 sum
(`sd_via_f2`), its split sum and one pair of spectra, adjacency and
Laplacian, solved together. The Möbius inversion builds no class lattice:
sd(T) |L(T)|^2 is the parent's matrix summed over T's down-set.
Sums over all subgroups (the subgroup F2 sum, the rows of `f2_direct`, the
Möbius inversion, both splits and the published notes' Klein four count)
take one term per class, weighted by the class size, from the lattice's
one class table (`SubgroupLattice.classes`), which holds each such pass to
PAIR_LIMIT before it starts; mu(T, G), the same on a whole class since
conjugation is a lattice automorphism fixing G, is read from the lattice's
memoized Möbius table (`SubgroupLattice.mobius`). The structure dump, the trace
checks and the split shadows share one eigenvalue solve per class and matrix.

Conjugation also permutes the graph's vertices and commutes with both of its
matrices, so each matrix is solved in symmetry-adapted blocks (the canonical
decomposition; Serre, Linear Representations of Finite Groups, 2.6). The
cyclic group <c>, c the least-index element of the largest order k, acts on
the vertices; each character chi_j(c^a) = omega^(ja) of <c>, with the
<c>-orbits it admits, spans a subspace that the matrix preserves, and the
matrix restricted there is one block (`_symmetry_blocks`, `_block`). The
characters are complex except for j = 0 and j = k/2, and give Hermitian
blocks, each read off the orbit representatives' rows of the graph's
boolean adjacency, B[i, j] = s_i * sum over w in O_j of chi(w) M[o_i, w] /
sqrt(s_i s_j), so no dense |V| x |V| matrix is formed. Blocks whose j
differ by a unit u with c^u conjugate to c, or by a sign, are similar, so
one block is solved per such class of j and its values count once per
class member. PSL(2,7)'s 177-vertex graph splits under
its element of order 7 into one block of 27 and six of 25, of which two are
solved; S4's 26 vertices split under a 4-cycle into 12, 8 and two complex
blocks of 3, of which three are solved. A null graph has no block. A
spectrum is its blocks' values merged.
The blocks are handed to the eigensolver in batches, one call per batch: a
graph's two matrices together, and, before the split sums its terms,
both matrices of every class in the split, the top graph among them.
`verify_identities` runs the split before it reads the top graph's
spectra, so a `verify` makes one call.
The blocks are streamed through that call: each is passed as a
`_LazyBlock`, whose dimension comes from its basis and whose entries
`_block` forms only when the solver reads them, and the solver forms,
checks and reduces one block before it reads the next, so one dense block
is alive at a time. Blocks whose reductions are byte-equal share one
multisection entry and one Spectrum (`eigenvalues_symmetric`); no block is
kept to compare. Before a call forms any block, its blocks are held to
BLOCK_WORK_LIMIT (`_check_budget`); past it, SizeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cache import signature_of
from .closed_forms import ratio_text
from .errors import ConsistencyError, DomainError, SizeError
from .graph import NonPermutabilityGraph, build_graph
from .lattice import SubgroupLattice, _conjugates
from .perm import FiniteGroup
from .spectral import Spectrum, eigenvalues_symmetric, verify_trace_identities

# Reference values published for the order-24 symmetric group that disagree
# with this tool's exact computation; surfaced as informational notes, never
# fed into any formula.
_S4_FINGERPRINT = (24, False, 12, ((1, 1), (2, 9), (3, 8), (4, 6)))
_S4_PUBLISHED = {
    "bottom_mobius": -24,
    "laplacian_sum": 378,
    "klein_four_count": 3,
}

# A solver call's budget: the sum of d^3 over the d x d blocks it reduces, a
# complex block counted x4.
BLOCK_WORK_LIMIT = 10_000_000_000
# Representative rows that `_block` weighs and reduces at once.
BLOCK_CHUNK_ROWS = 64


def _memo(lattice: SubgroupLattice, key, compute: Callable[[], object]):
    """`compute()`, stored on the lattice under `key` on first use."""
    memo = lattice.memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _f2(lattice: SubgroupLattice) -> int:
    """f2_direct of the lattice, counted once."""
    return _memo(lattice, "f2", lambda: f2_direct(lattice))


def top_graph(lattice: SubgroupLattice) -> NonPermutabilityGraph:
    """The lattice's non-permutability graph, built once per lattice."""
    return _memo(lattice, "graph", lambda: build_graph(lattice))


def _largest_cyclic(group: FiniteGroup) -> tuple[int, int]:
    """(c, k): c the least element index of the largest element order k, the
    first longest entry of `FiniteGroup.cyclic_powers`, which ascend by c."""
    c, powers = max(group.cyclic_powers.items(), key=lambda item: len(item[1]))
    return c, len(powers)


def _conjugate_powers(group: FiniteGroup, c: int, k: int) -> list[int]:
    """The units u modulo k, c's order, for which c^u is conjugate to c in the group."""
    conjugates = set(_conjugates(1 << c, group)[0])  # c's class, one bit each
    powers = group.cyclic_powers[c]
    return [u for u in range(1, k) if math.gcd(u, k) == 1 and 1 << powers[u] in conjugates]


def _character_classes(group: FiniteGroup, c: int, k: int) -> list[list[int]]:
    """The characters chi_j of <c>, j modulo k, in classes under j -> +-u j
    for the units u of `_conjugate_powers`, each class ascending, the
    classes by their least j.

    If g^-1 c g = c^u, conjugation by g takes the chi_j part of the vertex
    space onto the chi_(uj) part (up to u -> 1/u, which is in the same unit
    group) and commutes with both graph matrices, so the two blocks are
    similar; chi_-j's block is chi_j's complex conjugate, which has the same
    real eigenvalues. So one block per class gives them all.
    """
    units = [sign * u for u in _conjugate_powers(group, c, k) for sign in (1, -1)]
    classes, seen = [], set()
    for j in range(k):
        if j not in seen:
            members = sorted({u * j % k for u in units})
            seen.update(members)
            classes.append(members)
    return classes


def _vertex_action(lattice: SubgroupLattice, graph: NonPermutabilityGraph,
                   g: int) -> list[int]:
    """Conjugation by element g as a permutation of the graph's vertex positions."""
    vertex_ids = list(graph.vertex_ids)
    position = {sid: i for i, sid in enumerate(vertex_ids)}
    return [position[sid] for sid in lattice.conjugation_map(g)[vertex_ids].tolist()]


def _cyclic_orbits(action: list[int]) -> tuple[list[list[int]], list[int]]:
    """The orbits of <c> on the vertex positions, each as o, c o, c^2 o, ...
    from its least position o, and each position's exponent a in w = c^a o."""
    exponent = [-1] * len(action)
    orbits = []
    for start in range(len(action)):
        if exponent[start] < 0:
            orbit, w = [], start
            while exponent[w] < 0:
                exponent[w] = len(orbit)
                orbit.append(w)
                w = action[w]
            orbits.append(orbit)
    return orbits, exponent


def _cyclic_character(orbits: list[list[int]], exponent: list[int], k: int,
                      j: int) -> tuple[np.ndarray, ...] | None:
    """The basis of chi_j's block, chi_j(c^a) = omega^(ja) with omega = e^(2 pi i/k):
    (vertex positions in orbit order, their weights, orbit starts, orbit
    sizes), see `_block`; None when no orbit admits chi_j. An orbit of size s
    admits chi_j when chi_j is trivial on its stabilizer <c^s>, that is when
    k divides js. The real characters (2j = 0 modulo k) get real weights
    +-1, so their block sums stay exact integers."""
    kept = [orbit for orbit in orbits if j * len(orbit) % k == 0]
    if not kept:
        return None
    vertices = [w for orbit in kept for w in orbit]
    if 2 * j % k == 0:
        weights = [-1.0 if j and exponent[w] % 2 else 1.0 for w in vertices]
    else:
        weights = [complex(np.exp(2j * np.pi * (j * exponent[w] % k) / k)) for w in vertices]
    sizes = np.array([len(orbit) for orbit in kept])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.array(vertices, dtype=np.intp), np.array(weights), starts, sizes


def _symmetry_blocks(lattice: SubgroupLattice,
                     graph: NonPermutabilityGraph) -> list[tuple]:
    """The symmetry-adapted basis of the graph's vertex space, block by block.

    The cyclic group <c>, c the least-index element of the largest order k,
    acts on the vertices by conjugation; a <c>-orbit and a character of <c>
    trivial on the orbit's stabilizer give one basis vector, and the vectors
    of one character span a subspace that both graph matrices preserve
    (Serre, Linear Representations of Finite Groups, 2.6). Each block is
    (vertex positions in orbit order, their weights, orbit starts, orbit
    sizes, multiplicity): one block per class of `_character_classes` that
    some orbit admits, its multiplicity the class size, its weights complex
    unless the character is real. A null graph has no block; every group
    with k <= 2 is abelian, so its graph is null.
    """
    if graph.is_null():
        return []
    group = lattice.group
    c, k = _largest_cyclic(group)
    orbits, exponent = _cyclic_orbits(_vertex_action(lattice, graph, c))
    blocks = []
    for members in _character_classes(group, c, k):
        basis = _cyclic_character(orbits, exponent, k, members[0])
        if basis is not None:
            blocks.append(basis + (len(members),))
    return blocks


def _block(adjacency: np.ndarray, laplacian: bool, vertices: np.ndarray, weights: np.ndarray,
           starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """B[i, j] = s_i * sum over w in O_j of chi(w) M[o_i, w] / sqrt(s_i s_j),
    M the adjacency or Laplacian, o_i the representative of orbit O_i (size
    s_i, at `starts[i]`) and chi(w) the vertex weights, chi(o_i) = 1.

    M[c^a o_i, w] = M[o_i, c^-a w], so every u in O_i weighs in as o_i's
    row: only the representatives' rows of the boolean adjacency are read,
    BLOCK_CHUNK_ROWS of them at a time, so the weighted rows held at once
    are that many by |vertices|, not the whole block's |reps| by |vertices|.
    Each row is reduced on its own, so the chunks' reduced parts, stacked,
    are bit for bit the one-shot reduction. A Laplacian row is 0.0 - rows
    (-rows would give -0.0) with deg(o_i) at o_i. Real weights +-1 give
    exact integer numerators, and singleton orbits give M itself, bit for
    bit; complex blocks round, so they are made exactly Hermitian from the
    upper triangle and the real diagonal. Each chunk is cast to the block's
    type once and weighted row by row in place, so no cast buffer or second
    product of a chunk's size is formed; the scaling and the Hermitian sum
    are done in place, in the out-of-place build's order, so the bits are
    unchanged.
    """
    reps = vertices[starts]
    block = np.empty((reps.size, reps.size), dtype=complex if np.iscomplexobj(weights) else float)
    for lo in range(0, reps.size, BLOCK_CHUNK_ROWS):
        chunk = slice(lo, lo + BLOCK_CHUNK_ROWS)
        rows = adjacency[reps[chunk]]
        part = rows[:, vertices].astype(block.dtype)
        if laplacian:
            np.subtract(0.0, part, out=part)
            part[np.arange(part.shape[0]), starts[chunk]] = rows.sum(axis=1)
        for row in part:  # a broadcast product would allocate a second part
            row *= weights
        np.add.reduceat(part, starts, axis=1, out=block[chunk])
    block *= sizes[:, None]
    block /= np.sqrt(np.multiply.outer(sizes, sizes))
    if not np.iscomplexobj(block):
        return block
    # upper + upper^H, then + the real diagonal, as the out-of-place sum
    diagonal = np.diag(block.diagonal().real)
    upper = np.triu(block, 1)
    np.conjugate(upper.T, out=block)
    block += upper
    block += diagonal
    return block


def _merged(parts: list[tuple[Spectrum, int]]) -> Spectrum:
    """One spectrum from the spectra of a matrix's blocks, each block's
    values repeated its multiplicity times (see `Spectrum`)."""
    return Spectrum(tuple(sorted(v for part, count in parts for v in part.values * count)),
                    sum(part.reflections for part, _ in parts),
                    max((part.steps for part, _ in parts), default=0),
                    max((part.width for part, _ in parts), default=0.0),
                    sum(part.shifts for part, _ in parts))


def _check_budget(bases: list[list[tuple]]) -> None:
    """SizeError if reducing every block of both matrices costs more than
    BLOCK_WORK_LIMIT, which keeps a block at d <= 1,709 real or d <= 1,077
    complex (about 24 MB). `_block` holds BLOCK_CHUNK_ROWS rows of at most
    |L| <= sqrt(PAIR_LIMIT) entries at once, so they need no bound."""
    work = 0
    for _, weights, starts, _, _ in (block for basis in bases for block in basis):
        work += 2 * starts.size ** 3 * (4 if np.iscomplexobj(weights) else 1)
    if work > BLOCK_WORK_LIMIT:
        raise SizeError(f"reducing the graph blocks costs {work} (sum of d^3), over the "
                        f"limit BLOCK_WORK_LIMIT = {BLOCK_WORK_LIMIT}")


@dataclass(frozen=True, eq=False)
class _LazyBlock:
    """One symmetry block of a graph matrix as the eigensolver takes it:
    `dimension` from its basis, and `data` formed by `_block` only when
    read, so the solver forms, reduces and drops one block at a time."""

    adjacency: np.ndarray
    laplacian: bool
    basis: tuple

    @property
    def dimension(self) -> int:
        return self.basis[2].size

    @property
    def data(self) -> np.ndarray:
        return _block(self.adjacency, self.laplacian, *self.basis)


def _spectra(lattices: list[SubgroupLattice]) -> list[tuple[Spectrum, Spectrum]]:
    """The adjacency and Laplacian spectra of each lattice's graph, memoized
    on its lattice as one "spectra" pair.

    Each graph without it is split into its symmetry-adapted blocks
    (`_symmetry_blocks`), the blocks of both matrices are held to the budget
    (`_check_budget`) before the first is formed, and all are passed to one
    eigensolver call as `_LazyBlock`s, which the solver forms one at a time;
    blocks whose reductions coincide are solved once there. Each spectrum is
    its blocks' values merged. When no pair is missing, or all of them are
    of null graphs, which have no block, no call is made.
    """
    missing = [lat for lat in {id(lat): lat for lat in lattices}.values()
               if "spectra" not in lat.memo]
    if missing:
        bases = [_symmetry_blocks(lat, top_graph(lat)) for lat in missing]
        _check_budget(bases)
        blocks = [_LazyBlock(top_graph(lat)._adj, laplacian, tuple(spec))
                  for lat, basis in zip(missing, bases)
                  for laplacian in (False, True) for *spec, _ in basis]
        solved = iter(eigenvalues_symmetric(*blocks) if blocks else ())
        for lat, basis in zip(missing, bases):
            lat.memo["spectra"] = tuple(_merged([(next(solved), count) for *_, count in basis])
                                        for _ in (False, True))  # adjacency, then Laplacian
    return [lat.memo["spectra"] for lat in lattices]


def graph_spectra(lattice: SubgroupLattice) -> tuple[Spectrum, Spectrum]:
    """The adjacency and Laplacian spectra of the lattice's graph, both
    solved in one call, once per lattice."""
    [spectra] = _spectra([lattice])
    return spectra


# -- sd --------------------------------------------------------------------


def sd_direct(lattice: SubgroupLattice) -> int:
    """Probability that two subgroups permute, as its count over |L|^2: the
    ordered pairs (X, Y) with XY = YX, the sum of the permutability matrix.

    Each pair is decided by |X join Y| * |X meet Y| = |X| * |Y|
    (`products_commute`), not by set products; `f2_direct` is the route that
    multiplies subgroups element by element.
    """
    return int(lattice.permutability().sum())


def sd_spectral(lattice: SubgroupLattice, graph: NonPermutabilityGraph) -> int:
    """1 - 2|E|/|L|^2 as its count over |L|^2, |L|^2 - 2|E|, with the exact
    integer 2|E| standing in for the eigenvalue sum."""
    return lattice.size ** 2 - 2 * graph.edge_count


def sd_via_f2(lattice: SubgroupLattice) -> int:
    """Sum of the factorization numbers of all subgroups over |L|^2, as its
    count over |L|^2: the subgroup F2 sum itself, memoized on the lattice.

    Conjugate subgroups have the same F2, so the sum takes one `f2_direct`
    per class of `SubgroupLattice.classes`, on the class's lattice
    (`SubgroupLattice.class_lattice`), times the class size; it reads no
    Möbius value.
    """
    return _memo(lattice, "f2_sum", lambda: sum(
        size * _f2(lattice.class_lattice(rep)) for rep, size in lattice.classes()))


def sd_text(lattice: SubgroupLattice, count: int) -> str:
    """The sd whose count over |L|^2 is `count`, reduced, as str(Fraction) prints it."""
    return ratio_text(count, lattice.size ** 2)


# -- F2 --------------------------------------------------------------------


def f2_direct(lattice: SubgroupLattice) -> int:
    """Ordered pairs (H, K) with HK = G, counted by exhaustive set products.

    This is the one route that builds complex products element by element, so
    the sd and F2 cross-checks compare it against the lattice-order test; it
    reads no join, meet or permutability matrix. H runs over one
    representative per conjugacy class, each row weighted by the class size:
    H^g K^g = (HK)^g, so HK = G exactly when H^g K^g = G.
    """
    n = lattice.group.order
    full = (1 << n) - 1
    orders = [s.order for s in lattice.subgroups]
    count = 0
    for a, size in lattice.classes():
        for b in range(lattice.size):
            if orders[a] * orders[b] >= n and lattice.product_bits(a, b) == full:
                count += size
    return count


def f2_mobius(lattice: SubgroupLattice) -> int:
    """Möbius inversion of sd(T) * |L(T)|^2 = sum of F2(S) over S <= T.

    sd(T) * |L(T)|^2 counts the permuting pairs of T's down-set, which the
    lattice's permutability matrix holds restricted to it, so F2(G) is the
    integer sum of mu(T, G) times that count, with no lattice of T built.
    There is one term per conjugacy class of `SubgroupLattice.classes`,
    times the class size, with mu(T, G) read from the lattice's memoized
    table (`SubgroupLattice.mobius`), and classes with mu(T, G) = 0 are
    skipped. The top, with mu(G, G) = 1 and a class of its own, adds the
    whole matrix's sum, with no down-set copied.
    """
    permutes = lattice.permutability()
    total = int(permutes.sum())
    for rep, size in lattice.classes():
        if rep != lattice.top_id and (mu := lattice.mobius(rep, lattice.top_id)):
            down = lattice.down_ids(rep)
            total += size * mu * int(permutes[np.ix_(down, down)].sum())
    return total


def _split_sum(lattice: SubgroupLattice) -> int:
    """Sum over every class of `SubgroupLattice.classes` of size * mu(T, G) *
    (|L(T)|^2 - 2|E_T|), once per lattice: mu(T, G) read from the lattice's
    memoized Möbius table, |L(T)| and the exact 2|E_T| from the class's
    lattice (`SubgroupLattice.class_lattice`); a quasihamiltonian T has the
    null graph, 2|E_T| = 0 and no block. All spectra come from one
    `_spectra` call, and each class's pair is checked once by
    `verify_trace_identities` against its 2|E_T|: a failing check is a
    ConsistencyError that names it."""

    def split() -> int:
        # the whole matrix, not is_quasihamiltonian's early-stopping scan: a graph needs it
        if lattice.permutability().all():
            raise DomainError("the spectral split formula requires sd(G) != 1; "
                              "this group is quasihamiltonian")
        classes = lattice.classes()
        owns = [lattice.class_lattice(rep) for rep, _ in classes]
        total = 0
        for (rep, size), own, (adj, lap) in zip(classes, owns, _spectra(owns)):
            s_exact = 2 * top_graph(own).edge_count
            for check in verify_trace_identities(s_exact, adj, lap):
                if not check["passed"]:
                    raise ConsistencyError(f"{check['name']}: floating spectrum sum {check['lhs']}"
                                           f" disagrees with exact 2|E| = {s_exact}")
            total += size * (own.size ** 2 - s_exact) * lattice.mobius(rep, lattice.top_id)
        return total

    return _memo(lattice, "split", split)


def f2_split_laplacian(lattice: SubgroupLattice) -> int:
    """Factorization number via the split Möbius sum (`_split_sum`, once per
    lattice), Laplacian route name."""
    return _split_sum(lattice)


def f2_split_adjacency(lattice: SubgroupLattice) -> int:
    """The same memoized split (`_split_sum`), squared-adjacency route name."""
    return _split_sum(lattice)


# -- the verifier ------------------------------------------------------------


def _check(name: str, passed: bool, lhs, rhs, detail: str = "") -> dict:
    """One exact check as the report holds it: lhs and rhs as text, and a
    detail only when there is one."""
    check = {"name": name, "passed": passed, "lhs": str(lhs), "rhs": str(rhs)}
    if detail:
        check["detail"] = detail
    return check


def _published_notes(lattice: SubgroupLattice, graph: NonPermutabilityGraph) -> list[str]:
    if lattice.group.iso_key() != _S4_FINGERPRINT:
        return []
    pub = _S4_PUBLISHED
    mu_bottom = lattice.mobius(lattice.bottom_id, lattice.top_id)
    two_e = 2 * graph.edge_count
    klein = sum(size for rep, size in lattice.classes()  # a conjugate is one too
                if lattice.subgroup(rep).order == 4 and all(
                    lattice.group.order_of_index(i) <= 2
                    for i in lattice.subgroup(rep).member_indices()))
    notes = []
    if mu_bottom != pub["bottom_mobius"]:
        notes.append(
            f"mobius(trivial, G) = {mu_bottom} from the recursion; the published value "
            f"{pub['bottom_mobius']} fails the zero-sum identity (the dual sum over the "
            f"full interval forces {mu_bottom})"
        )
    if two_e != pub["laplacian_sum"]:
        notes.append(
            f"Laplacian eigenvalue sum = 2|E| = {two_e} from the exhaustive pair test "
            f"over all {lattice.size ** 2} subgroup pairs; the published spectrum sums "
            f"to {pub['laplacian_sum']}"
        )
    if klein != pub["klein_four_count"]:
        notes.append(
            f"enumeration finds {klein} Klein four-subgroups; the published census "
            f"lists {pub['klein_four_count']} (its own explicit subgroup listing "
            f"contains {klein})"
        )
    return notes


def verify_identities(lattice: SubgroupLattice) -> dict:
    """Run every exact identity and cross-method comparison for one lattice,
    and give the report as the plain dict that `verify --json` prints and
    the cache stores.

    The report holds the group's signature, order and lattice size, the
    graph's vertex and edge counts, the quasihamiltonian flag, sd by each
    route as `sd_text`, F2 by each route as an int (None for the splits
    of a quasihamiltonian group), the exact checks and the trace checks
    (`verify_trace_identities`), the notes and `internal_ok`, true when
    every check passed. Internal checks:
      edge_count_vs_sd        2|E| = |L|^2 (1 - sd)
      edge_count_vs_f2_sum    2|E| = |L|^2 - sum of subgroup factorization numbers
      sd_methods_equal        direct / spectral / via-F2 agree exactly
      f2_methods_equal        direct / Möbius / both splits agree exactly
      no_trimmed_edges        no non-permuting pair has an endpoint inside the core
      trace identities        floating spectra vs exact 2|E|
    An exact check is {name, passed, lhs, rhs} with lhs and rhs as text,
    plus a detail when it has one.

    The graph, the core, sd[direct] and the Möbius and split F2 routes rest
    on the lattice-order pair test; f2[direct] and, through the subgroup F2
    sum, sd[via_f2] rest on set products (`f2_direct`). So
    edge_count_vs_f2_sum, sd_methods_equal and f2_methods_equal each compare
    two independent computations.

    The order pays for each pass once. The permutability matrix is filled
    first, so the quasihamiltonian flag, the core and the Möbius route read
    it and every class lattice takes it restricted instead of testing pairs.
    The F2 routes run next: the Laplacian split solves the top graph with
    every class in one call and checks each class's spectra once, the
    adjacency split reads the memoized sum, and the trace checks read the
    top's spectra from the memo last. A call past the block budget raises
    SizeError before it forms a block.

    Published-value disagreements are reported as notes and never fail the run.
    """
    n = lattice.size
    permutes = lattice.permutability()
    quasihamiltonian = lattice.is_quasihamiltonian()  # read from the filled matrix
    graph = top_graph(lattice)

    f2_d = _f2(lattice)  # counted once: sd_via_f2 reads the top term from the memo
    sd_d = sd_direct(lattice)
    sd_s = sd_spectral(lattice, graph)
    sd_f = sd_via_f2(lattice)  # the subgroup F2 sum, also edge_count_vs_f2_sum's

    f2_values: dict[str, int | None] = {"direct": f2_d, "mobius": f2_mobius(lattice)}
    if quasihamiltonian:
        f2_values["split_laplacian"] = None
        f2_values["split_adjacency"] = None
    else:
        f2_values["split_laplacian"] = f2_split_laplacian(lattice)
        f2_values["split_adjacency"] = f2_split_adjacency(lattice)
    # the Laplacian split's call solved the top with its classes
    adj_spec, lap_spec = graph_spectra(lattice)

    two_e = 2 * graph.edge_count
    trimmed = [
        (c, x)
        for c in sorted(lattice.permuting_core())
        for x in range(n)
        if not permutes[c, x]
    ]
    sd_rhs = n * n - sd_d
    f2_rhs = n * n - sd_f
    f2_known = [v for v in f2_values.values() if v is not None]
    checks = [
        _check("no_trimmed_edges", not trimmed, f"{len(trimmed)} lost pairs", "0 lost pairs",
               "" if not trimmed else f"pairs with a core endpoint that fail to permute: {trimmed}"),
        _check("edge_count_vs_sd", two_e == sd_rhs, two_e, sd_rhs),
        _check("edge_count_vs_f2_sum", two_e == f2_rhs, two_e, f2_rhs),
        _check("sd_methods_equal", sd_d == sd_s == sd_f, sd_text(lattice, sd_d),
               f"spectral={sd_text(lattice, sd_s)}, via_f2={sd_text(lattice, sd_f)}"),
        _check("f2_methods_equal", all(v == f2_known[0] for v in f2_known), f2_known[0],
               ", ".join(f"{k}={v}" for k, v in f2_values.items())),
    ]
    trace_checks = verify_trace_identities(two_e, adj_spec, lap_spec)

    return {
        "signature": signature_of(lattice.group),
        "group_order": lattice.group.order,
        "lattice_size": n,
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "quasihamiltonian": quasihamiltonian,
        "sd": {"direct": sd_text(lattice, sd_d), "spectral": sd_text(lattice, sd_s),
               "via_f2": sd_text(lattice, sd_f)},
        "f2": f2_values,
        "checks": checks,
        "trace_checks": trace_checks,
        "notes": _published_notes(lattice, graph),
        "internal_ok": all(check["passed"] for check in checks + trace_checks),
    }
