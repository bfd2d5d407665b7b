import json
import math

import numpy as np
import pytest

from latspec.cache import decode_section
from latspec.perm import FiniteGroup, Permutation, bits_of, compose, generate_group, parse_generators
from latspec.errors import NumericError
from latspec.graph import adjacency_matrix, laplacian_matrix
from latspec.spectral import (
    MAX_STEPS,
    _POINTS,
    Spectrum,
    _tridiagonalize,
    eigenvalues_symmetric,
)


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("LATSPEC_CACHE", raising=False)


def read_cache_file(path):
    """(key, sections) of a cache file, read line by line: the key object on
    the first line, then one `name<TAB>json` line per section."""
    key_line, *lines = path.read_text().split("\n")
    sections = {}
    for line in filter(None, lines):
        name, text = line.split("\t", 1)
        sections[name] = json.loads(text)
    return json.loads(key_line), sections


def decode_lookup(lines):
    """A `cache_lookup` result with each section line decoded, or None for a miss."""
    return None if lines is None else {name: decode_section(line) for name, line in lines.items()}


def write_cache_file(path, key, sections):
    """Write a cache file in the layout `read_cache_file` reads."""
    lines = [json.dumps(key)] + [f"{name}\t{json.dumps(sections[name])}" for name in sorted(sections)]
    path.write_text("\n".join(lines) + "\n")


def build(degree: int, gens: str) -> FiniteGroup:
    return generate_group(degree, parse_generators(gens, degree))


def naive_closure(perms):
    """Reference closure by raw composition, independent of mul tables."""
    degree = perms[0].degree if perms else 1
    elems = {Permutation.identity(degree)}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for g in perms:
            y = compose(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return elems


@pytest.fixture(scope="session")
def s3():
    return build(3, "(1,2);(1,2,3)")


@pytest.fixture(scope="session")
def s4():
    return build(4, "(1,2);(1,2,3,4)")


@pytest.fixture(scope="session")
def a4():
    return build(4, "(1,2,3);(2,3,4)")


@pytest.fixture(scope="session")
def d4_order8():
    return build(4, "(1,2,3,4);(1,3)")


@pytest.fixture(scope="session")
def c6():
    return build(6, "(1,2,3,4,5,6)")


@pytest.fixture(scope="session")
def e8():
    return build(6, "(1,2);(3,4);(5,6)")


def double_loop_product(lattice, a, b):
    """Reference set product of subgroups a and b: h*k for every member pair,
    |A| * |B| table reads."""
    table = lattice.group.mul_table
    left = lattice.subgroups[a].member_indices()
    right = lattice.subgroups[b].member_indices()
    return bits_of(table[h][k] for h in left for k in right)


def closure_standalone_group(lattice, sid):
    """Subgroup sid as its own FiniteGroup, closed as permutations from its
    minimal generators: the oracle for the group `standalone_group` cuts
    from the parent's tables."""
    group = lattice.group
    return FiniteGroup(group.degree, [group.elements[i] for i in lattice.minimal_generators(sid)])


def coset_union_product(lattice, a, b):
    """Reference set product of subgroups a and b as a union of right cosets
    Ak, k in B, each coset built by |A| table reads and skipped when k is
    already in the union."""
    table = lattice.group.mul_table
    left = lattice.subgroups[a].member_indices()
    out = 0
    for k in lattice.subgroups[b].member_indices():
        if not out >> k & 1:
            for h in left:
                out |= 1 << table[h][k]
    return out


def pairwise_containment(lattice):
    """Reference containment rows (down, up): one member-bitset test per
    ordered pair of ids, down[i] the ids inside i and up[j] the ids over j."""
    n = lattice.size
    down, up = [0] * n, [0] * n
    for i, si in enumerate(lattice.subgroups):
        for j, sj in enumerate(lattice.subgroups):
            if sj.members & si.members == sj.members:
                down[i] |= 1 << j
                up[j] |= 1 << i
    return down, up


def pairwise_permutability(lattice):
    """Reference permutability matrix: one `products_commute` call per
    unordered pair a < b, true on the diagonal."""
    n = lattice.size
    permutes = np.ones((n, n), dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            if not lattice.products_commute(a, b):
                permutes[a, b] = permutes[b, a] = False
    return permutes


def lower_fixed_mobius(lattice):
    """Reference Möbius values of every interval by the lower-fixed zeta
    recursion: mu(H, H) = 1 and mu(lower, upper) = -sum of mu(lower, z) over
    lower <= z < upper, memoized per (lower, upper)."""
    memo = {}

    def mu(lower, upper):
        if (lower, upper) not in memo:
            memo[lower, upper] = 1 if lower == upper else -sum(
                mu(lower, z) for z in lattice.down_ids(upper)
                if lattice.leq(lower, z) and z != upper)
        return memo[lower, upper]

    return {(a, b): mu(a, b) for b in range(lattice.size) for a in lattice.down_ids(b)}


def connected_components(graph):
    """Reference component count of a graph, by a walk over its edge list."""
    neighbours = {v: set() for v in range(graph.vertex_count)}
    for u, v in graph.edges():
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, count = set(), 0
    for start in neighbours:
        if start not in seen:
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                for v in neighbours[stack.pop()] - seen:
                    seen.add(v)
                    stack.append(v)
    return count


def full_spectra(graph):
    """Reference spectra: the graph's whole adjacency and Laplacian matrices,
    solved as they are, with no symmetry-adapted blocks."""
    return eigenvalues_symmetric(adjacency_matrix(graph), laplacian_matrix(graph))


def dense_block(data, vertices, weights, starts, sizes):
    """Reference symmetry-adapted block of a dense matrix M: B[i, j] = sum
    over u in O_i, w in O_j of conj(chi(u)) chi(w) M[u, w], over
    sqrt(|O_i| |O_j|), with chi(w) the vertex weights, gathered as a
    |kept| x |kept| slice of M and summed over both axes. Real weights +-1
    give exact integer sums; complex blocks are made exactly Hermitian from
    the upper triangle and the real part of the diagonal."""
    part = data[np.ix_(vertices, vertices)]
    root = np.sqrt(np.multiply.outer(sizes, sizes))
    if not np.iscomplexobj(weights):
        part *= np.multiply.outer(weights, weights)
        return np.add.reduceat(np.add.reduceat(part, starts, axis=0), starts, axis=1) / root
    columns = (np.add.reduceat(part * weights.real, starts, axis=1)
               + 1j * np.add.reduceat(part * weights.imag, starts, axis=1))
    block = np.add.reduceat(columns * weights.conj()[:, None], starts, axis=0) / root
    upper = np.triu(block, 1)
    return upper + upper.T.conj() + np.diag(block.diagonal().real)


def pair_closures(group):
    """Member sets of <a, b> for every pair of elements, each closed by a
    breadth-first search over the mul table. Every subgroup of a group whose
    subgroups are all 2-generated is among them."""
    table = group.mul_table
    found = set()
    for a in range(group.order):
        for b in range(a, group.order):
            members, frontier = {group.identity_index}, [group.identity_index]
            while frontier:
                row = table[frontier.pop()]
                for y in (row[a], row[b]):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
            found.add(frozenset(members))
    return found


def cyclic_extension_oracle(group):
    """Reference subgroup enumeration: cyclic extension with one join walk per
    eligible cyclic p-subgroup and class representative, no orbit cut.
    Returns the set of member bitsets."""
    table = group.mul_table
    conjugators = []
    for s in map(group.index_of, group.generators):
        row = table[group.inverse_index(s)]
        conjugators.append([table[row[h]][s] for h in range(group.order)])
    cyclic = {}
    for g in range(group.order):
        n = group.order_of_index(g)
        p = next((d for d in range(2, n + 1) if n % d == 0), None)
        if p is None or p ** n.bit_length() % n:
            continue
        powers = [group.identity_index]
        for _ in range(n - 1):
            powers.append(table[powers[-1]][g])
        cyclic.setdefault(bits_of(powers), (g, powers[p % n]))
    trivial = 1 << group.identity_index
    found, reps = {trivial}, [(trivial, ())]
    for r_bits, r_gens in reps:
        r_members = [h for h in range(group.order) if r_bits >> h & 1]
        coset = [0] * group.order
        for x in range(group.order):
            if not coset[x]:
                xr = [table[x][h] for h in r_members]
                for y in xr:
                    coset[y] = bits_of(xr)
        for g, gp in cyclic.values():
            if r_bits >> g & 1 or not r_bits >> gp & 1:
                continue
            gens = r_gens + (g,)
            joined, frontier = r_bits, [group.identity_index]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = table[s][x]
                    if not joined >> y & 1:
                        joined |= coset[y]
                        frontier.append(y)
            if joined in found:
                continue
            orbit = [joined]
            for x in orbit:
                members = [h for h in range(group.order) if x >> h & 1]
                for images in conjugators:
                    y = bits_of(images[h] for h in members)
                    if y not in found:
                        found.add(y)
                        orbit.append(y)
            found.add(joined)
            reps.append((joined, gens))
    return found


def real_householder(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference Householder reduction of a real symmetric matrix: (d, e,
    reflection count), alpha = -copysign(||x||, x0), the rank-2 update summed
    as one symmetric matrix, a column skipped when its squared norm below x0
    is under the smallest normal double. The merged `_tridiagonalize` must
    give the same d, |e| and count bit for bit."""
    n = data.shape[0]
    a = data.copy()
    e = np.empty(n - 1)
    reflections = 0
    for k in range(n - 2):
        x = a[k + 1:, k]
        sigma = float((x[1:] * x[1:]).sum())
        if sigma < np.finfo(float).tiny:
            e[k] = x[0]
            continue
        x0 = float(x[0])
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        beta = 2.0 / float((v * v).sum())
        block = a[k + 1:, k + 1:]
        p = (block * v).sum(axis=1)
        p *= beta
        w = p - (0.5 * beta * float((p * v).sum())) * v
        outer = np.multiply.outer(v, w)
        block -= outer + outer.T
        e[k] = alpha
        reflections += 1
    e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e, reflections


def hermitian_householder(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference Householder reduction of a complex Hermitian matrix: (real d,
    off-diagonal moduli |e|, reflection count), alpha = -(x0/|x0|) ||x|| and
    -||x|| when x0 = 0, the update summed as one matrix plus its conjugate
    transpose, a column skipped as in `real_householder`. The merged
    `_tridiagonalize` must give the same bit for bit."""
    n = data.shape[0]
    a = data.copy()
    e = np.empty(n - 1)
    reflections = 0
    for k in range(n - 2):
        x = a[k + 1:, k]
        tail = x[1:]
        sigma = float((tail.real * tail.real + tail.imag * tail.imag).sum())
        x0 = complex(x[0])
        if sigma < np.finfo(float).tiny:
            e[k] = abs(x0)
            continue
        norm = math.sqrt(x0.real * x0.real + x0.imag * x0.imag + sigma)
        phase = x0 / abs(x0) if x0 else 1.0
        v = x.copy()
        v[0] = x0 + phase * norm
        beta = 2.0 / float((v.real * v.real + v.imag * v.imag).sum())
        block = a[k + 1:, k + 1:]
        p = (block * v).sum(axis=1)
        p *= beta
        w = p - (0.5 * beta * float((v.conj() * p).sum().real)) * v
        outer = np.multiply.outer(v, w.conj())
        block -= outer + outer.conj().T
        e[k] = norm
        reflections += 1
    e[n - 2] = abs(complex(a[n - 1, n - 2]))
    return np.diag(a).real.copy(), e, reflections


def solo_sturm_counts(d: np.ndarray, e2: np.ndarray, pivmin: float, x: np.ndarray) -> np.ndarray:
    """Reference Sturm counts of one tridiagonal matrix: the number of negative
    pivots of T - x for each shift, one row at a time, with the pivmin guard."""
    q = np.subtract(d[0], x)
    negative = np.empty(x.size, dtype=bool)
    count = np.zeros(x.size, dtype=np.intp)
    for i in range(d.size):
        if i:
            np.divide(e2[i - 1], q, out=q)
            np.subtract(d[i], q, out=q)
            q -= x
        np.less(q, pivmin, out=negative)
        np.minimum(q, -pivmin, out=q, where=negative)
        count += negative
    return count


def solo_multisection(data: np.ndarray) -> Spectrum:
    """Reference eigensolver: the cluster multisection of `eigenvalues_symmetric`
    run on one matrix at a time, with its own Sturm pass per step. A batched
    solve must give each matrix exactly this Spectrum, counters included."""
    n = data.shape[0]
    if n <= 1:
        return Spectrum(tuple(float(v) for v in np.diag(data).real))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        d, e, reflections = _tridiagonalize(data)
        e2 = e * e
        pivmin = np.finfo(float).tiny * max(1.0, float(e2.max()))
        radius = np.zeros(n)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        norm = float((np.abs(d) + radius).max())
        width = 2.0 * np.finfo(float).eps * norm + 4.0 * pivmin
        lo = np.array([float((d - radius).min())])
        hi = np.array([float((d + radius).max())])
        c_lo, c_hi = np.array([0]), np.array([n])
        fractions = np.arange(1, _POINTS + 1) / (_POINTS + 1)
        steps = shifts = 0
        while (hi - lo).max() > width:
            if steps == MAX_STEPS:
                raise NumericError(f"bisection did not converge in {MAX_STEPS} steps")
            steps += 1
            inner = np.multiply.outer(hi - lo, fractions) + lo[:, None]
            shifts += inner.size
            grid = np.column_stack((lo, inner, hi))
            counts = np.column_stack((
                c_lo, solo_sturm_counts(d, e2, pivmin, inner.ravel()).reshape(inner.shape), c_hi))
            keep = counts[:, 1:] > counts[:, :-1]
            lo, hi = grid[:, :-1][keep], grid[:, 1:][keep]
            c_lo, c_hi = counts[:, :-1][keep], counts[:, 1:][keep]
            if int((c_hi - c_lo).sum()) != n:
                raise NumericError("Sturm counts fell as the shift rose")
        values = np.repeat(0.5 * (lo + hi), c_hi - c_lo)
    return Spectrum(tuple(float(v) for v in values), reflections, steps,
                    float((hi - lo).max()), shifts)


def per_index_multisection(data: np.ndarray) -> Spectrum:
    """Reference eigensolver: the same Householder reduction, start bracket,
    grid and stop rule as `eigenvalues_symmetric`, but one bracket per
    eigenvalue index, each placed by counting the grid points whose Sturm
    count is at most its index. A cluster of k equal eigenvalues is bisected
    k times over. `shifts` is left at 0."""
    n = data.shape[0]
    if n <= 1:
        return Spectrum(tuple(float(v) for v in np.diag(data)))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        d, e, reflections = _tridiagonalize(data)
        e2 = e * e
        pivmin = np.finfo(float).tiny * max(1.0, float(e2.max()))
        radius = np.zeros(n)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        norm = float((np.abs(d) + radius).max())
        width = 2.0 * np.finfo(float).eps * norm + 4.0 * pivmin
        index = np.arange(n)
        lo = np.full(n, float((d - radius).min()))
        hi = np.full(n, float((d + radius).max()))
        fractions = np.arange(1, _POINTS + 1) / (_POINTS + 1)
        grid = np.empty((n, _POINTS + 2))
        steps = 0
        while (hi - lo).max() > width:
            assert steps < MAX_STEPS
            steps += 1
            grid[:, 0], grid[:, -1] = lo, hi
            np.multiply.outer(hi - lo, fractions, out=grid[:, 1:-1])
            grid[:, 1:-1] += lo[:, None]
            counts = solo_sturm_counts(d, e2, pivmin, grid[:, 1:-1].reshape(-1))
            below = (counts.reshape(n, _POINTS) <= index[:, None]).sum(axis=1)
            lo, hi = grid[index, below], grid[index, below + 1]
        values = np.sort(0.5 * (lo + hi))
    return Spectrum(tuple(float(v) for v in values), reflections, steps, float((hi - lo).max()))
