import numpy as np
import pytest

from latspec.perm import FiniteGroup, Permutation, bits_of, compose, generate_group, parse_generators
from latspec.spectral import DEFAULT_TOL, MAX_STEPS, _POINTS, Spectrum, _sturm_counts, _tridiagonalize


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("LATSPEC_CACHE", raising=False)


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


def per_index_multisection(data: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
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
        width = 2.0 * np.finfo(float).eps * norm * max(1.0, tol / DEFAULT_TOL) + 4.0 * pivmin
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
            counts = _sturm_counts(d, e2, pivmin, grid[:, 1:-1].reshape(-1))
            below = (counts.reshape(n, _POINTS) <= index[:, None]).sum(axis=1)
            lo, hi = grid[index, below], grid[index, below + 1]
        values = np.sort(0.5 * (lo + hi))
    return Spectrum(tuple(float(v) for v in values), reflections, steps, float((hi - lo).max()))
