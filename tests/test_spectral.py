import ast
import inspect
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latspec.degrees
import latspec.spectral
from latspec.catalog import CATALOG_NAMES, alternating, parse_group_spec
from latspec.errors import InputError, NumericError
from latspec.graph import DenseSymMatrix, adjacency_matrix, build_graph, laplacian_matrix
from latspec.lattice import enumerate_subgroups
from latspec.spectral import (
    Spectrum,
    _stack,
    _sturm_counts,
    _tridiagonalize,
    eigenvalues_symmetric,
    spectral_sums,
    verify_trace_identities,
)

from conftest import (
    build,
    connected_components,
    hermitian_householder,
    per_index_multisection,
    real_householder,
    solo_multisection,
)


def graph_of(group):
    return build_graph(enumerate_subgroups(group))


def solve(matrix):
    """The one Spectrum of a single-matrix solver call."""
    (spectrum,) = eigenvalues_symmetric(matrix)
    return spectrum


class TestJacobi:
    def test_zero_matrix(self):
        spec = solve(DenseSymMatrix(np.zeros((5, 5))))
        assert spec.values == (0.0,) * 5

    def test_empty_and_single(self):
        assert solve(DenseSymMatrix(np.zeros((0, 0)))).values == ()
        got = solve(DenseSymMatrix(np.array([[3.5]]))).values
        assert got == (3.5,)

    @pytest.mark.parametrize("gens_degree,expected", [
        (("(1,2,3);(2,3,4)", 4), (0, 4, 4, 7, 7, 7, 7)),
        (("(1,2);(1,2,3)", 3), (0, 3, 3)),
        (("(1,2,3,4);(1,3)", 4), (0, 2, 2, 4)),
    ])
    def test_known_laplacian_spectra(self, gens_degree, expected):
        gens, degree = gens_degree
        spec = solve(laplacian_matrix(graph_of(build(degree, gens))))
        assert tuple(round(v) for v in spec.values) == expected
        assert max(abs(v - r) for v, r in zip(spec.values, expected)) < 1e-9

    def test_matches_lapack_oracle_on_s4_graph(self, s4):
        lap = laplacian_matrix(graph_of(s4))
        ours = solve(lap).values
        reference = sorted(np.linalg.eigvalsh(lap.data))
        assert len(ours) == 26
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-9

    def test_ascending_order(self, s4):
        values = solve(laplacian_matrix(graph_of(s4))).values
        assert list(values) == sorted(values)

    def test_laplacian_values_nonnegative(self, s4):
        values = solve(laplacian_matrix(graph_of(s4))).values
        assert min(values) > -1e-9

    def test_zero_multiplicity_counts_components(self, a4, s4):
        for group in (a4, s4):
            g = graph_of(group)
            values = solve(laplacian_matrix(g)).values
            zeros = sum(1 for v in values if abs(v) < 1e-7)
            assert zeros == connected_components(g)

    def test_trace_preserved(self, a4):
        lap = laplacian_matrix(graph_of(a4))
        spec = solve(lap)
        assert abs(float(np.trace(lap.data)) - math.fsum(spec.values)) < 1e-9

    def test_non_symmetric_rejected(self):
        with pytest.raises(InputError, match="matrix is not symmetric"):
            solve(DenseSymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]])))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_random_integer_matrices_match_lapack(self, rows):
        m = np.array(rows, dtype=float)
        m = m + m.T
        ours = solve(DenseSymMatrix(m)).values
        reference = sorted(np.linalg.eigvalsh(m))
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-8

    def test_relabeled_graph_same_spectrum(self, a4):
        lap = laplacian_matrix(graph_of(a4)).data
        rng = np.random.default_rng(7)
        p = rng.permutation(lap.shape[0])
        shuffled = lap[np.ix_(p, p)]
        s1 = solve(DenseSymMatrix(lap)).values
        s2 = solve(DenseSymMatrix(shuffled)).values
        assert max(abs(a - b) for a, b in zip(s1, s2)) < 1e-9


@pytest.fixture(scope="module")
def psl27_graph():
    return graph_of(parse_group_spec("PSL(2,7)").group)


def random_symmetric(n, seed):
    m = np.random.default_rng(seed).integers(-5, 6, size=(n, n)).astype(float)
    return m + m.T


class TestRoundRobin:
    """Solver-wide checks: both dimension parities, diagonal input, the step
    cap, repeat solves and the PSL(2,7) top graph against LAPACK. The class
    name is kept so that these test ids stay stable across solvers."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 16, 17, 32, 33])
    def test_odd_and_even_dimensions_match_lapack(self, n):
        m = random_symmetric(n, seed=n)
        spec = solve(DenseSymMatrix(m))
        assert spec.dimension == n
        assert spec.reflections <= max(0, n - 2)
        assert spec.steps > 0
        reference = sorted(np.linalg.eigvalsh(m))
        assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9

    def test_diagonal_input_needs_no_sweep(self):
        # already tridiagonal: no reflection, and every bracket closes on its
        # diagonal entry
        spec = solve(DenseSymMatrix(np.diag([3.0, -1.0, 2.0, 0.5, 7.0])))
        assert spec.reflections == 0
        expected = (-1.0, 0.5, 2.0, 3.0, 7.0)
        assert max(abs(a - b) for a, b in zip(spec.values, expected)) <= spec.width

    def test_non_convergence_raises(self, monkeypatch, s4):
        lap = laplacian_matrix(graph_of(s4))
        assert solve(lap).steps > 1
        monkeypatch.setattr(latspec.spectral, "MAX_STEPS", 1)
        with pytest.raises(NumericError):
            solve(lap)

    def test_repeat_solves_are_identical(self, s4):
        g = graph_of(s4)
        for matrix in (adjacency_matrix(g), laplacian_matrix(g)):
            first, second = solve(matrix), solve(matrix)
            assert first.values == second.values
            assert (first.reflections, first.steps, first.width) == (
                second.reflections, second.steps, second.width)

    @pytest.mark.parametrize("matrix_of", [adjacency_matrix, laplacian_matrix])
    def test_matches_lapack_oracle_on_psl27_top_graph(self, psl27_graph, matrix_of):
        matrix = matrix_of(psl27_graph)
        ours = solve(matrix).values
        reference = sorted(np.linalg.eigvalsh(matrix.data))
        assert len(ours) == 177
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-9


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def pivmin_of(e):
    return np.finfo(float).tiny * max(1.0, float((e * e).max()))


def sturm_counts_alone(d, e, shifts):
    return _sturm_counts(_stack([d], [e * e]), np.array([d.size]), np.array([pivmin_of(e)]),
                         shifts, np.zeros(shifts.size, dtype=np.intp))


def stated_width(matrix):
    """The docstring's bracket bound, from the tridiagonal form of `matrix`."""
    if matrix.dimension < 2:
        return 0.0  # a 0x0 or 1x1 matrix is returned as is, without brackets
    d, e, _ = _tridiagonalize(np.asarray(matrix.data, dtype=complex if np.iscomplexobj(matrix.data) else float))
    t = np.abs(tridiagonal(d, e)).sum(axis=1).max()
    eps = np.finfo(float).eps
    return 2 * eps * t + 4 * pivmin_of(e)


class TestSturm:
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_match_lapack_on_random_tridiagonals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        d = rng.integers(-6, 7, size=n).astype(float)
        e = rng.integers(-3, 4, size=n - 1).astype(float)
        e[rng.random(n - 1) < 0.3] = 0.0  # exact zero off-diagonals split T
        reference = np.linalg.eigvalsh(tridiagonal(d, e))
        shifts = np.linspace(reference[0] - 1, reference[-1] + 1, 97)
        shifts = shifts[np.abs(shifts[:, None] - reference).min(axis=1) > 1e-6]
        counts = sturm_counts_alone(d, e, shifts)
        assert counts.tolist() == [int((reference < x).sum()) for x in shifts]

    def test_counts_of_several_tridiagonals_in_one_pass(self):
        # largest first, as the solver passes them; each keeps its own shifts
        rng = np.random.default_rng(3)
        ds, es, shifts = [], [], []
        for n in (31, 17, 17, 9, 2):
            ds.append(rng.integers(-6, 7, size=n).astype(float))
            es.append(rng.integers(-3, 4, size=n - 1).astype(float))
            shifts.append(rng.uniform(-12.25, 12.25, size=int(rng.integers(1, 60))))
        owner = np.repeat(np.arange(len(ds)), [x.size for x in shifts])
        counts = _sturm_counts(_stack(ds, [e * e for e in es]), np.array([d.size for d in ds]),
                               np.array([pivmin_of(e) for e in es]), np.concatenate(shifts), owner)
        expected = []
        for d, e, x in zip(ds, es, shifts):
            reference = np.linalg.eigvalsh(tridiagonal(d, e))
            expected += [int((reference < v).sum()) for v in x]
        assert counts.tolist() == expected

    def test_exactly_zero_pivot_is_guarded(self):
        # q_0 = d_0 - x = 0 exactly; unguarded, the next row divides by zero
        d, e = np.array([2.0, 5.0, 1.0]), np.array([1.0, 1.0])
        reference = np.linalg.eigvalsh(tridiagonal(d, e))
        assert np.abs(reference - 2.0).min() > 0.1
        counts = sturm_counts_alone(d, e, np.array([2.0]))
        assert counts.tolist() == [int((reference < 2.0).sum())]

    @pytest.mark.parametrize("n", [2, 3, 12, 40])
    def test_complete_graph_multiplicity(self, n):
        spec = solve(DenseSymMatrix(np.ones((n, n)) - np.eye(n)))
        assert spec.values[-1] == pytest.approx(n - 1, abs=1e-12)
        assert all(abs(v + 1.0) <= 1e-12 for v in spec.values[:-1])

    def test_zero_matrix_takes_no_step(self):
        spec = solve(DenseSymMatrix(np.zeros((6, 6))))
        assert spec.values == (0.0,) * 6
        assert (spec.reflections, spec.steps, spec.width) == (0, 0, 0.0)

    def test_block_diagonal_input(self, s4):
        lap = laplacian_matrix(graph_of(s4)).data
        n = lap.shape[0]
        block = np.zeros((2 * n + 3, 2 * n + 3))
        block[:n, :n] = lap
        block[n:2 * n, n:2 * n] = lap
        spec = solve(DenseSymMatrix(block))
        reference = np.linalg.eigvalsh(block)
        assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9
        assert sum(1 for v in spec.values if abs(v) < 1e-9) == 5  # one per block, three zero rows

    def test_large_random_integer_matrix_matches_lapack(self):
        m = random_symmetric(401, seed=11)
        spec = solve(DenseSymMatrix(m))
        reference = np.linalg.eigvalsh(m)
        assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9
        assert spec.width <= stated_width(DenseSymMatrix(m))

    def test_infinite_entry_rejected(self):
        m = np.zeros((3, 3))
        m[1, 1] = math.inf
        with pytest.raises(InputError):
            solve(DenseSymMatrix(m))

    def test_overflow_raises_numeric_error(self):
        with pytest.raises(NumericError):
            solve(DenseSymMatrix(np.full((3, 3), 1e200)))

    @pytest.mark.parametrize("kind", [float, complex])
    def test_a_column_of_subnormal_squared_norm_is_not_reflected(self, kind):
        # sigma = 1e-320 is subnormal: reflecting would take beta = 2 / 2e-320,
        # which overflows; the column is zero to well within the bracket width
        m = np.zeros((3, 3), dtype=kind)
        m[2, 0] = 1e-160 if kind is float else 1e-160j
        m[0, 2] = np.conj(m[2, 0])
        spec = solve(DenseSymMatrix(m))
        assert spec.reflections == 0
        assert len(spec.values) == 3
        assert all(abs(v) <= stated_width(DenseSymMatrix(m)) for v in spec.values)

    def test_solver_makes_no_blas_call(self, monkeypatch):
        # matrix products, dot products and numpy.linalg all reach BLAS or LAPACK
        tree = ast.parse(inspect.getsource(latspec.spectral))
        banned = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
        assert not [node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in banned]
        # and a real and a complex solve run with every one of them gone
        real, hermitian = random_symmetric(12, seed=12), random_hermitian(12, seed=12)
        expected = [np.linalg.eigvalsh(m) for m in (real, hermitian)]

        def banned_call(*args, **kwargs):
            raise AssertionError("the solver reached BLAS or LAPACK")

        for name in banned - {"linalg"}:
            monkeypatch.setattr(np, name, banned_call)
        monkeypatch.setattr(np, "linalg", None)
        solved = eigenvalues_symmetric(DenseSymMatrix(real), DenseSymMatrix(hermitian))
        monkeypatch.undo()
        for spec, reference in zip(solved, expected):
            assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9


def assert_converged(matrix):
    spec = solve(matrix)
    n = matrix.dimension
    assert spec.width <= stated_width(matrix)
    assert spec.reflections <= max(0, n - 2)
    assert spec.steps <= 20


class TestSolverCounters:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_graphs_converge_below_the_stop_bound(self, name):
        g = graph_of(parse_group_spec(name).group)
        assert_converged(adjacency_matrix(g))
        assert_converged(laplacian_matrix(g))

    def test_psl27_graph_converges_below_the_stop_bound(self, psl27_graph):
        assert_converged(adjacency_matrix(psl27_graph))
        assert_converged(laplacian_matrix(psl27_graph))

    def test_counters_do_not_affect_equality(self):
        assert Spectrum((1.0,), reflections=3, steps=9, width=1e-13, shifts=63) == Spectrum((1.0,))


def top_and_class_graphs(name):
    """The group's graph and the graph of one subgroup per conjugacy class."""
    lattice = enumerate_subgroups(parse_group_spec(name).group)
    yield build_graph(lattice)
    for rep in sorted(set(lattice.class_reps()) - {lattice.top_id}):
        yield graph_of(lattice.standalone_group(rep))


def assert_matches_per_index_reference(matrices):
    for matrix in matrices:
        ours = solve(matrix)
        reference = per_index_multisection(np.asarray(matrix.data, dtype=float))
        assert ours.values == reference.values
        assert (ours.reflections, ours.steps, ours.width) == (
            reference.reflections, reference.steps, reference.width)


class TestClusterMultisection:
    """One bracket per distinct interval gives bit for bit what one bracket
    per eigenvalue index gives (`per_index_multisection`)."""

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_group_graphs_match_the_per_index_reference(self, name):
        assert_matches_per_index_reference(
            matrix_of(g) for g in top_and_class_graphs(name)
            for matrix_of in (adjacency_matrix, laplacian_matrix))

    def test_clustered_matrices_match_the_per_index_reference(self, s4):
        complete = [np.ones((n, n)) - np.eye(n) for n in range(2, 41)]
        zero = [np.zeros((n, n)) for n in (2, 3, 6)]
        lap = laplacian_matrix(graph_of(s4)).data
        blocks = [np.kron(np.eye(3), random_symmetric(7, seed=5)), np.kron(np.eye(3), lap)]
        assert_matches_per_index_reference(
            DenseSymMatrix(m) for m in complete + zero + blocks + [random_symmetric(33, seed=2)])

    @pytest.mark.parametrize("matrix_of,shifts", [(adjacency_matrix, 3507),
                                                  (laplacian_matrix, 4431)])
    def test_psl27_top_graph_shift_counts(self, psl27_graph, matrix_of, shifts):
        matrix = matrix_of(psl27_graph)
        spec = solve(matrix)
        assert (spec.dimension, spec.steps, spec.shifts) == (177, 18, shifts)
        # solved as one of the pair, the matrix takes the same shifts
        pair = eigenvalues_symmetric(adjacency_matrix(psl27_graph), laplacian_matrix(psl27_graph))
        assert pair[[adjacency_matrix, laplacian_matrix].index(matrix_of)].shifts == shifts
        # the per-index multisection evaluates 7 shifts per index and step
        reference = per_index_multisection(matrix.data)
        assert 7 * 177 * reference.steps == 22302

    def test_falling_counts_raise(self, monkeypatch):
        matrix = DenseSymMatrix(random_symmetric(6, seed=1))

        def falling(rows, dims, pivmins, x, owner):
            counts = np.full(x.size, dims[0])
            counts[1::2] = 0
            return counts

        monkeypatch.setattr(latspec.spectral, "_sturm_counts", falling)
        with pytest.raises(NumericError):
            solve(matrix)


def counters(spectrum):
    return (spectrum.values, spectrum.reflections, spectrum.steps, spectrum.width,
            spectrum.shifts)


def assert_batch_matches_solo_reference(matrices):
    batch = eigenvalues_symmetric(*matrices)
    assert len(batch) == len(matrices)
    for matrix, ours in zip(matrices, batch):
        reference = solo_multisection(np.asarray(matrix.data))
        assert counters(ours) == counters(reference)


def verify_batches(name):
    """The top graph and the matrices of each solver call that
    `verify_identities` makes."""
    lattice = enumerate_subgroups(parse_group_spec(name).group)
    calls = []

    def recording(*matrices):
        calls.append(matrices)
        return eigenvalues_symmetric(*matrices)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latspec.degrees, "eigenvalues_symmetric", recording)
        latspec.degrees.verify_identities(lattice)
    return build_graph(lattice), calls


def mixed_matrices(s4):
    complete = [np.ones((n, n)) - np.eye(n) for n in range(2, 41)]
    zero = [np.zeros((n, n)) for n in (0, 1, 2, 3, 6)]
    g = graph_of(s4)
    graphs = [adjacency_matrix(g).data, laplacian_matrix(g).data]
    return [DenseSymMatrix(m) for m in complete + zero + graphs + [
        np.array([[3.5]]), random_symmetric(33, seed=2), np.diag([3.0, -1.0, 2.0])]]


def random_hermitian(n, seed):
    """A random complex Hermitian matrix with small integer parts and a real diagonal."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-5, 6, size=(n, n)) + 1j * rng.integers(-5, 6, size=(n, n))
    m = m + m.conj().T
    m[np.diag_indices(n)] = m.diagonal().real
    return m


class TestHermitian:
    """Complex Hermitian input: numpy.linalg.eigvalsh is the oracle here only."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 25, 40])
    def test_random_hermitian_matrices_match_lapack(self, n):
        m = random_hermitian(n, seed=n)
        spec = solve(DenseSymMatrix(m))
        assert spec.dimension == n
        assert spec.reflections <= max(0, n - 2)
        assert spec.width <= stated_width(DenseSymMatrix(m))
        reference = np.linalg.eigvalsh(m)
        assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9

    def test_phases_of_a_real_matrix_keep_its_spectrum(self):
        # D^H A D for a diagonal unitary D has A's eigenvalues
        real = random_symmetric(9, seed=4)
        phases = np.exp(2j * np.pi * np.arange(9) / 7)
        upper = np.triu(real * np.multiply.outer(phases.conj(), phases), 1)
        rotated = upper + upper.conj().T + np.diag(real.diagonal())
        ours = solve(DenseSymMatrix(rotated)).values
        assert max(abs(a - b) for a, b in zip(ours, solve(DenseSymMatrix(real)).values)) < 1e-12

    def test_columns_already_reduced_are_skipped(self):
        # complex tridiagonal input needs no reflection
        m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        m[[0, 1, 2], [1, 2, 3]] = [1j, 2 - 1j, -3.0]
        m[[1, 2, 3], [0, 1, 2]] = [-1j, 2 + 1j, -3.0]
        spec = solve(DenseSymMatrix(m))
        assert spec.reflections == 0
        assert max(abs(a - b) for a, b in zip(spec.values, np.linalg.eigvalsh(m))) < 1e-12

    def test_solo_and_batched_solves_are_bit_identical(self, s4):
        matrices = mixed_matrices(s4) + [DenseSymMatrix(random_hermitian(n, seed=n))
                                         for n in (1, 2, 5, 25, 33)]
        random.Random(3).shuffle(matrices)
        alone = [counters(solve(m)) for m in matrices]
        assert [counters(spec) for spec in eigenvalues_symmetric(*matrices)] == alone
        assert_batch_matches_solo_reference(matrices)

    def test_a_real_matrix_is_unchanged_by_complex_companions(self, s4):
        real = mixed_matrices(s4)
        alone = [counters(solve(m)) for m in real]
        complex_ = [DenseSymMatrix(random_hermitian(n, seed=n)) for n in (3, 30)]
        batch = eigenvalues_symmetric(*complex_, *real)
        assert [counters(spec) for spec in batch[2:]] == alone

    def test_non_hermitian_input_names_its_position(self):
        bad = DenseSymMatrix(np.array([[0.0, 1j], [1j, 0.0]]))
        good = DenseSymMatrix(random_hermitian(3, seed=3))
        with pytest.raises(InputError, match=r"matrix 1 \(dimension 2\): matrix is not Hermitian"):
            eigenvalues_symmetric(good, bad, good)
        with pytest.raises(InputError, match=r"matrix 0 \(dimension 1\): matrix is not Hermitian"):
            eigenvalues_symmetric(DenseSymMatrix(np.array([[1j]])))


def graph_matrices_and_blocks(group):
    """Both matrices of the group's graph and of one class graph per
    conjugacy class, each whole and in its symmetry-adapted blocks."""
    top = enumerate_subgroups(group)
    lattices = [top] + [enumerate_subgroups(top.standalone_group(rep))
                        for rep in sorted(set(top.class_reps()) - {top.top_id})]
    for lattice in lattices:
        graph = build_graph(lattice)
        blocks = latspec.degrees._symmetry_blocks(lattice, graph)
        for laplacian, matrix_of in ((False, adjacency_matrix), (True, laplacian_matrix)):
            yield matrix_of(graph).data
            for *basis, _ in blocks:
                yield latspec.degrees._block(graph._adj, laplacian, *basis)


class TestOneReduction:
    """`_tridiagonalize` reduces real symmetric and complex Hermitian input
    alike; for each it gives bit for bit the d, |e| and reflection count of
    the kind's own reference reduction (`real_householder`,
    `hermitian_householder`)."""

    @staticmethod
    def assert_matches_reference(data):
        reference = hermitian_householder if np.iscomplexobj(data) else real_householder
        d, e, reflections = _tridiagonalize(data)
        d_ref, e_ref, reflections_ref = reference(data)
        assert d.dtype == e.dtype == np.float64
        assert reflections == reflections_ref
        assert d.tobytes() == d_ref.tobytes()
        assert np.abs(e).tobytes() == np.abs(e_ref).tobytes()

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_graph_matrices_and_blocks_match_the_references(self, name):
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        kinds = set()
        for data in graph_matrices_and_blocks(group):
            if data.shape[0] >= 2:
                kinds.add(np.iscomplexobj(data))
                self.assert_matches_reference(data)
        if name in ("PSL(2,7)", "A6", "S4"):
            assert kinds == {False, True}

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33])
    def test_random_matrices_match_the_references(self, n):
        for seed in range(3):
            self.assert_matches_reference(random_symmetric(n, seed=seed))
            self.assert_matches_reference(random_hermitian(n, seed=seed))

    def test_zero_pivots_keep_their_sign_rule(self):
        # real -0.0 and +0.0 pivots reflect to opposite signs, a complex zero
        # pivot to -||x||; an already reduced column is skipped
        for x0 in (0.0, -0.0):
            m = random_symmetric(6, seed=5)
            m[1, 0] = m[0, 1] = x0
            m[4, 3] = m[5, 3] = m[3, 4] = m[3, 5] = 0.0
            self.assert_matches_reference(m)
        h = random_hermitian(6, seed=5)
        h[1, 0] = h[0, 1] = 0.0
        self.assert_matches_reference(h)


class TestBatchedMultisection:
    """A batched call gives each matrix bit for bit the Spectrum, counters
    included, of the per-matrix solver (`solo_multisection`)."""

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_verify_batches_match_the_solo_reference(self, name):
        graph, calls = verify_batches(name)
        # the top graph's blocks, then the blocks of every class graph that a
        # split needs; a null graph has no block, and a quasihamiltonian group
        # no split
        if graph.is_null():
            assert calls == []
        else:
            assert 1 <= len(calls) <= 2
            assert 2 <= len(calls[0]) and max(m.dimension for m in calls[0]) < graph.vertex_count
        for matrices in calls:
            assert_batch_matches_solo_reference(matrices)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_mixed_batches_match_the_solo_reference(self, s4, seed):
        matrices = mixed_matrices(s4)
        random.Random(seed).shuffle(matrices)
        assert_batch_matches_solo_reference(matrices)

    def test_spectrum_is_independent_of_companions_and_position(self, s4):
        matrices = mixed_matrices(s4)
        alone = [counters(solve(m)) for m in matrices]
        rng = random.Random(11)
        for _ in range(4):
            order = rng.sample(range(len(matrices)), rng.randint(1, len(matrices)))
            batch = eigenvalues_symmetric(*(matrices[i] for i in order))
            assert [counters(spec) for spec in batch] == [alone[i] for i in order]
        doubled = eigenvalues_symmetric(*matrices, *matrices)
        assert [counters(spec) for spec in doubled] == alone + alone

    def test_empty_call_returns_no_spectrum(self):
        assert eigenvalues_symmetric() == ()

    def test_pair_peak_memory_stays_at_the_solo_level(self, psl27_graph):
        # the Sturm pass gathers one row at a time into shift-length buffers;
        # a (rows x shifts) gather would hold the whole pair's shifts per row
        pair = adjacency_matrix(psl27_graph), laplacian_matrix(psl27_graph)

        def peak(solver, *args):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                solver(*args)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        solo = max(peak(solo_multisection, m.data) for m in pair)
        assert peak(eigenvalues_symmetric, *pair) <= 1.25 * solo

    def test_error_names_the_failing_member(self, monkeypatch):
        # positions differ from the largest-first order the pass uses
        matrices = [DenseSymMatrix(random_symmetric(n, seed=n)) for n in (6, 4, 9)]
        real = latspec.spectral._sturm_counts

        def falling_for_six(rows, dims, pivmins, x, owner):
            counts = real(rows, dims, pivmins, x, owner)
            mine = np.flatnonzero(dims[owner] == 6)
            counts[mine[1::2]] = 0
            return counts

        monkeypatch.setattr(latspec.spectral, "_sturm_counts", falling_for_six)
        with pytest.raises(NumericError, match=r"matrix 0 \(dimension 6\): Sturm counts fell"):
            eigenvalues_symmetric(*matrices)
        eigenvalues_symmetric(*matrices[1:])  # the others still solve

    def test_overflow_in_the_shared_pass_names_the_matrix(self, monkeypatch):
        matrices = [DenseSymMatrix(random_symmetric(n, seed=n)) for n in (4, 9, 6)]
        real = latspec.spectral._sturm_counts

        def overflowing_for_four(rows, dims, pivmins, x, owner):
            if (dims[owner] == 4).any():
                raise FloatingPointError("overflow encountered in divide")
            return real(rows, dims, pivmins, x, owner)

        monkeypatch.setattr(latspec.spectral, "_sturm_counts", overflowing_for_four)
        with pytest.raises(NumericError, match=r"matrix 0 \(dimension 4\): .*overflowed"):
            eigenvalues_symmetric(*matrices)

    def test_overflowing_interval_names_the_matrix(self):
        # the Gershgorin interval [-1e308, 1e308] is too wide for a double
        wide = DenseSymMatrix(np.diag([1e308, -1e308]))
        good = DenseSymMatrix(random_symmetric(5, seed=5))
        with pytest.raises(NumericError, match=r"matrix 1 \(dimension 2\): .*overflowed"):
            eigenvalues_symmetric(good, wide, good)

    def test_input_error_names_the_failing_member(self):
        bad = DenseSymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        good = DenseSymMatrix(np.ones((3, 3)))
        with pytest.raises(InputError, match=r"matrix 1 \(dimension 2\): matrix is not symmetric"):
            eigenvalues_symmetric(good, bad, good)
        infinite = np.zeros((4, 4))
        infinite[2, 2] = math.inf
        with pytest.raises(InputError, match=r"matrix 2 \(dimension 4\)"):
            eigenvalues_symmetric(good, good, DenseSymMatrix(infinite))

    def test_step_cap_is_counted_per_matrix(self, monkeypatch, s4):
        # a multiple of the identity starts closed and takes no step, so with
        # the cap at 0 only the Laplacian, solved after it, exceeds the cap
        lap = laplacian_matrix(graph_of(s4))
        identity = DenseSymMatrix(2.0 * np.eye(30))
        monkeypatch.setattr(latspec.spectral, "MAX_STEPS", 0)
        assert solve(identity).steps == 0
        with pytest.raises(NumericError, match=r"matrix 0 \(dimension 26\): bisection"):
            eigenvalues_symmetric(lap, identity)


class TestSpectralSums:
    def test_a4_laplacian_sum(self, a4):
        spec = solve(laplacian_matrix(graph_of(a4)))
        total, _ = spectral_sums(spec)
        assert abs(total - 36) < 1e-9

    def test_triangle_sum(self, s3):
        spec = solve(laplacian_matrix(graph_of(s3)))
        assert abs(spectral_sums(spec)[0] - 6) < 1e-9

    def test_adjacency_sum_is_zero(self, s4):
        g = graph_of(s4)
        spec = solve(adjacency_matrix(g))
        assert abs(spectral_sums(spec)[0]) <= 1e-8 * max(1, 2 * g.edge_count)

    def test_explicit_values(self):
        total, squares = spectral_sums(Spectrum((1.0, 2.0, 3.0)))
        assert total == 6.0
        assert squares == 14.0


class TestTraceIdentities:
    def test_a4(self, a4):
        g = graph_of(a4)
        adj = solve(adjacency_matrix(g))
        lap = solve(laplacian_matrix(g))
        checks = verify_trace_identities(2 * g.edge_count, adj, lap)
        assert all(c["passed"] for c in checks)
        by_name = {c["name"]: c for c in checks}
        assert by_name["laplacian_sum_vs_edges"]["rhs"] == 36.0

    def test_null_graph_all_zero(self, c6):
        g = graph_of(c6)
        adj = solve(adjacency_matrix(g))
        lap = solve(laplacian_matrix(g))
        checks = verify_trace_identities(2 * g.edge_count, adj, lap)
        assert all(c["passed"] for c in checks)
        assert all(c["lhs"] == 0.0 and c["rhs"] == 0.0 for c in checks)

    def test_s4_sum_matches_exhaustive_pair_count(self, s4):
        # all 900 ordered subgroup pairs, counted independently of the graph
        lattice = enumerate_subgroups(s4)
        non_permuting = sum(
            1
            for a in range(lattice.size)
            for b in range(lattice.size)
            if not lattice.products_commute(a, b)
        )
        assert non_permuting == 390
        g = graph_of(s4)
        assert 2 * g.edge_count == non_permuting
        lap = solve(laplacian_matrix(g))
        assert abs(spectral_sums(lap)[0] - non_permuting) < 1e-8 * non_permuting

    def test_failure_is_reported_not_raised(self, s3):
        g = graph_of(s3)
        wrong = Spectrum((0.0, 1.0, 2.0))
        checks = verify_trace_identities(2 * g.edge_count, wrong, wrong)
        assert any(not c["passed"] for c in checks)
