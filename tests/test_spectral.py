import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latspec.spectral
from latspec.catalog import CATALOG_NAMES, parse_group_spec
from latspec.errors import InputError, NumericError
from latspec.graph import DenseSymMatrix, adjacency_matrix, build_graph, laplacian_matrix
from latspec.lattice import enumerate_subgroups
from latspec.spectral import (
    DEFAULT_TOL,
    MAX_SWEEPS,
    Spectrum,
    _round_robin,
    _tangents,
    eigenvalues_symmetric,
    spectral_sums,
    verify_trace_identities,
)

from conftest import build


def graph_of(group):
    return build_graph(enumerate_subgroups(group))


class TestJacobi:
    def test_zero_matrix(self):
        spec = eigenvalues_symmetric(DenseSymMatrix(np.zeros((5, 5))))
        assert spec.values == (0.0,) * 5

    def test_empty_and_single(self):
        assert eigenvalues_symmetric(DenseSymMatrix(np.zeros((0, 0)))).values == ()
        got = eigenvalues_symmetric(DenseSymMatrix(np.array([[3.5]]))).values
        assert got == (3.5,)

    @pytest.mark.parametrize("gens_degree,expected", [
        (("(1,2,3);(2,3,4)", 4), (0, 4, 4, 7, 7, 7, 7)),
        (("(1,2);(1,2,3)", 3), (0, 3, 3)),
        (("(1,2,3,4);(1,3)", 4), (0, 2, 2, 4)),
    ])
    def test_known_laplacian_spectra(self, gens_degree, expected):
        gens, degree = gens_degree
        spec = eigenvalues_symmetric(laplacian_matrix(graph_of(build(degree, gens))))
        assert spec.rounded() == expected
        assert max(abs(v - r) for v, r in zip(spec.values, expected)) < 1e-9

    def test_matches_lapack_oracle_on_s4_graph(self, s4):
        lap = laplacian_matrix(graph_of(s4))
        ours = eigenvalues_symmetric(lap).values
        reference = sorted(np.linalg.eigvalsh(lap.data))
        assert len(ours) == 26
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-9

    def test_ascending_order(self, s4):
        values = eigenvalues_symmetric(laplacian_matrix(graph_of(s4))).values
        assert list(values) == sorted(values)

    def test_laplacian_values_nonnegative(self, s4):
        values = eigenvalues_symmetric(laplacian_matrix(graph_of(s4))).values
        assert min(values) > -1e-9

    def test_zero_multiplicity_counts_components(self, a4, s4):
        for group in (a4, s4):
            g = graph_of(group)
            values = eigenvalues_symmetric(laplacian_matrix(g)).values
            zeros = sum(1 for v in values if abs(v) < 1e-7)
            assert zeros == g.connected_components()

    def test_trace_preserved(self, a4):
        lap = laplacian_matrix(graph_of(a4))
        spec = eigenvalues_symmetric(lap)
        assert abs(float(np.trace(lap.data)) - math.fsum(spec.values)) < 1e-9

    def test_non_symmetric_rejected(self):
        m = DenseSymMatrix.__new__(DenseSymMatrix)
        object.__setattr__(m, "data", np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(InputError):
            eigenvalues_symmetric(m)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(InputError):
            eigenvalues_symmetric(DenseSymMatrix(np.zeros((2, 2))), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a nan or inf stop bound would end the iteration at once and
        # return the unrotated diagonal
        with pytest.raises(InputError):
            eigenvalues_symmetric(DenseSymMatrix(np.ones((3, 3)) - np.eye(3)), tol=tol)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_random_integer_matrices_match_lapack(self, rows):
        m = np.array(rows, dtype=float)
        m = m + m.T
        ours = eigenvalues_symmetric(DenseSymMatrix(m)).values
        reference = sorted(np.linalg.eigvalsh(m))
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-8

    def test_relabeled_graph_same_spectrum(self, a4):
        lap = laplacian_matrix(graph_of(a4)).data
        rng = np.random.default_rng(7)
        p = rng.permutation(lap.shape[0])
        shuffled = lap[np.ix_(p, p)]
        s1 = eigenvalues_symmetric(DenseSymMatrix(lap)).values
        s2 = eigenvalues_symmetric(DenseSymMatrix(shuffled)).values
        assert max(abs(a - b) for a, b in zip(s1, s2)) < 1e-9


@pytest.fixture(scope="module")
def psl27_graph():
    return graph_of(parse_group_spec("PSL(2,7)").group)


def random_symmetric(n, seed):
    m = np.random.default_rng(seed).integers(-5, 6, size=(n, n)).astype(float)
    return m + m.T


class TestRoundRobin:
    @pytest.mark.parametrize("m", [2, 4, 6, 10, 178])
    def test_each_sweep_meets_every_pair_once(self, m):
        layout, source = _round_robin(m)
        order, met = layout, set()
        for _ in range(m - 1):
            met.update(frozenset(order[2 * k:2 * k + 2].tolist()) for k in range(m // 2))
            order = order[source]
        assert len(met) == m * (m - 1) // 2
        assert order.tolist() == layout.tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 16, 17, 32, 33])
    def test_odd_and_even_dimensions_match_lapack(self, n):
        # an odd n runs with an idle padding index that must not leak
        m = random_symmetric(n, seed=n)
        spec = eigenvalues_symmetric(DenseSymMatrix(m))
        assert spec.dimension == n
        assert spec.rotations > 0
        reference = sorted(np.linalg.eigvalsh(m))
        assert max(abs(a - b) for a, b in zip(spec.values, reference)) < 1e-9

    def test_diagonal_input_needs_no_sweep(self):
        spec = eigenvalues_symmetric(DenseSymMatrix(np.diag([3.0, -1.0, 2.0, 0.5, 7.0])))
        assert spec.values == (-1.0, 0.5, 2.0, 3.0, 7.0)
        assert (spec.sweeps, spec.rotations, spec.off_norm) == (0, 0, 0.0)

    def test_negative_zero_tau_takes_the_nonnegative_branch(self):
        # equal diagonals and a_pq = -1 give tau = 0 / -2 = -0.0; the scalar
        # form takes tau >= 0 there, so t = +1, not -1 and not 0
        t = _tangents(np.array([0.0]), np.array([-1.0]), np.array([0.0]), np.array([True]))
        assert t.tolist() == [1.0]
        spec = eigenvalues_symmetric(DenseSymMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        assert spec.values == (-1.0, 1.0)
        assert (spec.sweeps, spec.rotations) == (1, 1)

    def test_tangents_match_the_scalar_formula(self):
        rng = np.random.default_rng(3)
        app, aqq = rng.normal(size=50), rng.normal(size=50)
        apq = rng.normal(size=50)
        live = np.abs(apq) > 0.1
        got = _tangents(app, apq, aqq, live)
        for k in range(50):
            if not live[k]:
                assert got[k] == 0.0
                continue
            tau = (aqq[k] - app[k]) / (2.0 * apq[k])
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            assert abs(got[k] - t) <= 1e-15 * abs(t)

    def test_non_convergence_raises(self, monkeypatch, s4):
        lap = laplacian_matrix(graph_of(s4))
        assert eigenvalues_symmetric(lap).sweeps > 1
        monkeypatch.setattr(latspec.spectral, "MAX_SWEEPS", 1)
        with pytest.raises(NumericError):
            eigenvalues_symmetric(lap)

    def test_repeat_solves_are_identical(self, s4):
        g = graph_of(s4)
        for matrix in (adjacency_matrix(g), laplacian_matrix(g)):
            first, second = eigenvalues_symmetric(matrix), eigenvalues_symmetric(matrix)
            assert first.values == second.values
            assert (first.sweeps, first.rotations, first.off_norm) == (
                second.sweeps, second.rotations, second.off_norm)

    @pytest.mark.parametrize("matrix_of", [adjacency_matrix, laplacian_matrix])
    def test_matches_lapack_oracle_on_psl27_top_graph(self, psl27_graph, matrix_of):
        matrix = matrix_of(psl27_graph)
        ours = eigenvalues_symmetric(matrix).values
        reference = sorted(np.linalg.eigvalsh(matrix.data))
        assert len(ours) == 177
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-9


def assert_converged(matrix):
    spec = eigenvalues_symmetric(matrix)
    norm = math.sqrt(float((matrix.data ** 2).sum()))
    assert spec.off_norm < DEFAULT_TOL * (1.0 + norm)
    assert spec.sweeps <= MAX_SWEEPS


class TestSolverCounters:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_graphs_converge_below_the_stop_bound(self, name):
        g = graph_of(parse_group_spec(name).group)
        assert_converged(adjacency_matrix(g))
        assert_converged(laplacian_matrix(g))

    def test_psl27_graph_converges_below_the_stop_bound(self, psl27_graph):
        assert_converged(adjacency_matrix(psl27_graph))
        assert_converged(laplacian_matrix(psl27_graph))

    def test_off_norm_is_measured_from_the_off_diagonal(self):
        # one tiny off-diagonal pair next to a large diagonal: the difference
        # of squared sums cannot see it, the entries themselves can
        m = np.diag([1e4, 2e4, 3e4])
        m[0, 1] = m[1, 0] = 1e-5
        off = latspec.spectral._off_norm(m, np.empty_like(m))
        assert off == pytest.approx(math.sqrt(2) * 1e-5, rel=1e-12)

    def test_counters_do_not_affect_equality(self):
        assert Spectrum((1.0,), sweeps=3, rotations=9, off_norm=1e-13) == Spectrum((1.0,))


class TestSpectralSums:
    def test_a4_laplacian_sum(self, a4):
        spec = eigenvalues_symmetric(laplacian_matrix(graph_of(a4)))
        total, _ = spectral_sums(spec)
        assert abs(total - 36) < 1e-9

    def test_triangle_sum(self, s3):
        spec = eigenvalues_symmetric(laplacian_matrix(graph_of(s3)))
        assert abs(spectral_sums(spec)[0] - 6) < 1e-9

    def test_adjacency_sum_is_zero(self, s4):
        g = graph_of(s4)
        spec = eigenvalues_symmetric(adjacency_matrix(g))
        assert abs(spectral_sums(spec)[0]) <= 1e-8 * max(1, 2 * g.edge_count)

    def test_explicit_values(self):
        total, squares = spectral_sums(Spectrum((1.0, 2.0, 3.0)))
        assert total == 6.0
        assert squares == 14.0


class TestTraceIdentities:
    def test_a4(self, a4):
        g = graph_of(a4)
        adj = eigenvalues_symmetric(adjacency_matrix(g))
        lap = eigenvalues_symmetric(laplacian_matrix(g))
        checks = verify_trace_identities(g, adj, lap)
        assert all(c.passed for c in checks)
        by_name = {c.name: c for c in checks}
        assert by_name["laplacian_sum_vs_edges"].rhs == 36.0

    def test_null_graph_all_zero(self, c6):
        g = graph_of(c6)
        adj = eigenvalues_symmetric(adjacency_matrix(g))
        lap = eigenvalues_symmetric(laplacian_matrix(g))
        checks = verify_trace_identities(g, adj, lap)
        assert all(c.passed for c in checks)
        assert all(c.lhs == 0.0 and c.rhs == 0.0 for c in checks)

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
        lap = eigenvalues_symmetric(laplacian_matrix(g))
        assert abs(spectral_sums(lap)[0] - non_permuting) < 1e-8 * non_permuting

    def test_failure_is_reported_not_raised(self, s3):
        g = graph_of(s3)
        wrong = Spectrum((0.0, 1.0, 2.0))
        checks = verify_trace_identities(g, wrong, wrong)
        assert any(not c.passed for c in checks)

    def test_csv_has_twelve_significant_digits(self, s3):
        spec = eigenvalues_symmetric(laplacian_matrix(graph_of(s3)))
        lines = spec.to_csv().splitlines()
        assert len(lines) == 3
        assert all(float(line) is not None for line in lines)
