import itertools

import numpy as np
import pytest

from latspec.catalog import CATALOG_NAMES, parse_group_spec
from latspec.errors import InputError
from latspec.graph import (
    DenseSymMatrix,
    adjacency_matrix,
    build_graph,
    dot_export,
    laplacian_matrix,
    vertex_label,
)
from latspec.lattice import enumerate_subgroups
from latspec.perm import Permutation, compose
from latspec.spectral import eigenvalues_symmetric

from conftest import connected_components


@pytest.fixture(scope="module")
def a4_graph(a4):
    return build_graph(enumerate_subgroups(a4))


@pytest.fixture(scope="module")
def s3_graph(s3):
    return build_graph(enumerate_subgroups(s3))


@pytest.fixture(scope="module")
def d4_graph(d4_order8):
    return build_graph(enumerate_subgroups(d4_order8))


class TestBuildGraph:
    def test_a4_shape(self, a4_graph):
        assert a4_graph.vertex_count == 7
        assert a4_graph.edge_count == 18
        assert sorted(a4_graph.degrees()) == [4, 4, 4, 6, 6, 6, 6]

    def test_a4_structure(self, a4_graph):
        # four order-3 vertices pairwise adjacent and adjacent to every
        # order-2 vertex; order-2 vertices pairwise non-adjacent
        lattice = a4_graph.lattice
        order_of = {
            pos: lattice.subgroup(sid).order
            for pos, sid in enumerate(a4_graph.vertex_ids)
        }
        adj = adjacency_matrix(a4_graph).data
        for u, v in itertools.combinations(range(a4_graph.vertex_count), 2):
            expected = not (order_of[u] == 2 and order_of[v] == 2)
            assert adj[u, v] == expected

    def test_s3_triangle(self, s3_graph):
        assert s3_graph.vertex_count == 3
        assert s3_graph.edge_count == 3
        assert s3_graph.degrees() == [2, 2, 2]

    def test_d4_four_cycle(self, d4_graph):
        assert d4_graph.vertex_count == 4
        assert d4_graph.edge_count == 4
        assert d4_graph.degrees() == [1, 1, 1, 1] or all(
            d == 2 for d in d4_graph.degrees()
        )
        assert connected_components(d4_graph) == 1

    def test_quasihamiltonian_gives_null_graph(self, c6):
        g = build_graph(enumerate_subgroups(c6))
        assert g.is_null()
        assert g.edge_count == 0

    def test_no_loops_and_symmetric(self, a4_graph):
        adj = adjacency_matrix(a4_graph).data
        for v in range(a4_graph.vertex_count):
            assert not adj[v, v]
        for u, v in itertools.combinations(range(a4_graph.vertex_count), 2):
            assert adj[u, v] == adj[v, u]

    def test_degree_sum_is_twice_edges(self, a4_graph, d4_graph, s3_graph):
        for g in (a4_graph, d4_graph, s3_graph):
            assert sum(g.degrees()) == 2 * g.edge_count
            assert adjacency_matrix(g).data[0].sum() == g.degrees()[0]

    def test_edges_match_raw_product_comparison(self, s3, a4, d4_order8, s4):
        # the lattice-order pair test against both complex products on every
        # ordered pair: by raw composition on small groups, by product_bits on
        # every catalog group (test_perm checks product_bits by raw composition)
        def by_composition(lattice):
            elements = list(map(Permutation, lattice.group.elements))
            members = [[elements[i] for i in s.member_indices()] for s in lattice.subgroups]
            return lambda a, b: ({compose(x, y) for x in members[a] for y in members[b]}
                                 == {compose(y, x) for x in members[a] for y in members[b]})

        def by_product_bits(lattice):
            return lambda a, b: lattice.product_bits(a, b) == lattice.product_bits(b, a)

        cases = [(group, by_composition)
                 for group in (s3, a4, d4_order8, parse_group_spec("Q8").group, s4)]
        cases += [(parse_group_spec(name).group, by_product_bits) for name in CATALOG_NAMES]
        for group, oracle in cases:
            lattice = enumerate_subgroups(group)
            commute = oracle(lattice)
            permute = {}
            for a, b in itertools.product(range(lattice.size), repeat=2):
                permute[a, b] = commute(a, b)
                assert lattice.products_commute(a, b) == permute[a, b], (group, a, b)
            g = build_graph(lattice)
            ids = g.vertex_ids
            adj = adjacency_matrix(g).data
            for u, v in itertools.combinations(range(g.vertex_count), 2):
                assert adj[u, v] == (not permute[ids[u], ids[v]])


class TestMatrices:
    def test_null_graph_matrices_are_empty(self, c6):
        g = build_graph(enumerate_subgroups(c6))
        assert adjacency_matrix(g).dimension == 0
        assert laplacian_matrix(g).dimension == 0

    def test_triangle_laplacian_rows(self, s3_graph):
        lap = laplacian_matrix(s3_graph).to_lists()
        for row in lap:
            assert sorted(row) == [-1, -1, 2]

    def test_laplacian_rows_sum_to_zero(self, a4_graph):
        lap = laplacian_matrix(a4_graph).data
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_adjacency_is_zero_one(self, a4_graph):
        adj = adjacency_matrix(a4_graph).data
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            DenseSymMatrix(np.zeros((2, 3)))

    def test_asymmetric_constructs_and_the_solver_rejects_it(self):
        # the constructor checks only the shape; symmetry is the solver's one check
        matrix = DenseSymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert matrix.dimension == 2
        with pytest.raises(InputError, match=r"matrix 0 \(dimension 2\): matrix is not symmetric"):
            eigenvalues_symmetric(matrix)

    def test_csv_round_trip(self, s3_graph):
        csv = laplacian_matrix(s3_graph).to_csv()
        rows = [[int(tok) for tok in line.split(",")] for line in csv.splitlines()]
        assert rows == laplacian_matrix(s3_graph).to_lists()


class TestDotExport:
    def test_null_graph(self, c6):
        g = build_graph(enumerate_subgroups(c6))
        text = dot_export(g)
        assert text.startswith("graph G {")
        assert text.rstrip().endswith("}")
        assert "--" not in text
        assert "label" not in text

    def test_triangle_has_three_nodes_three_edges(self, s3_graph):
        text = dot_export(s3_graph)
        assert text.count("label=") == 3
        assert text.count("--") == 3

    def test_a4_counts(self, a4_graph):
        text = dot_export(a4_graph)
        assert text.count("label=") == 7
        assert text.count("--") == 18

    def test_deterministic(self, s4):
        g1 = build_graph(enumerate_subgroups(s4))
        g2 = build_graph(enumerate_subgroups(s4))
        assert dot_export(g1) == dot_export(g2)

    def test_labels_use_generator_notation(self, s3_graph):
        lattice = s3_graph.lattice
        labels = [vertex_label(lattice, sid) for sid in s3_graph.vertex_ids]
        assert "<(1,2)>" in labels
