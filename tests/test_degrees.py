import gc
import itertools
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latspec.degrees as degrees
import latspec.spectral as spectral
from latspec.catalog import (
    CATALOG_NAMES,
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    parse_group_spec,
    quaternion,
    symmetric,
)
from latspec.degrees import (
    f2_direct,
    f2_mobius,
    f2_split_adjacency,
    f2_split_laplacian,
    sd_direct,
    sd_spectral,
    sd_text,
    sd_via_f2,
    verify_identities,
)
from latspec.closed_forms import _PSL_F2_TABLE
from latspec.errors import ConsistencyError, DomainError, SizeError
from latspec.graph import DenseSymMatrix, adjacency_matrix, build_graph, laplacian_matrix
from latspec.lattice import SubgroupLattice, enumerate_subgroups
from latspec.perm import bits_of, generate_group, parse_permutation
from latspec.spectral import DEFAULT_TOL, Spectrum, eigenvalues_symmetric

from conftest import build, dense_block, double_loop_product, full_spectra, naive_closure


@pytest.fixture(scope="module")
def lat_a4():
    return enumerate_subgroups(alternating(4))


@pytest.fixture(scope="module")
def lat_s4():
    return enumerate_subgroups(symmetric(4))


@pytest.fixture(scope="module")
def lat_s3():
    return enumerate_subgroups(symmetric(3))


@pytest.fixture(scope="module")
def lat_d4():
    return enumerate_subgroups(dihedral(4))


@pytest.fixture(scope="module")
def lat_q8():
    return enumerate_subgroups(quaternion())


class TestSdDirect:
    # each sd route gives its count over |L|^2, an int; sd_text prints it reduced
    def test_a4(self, lat_a4):
        assert sd_direct(lat_a4) == int(lat_a4.permutability().sum()) == 64
        assert sd_text(lat_a4, sd_direct(lat_a4)) == "16/25"

    def test_q8_fully_permutes(self, lat_q8):
        assert sd_direct(lat_q8) == lat_q8.size ** 2
        assert sd_text(lat_q8, sd_direct(lat_q8)) == "1"

    def test_abelian(self):
        lattice = enumerate_subgroups(cyclic(12))
        assert sd_direct(lattice) == lattice.size ** 2

    def test_text_is_the_reduced_fraction(self, lat_a4, lat_s4, lat_s3, lat_d4):
        for lattice in (lat_a4, lat_s4, lat_s3, lat_d4):
            count = sd_direct(lattice)
            assert type(count) is int
            assert sd_text(lattice, count) == str(Fraction(count, lattice.size ** 2))

    def test_range(self, lat_s4, lat_s3, lat_d4):
        for lattice in (lat_s4, lat_s3, lat_d4):
            assert 0 < sd_direct(lattice) <= lattice.size ** 2


class TestSdSpectral:
    def test_a4(self, lat_a4):
        graph = build_graph(lat_a4)
        assert sd_spectral(lat_a4, graph) == 64
        assert sd_text(lat_a4, 64) == "16/25"

    def test_d4(self, lat_d4):
        graph = build_graph(lat_d4)
        assert 2 * graph.edge_count == 8
        assert sd_text(lat_d4, sd_spectral(lat_d4, graph)) == "23/25"

    def test_s3(self, lat_s3):
        graph = build_graph(lat_s3)
        assert 2 * graph.edge_count == 6
        assert sd_text(lat_s3, sd_spectral(lat_s3, graph)) == "5/6"


class TestSdViaF2:
    def test_a4_term_by_term(self, lat_a4):
        # 1 + 7*3 + 15 + 27 over 100
        assert sd_via_f2(lat_a4) == 1 + 7 * 3 + 15 + 27
        assert sd_text(lat_a4, sd_via_f2(lat_a4)) == "16/25"

    def test_trivial_group(self):
        lattice = enumerate_subgroups(generate_group(1, []))
        assert sd_via_f2(lattice) == 1

    def test_d4_agrees_with_spectral(self, lat_d4):
        assert sd_text(lat_d4, sd_via_f2(lat_d4)) == "23/25"


class TestF2Direct:
    @pytest.mark.parametrize("group_factory,expected", [
        (lambda: symmetric(4), 177),
        (lambda: alternating(4), 27),
        (lambda: elementary_abelian(2, 2), 15),
        (lambda: cyclic(2), 3),
        (lambda: cyclic(3), 3),
        (lambda: generate_group(1, []), 1),
        (lambda: alternating(5), 237),
    ])
    def test_known_values(self, group_factory, expected):
        assert f2_direct(enumerate_subgroups(group_factory())) == expected

    def test_monotone_floor(self, lat_s4, lat_d4, lat_q8):
        # pairs involving the whole group alone give 2|L| - 1
        for lattice in (lat_s4, lat_d4, lat_q8):
            assert f2_direct(lattice) >= 2 * lattice.size - 1

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_matches_the_double_loop_over_all_pairs(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        n = lattice.group.order
        full = (1 << n) - 1
        orders = [s.order for s in lattice.subgroups]
        expected = sum(
            1
            for a in range(lattice.size)
            for b in range(lattice.size)
            if orders[a] * orders[b] >= n and double_loop_product(lattice, a, b) == full
        )
        assert f2_direct(lattice) == expected

    def test_reads_no_pair_test(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("f2_direct must not use the lattice-order test")

        lattices = [enumerate_subgroups(symmetric(4)), enumerate_subgroups(alternating(5))]
        for name in ("products_commute", "join", "meet", "permutability"):
            monkeypatch.setattr(SubgroupLattice, name, forbidden)
        assert [f2_direct(lattice) for lattice in lattices] == [177, 237]

    def test_factorization_pairs_permute(self, lat_d4):
        n = lat_d4.group.order
        full = (1 << n) - 1
        for a in range(lat_d4.size):
            for b in range(lat_d4.size):
                if lat_d4.product_bits(a, b) == full:
                    assert lat_d4.products_commute(a, b)


class TestF2Mobius:
    def test_a4(self, lat_a4):
        assert f2_mobius(lat_a4) == 27

    def test_trivial(self):
        assert f2_mobius(enumerate_subgroups(generate_group(1, []))) == 1

    def test_d4_matches_direct(self, lat_d4):
        assert f2_mobius(lat_d4) == f2_direct(lat_d4)

    def test_s4(self, lat_s4):
        assert f2_mobius(lat_s4) == 177

    def test_q8(self, lat_q8):
        assert f2_mobius(lat_q8) == f2_direct(lat_q8)

    def test_reads_the_down_sets_and_enumerates_no_class_lattice(self, monkeypatch):
        # mu(X, S4) vanishes on the classes of C4, the non-normal V4 and the
        # double transpositions; each of the other 8 classes adds its
        # representative's down-set pairs, read off the top's matrix
        lattice = enumerate_subgroups(symmetric(4))
        nonzero = [rep for rep, _ in lattice.classes() if lattice.mobius(rep, lattice.top_id)]
        orders = sorted(lattice.subgroups[rep].order for rep in nonzero)
        assert orders == [1, 2, 3, 4, 6, 8, 12, 24]

        def refuse(group):
            raise AssertionError("a class lattice was enumerated")

        down_sets = []
        real_down_ids = SubgroupLattice.down_ids

        def recording(self, sid):
            down_sets.append(sid)
            return real_down_ids(self, sid)

        monkeypatch.setattr(degrees, "enumerate_subgroups", refuse)
        monkeypatch.setattr(SubgroupLattice, "down_ids", recording)
        assert f2_mobius(lattice) == 177
        # the top's term is the whole matrix's sum, with no down-set copied
        assert sorted(down_sets) == sorted(set(nonzero) - {lattice.top_id})
        assert not any(key[0] == "own" for key in lattice.memo if isinstance(key, tuple))
        assert f2_mobius(lattice) == 177

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)", "A6"))
    def test_matches_f2_direct(self, name):
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        assert f2_mobius(lattice) == f2_direct(lattice)


def own_lattices(lattice):
    """Each subgroup's own lattice, enumerated from its standalone group."""
    return [enumerate_subgroups(lattice.standalone_group(sid)) for sid in range(lattice.size)]


def non_permuting_ids(own):
    """The ids whose own lattice has a pair of subgroups that do not permute."""
    return [sid for sid, lat in enumerate(own) if not lat.is_quasihamiltonian()]


class TestF2Splits:
    def test_a4_both_variants(self, lat_a4):
        assert f2_split_laplacian(lat_a4) == 27
        assert f2_split_adjacency(lat_a4) == 27

    def test_a4_term_structure(self, lat_a4):
        # the split reduces to 4 - 16 - 25 + (100 - 36) for this group
        own = own_lattices(lat_a4)
        assert non_permuting_ids(own) == [lat_a4.top_id]
        k_total = sum(
            own[k].size ** 2 * lat_a4.mobius(k, lat_a4.top_id)
            for k in range(lat_a4.size) if own[k].is_quasihamiltonian()
        )
        assert k_total == 4 - 16 - 25
        graph = build_graph(lat_a4)
        assert (lat_a4.size ** 2 - 2 * graph.edge_count) == 64

    def test_s4_uses_recursion_values(self, lat_s4):
        assert f2_split_laplacian(lat_s4) == 177
        assert f2_split_adjacency(lat_s4) == 177

    def test_every_class_holds_a_spectrum_pair(self):
        # a fresh lattice: the module's S4 shares its memo with other tests
        lattice = enumerate_subgroups(symmetric(4))
        assert f2_split_laplacian(lattice) == f2_split_adjacency(lattice) == 177
        nulls = 0
        for rep, _ in lattice.classes():
            own = degrees._own(lattice, rep)
            adjacency, laplacian = own.memo["spectra"]
            if own.is_quasihamiltonian():
                # the null graph enters the sum with 2|E| = 0 and no block
                assert degrees.top_graph(own).is_null()
                assert adjacency.values == laplacian.values == ()
                nulls += 1
            else:
                assert adjacency.dimension == laplacian.dimension > 0
        # of S4's 11 classes, all but S3, D8, A4 and S4 itself
        assert nulls == 7

    @pytest.mark.parametrize("kind, route, shifts, check", [
        ("adjacency", f2_split_laplacian, {-1: 0.5}, "adjacency_sum_vs_zero"),
        ("adjacency", f2_split_adjacency, {0: -0.5, -1: 0.5}, "adjacency_square_sum_vs_edges"),
        ("laplacian", f2_split_adjacency, {-1: 0.5}, "laplacian_sum_vs_edges"),
    ], ids=["adjacency_sum", "adjacency_squares", "laplacian_sum"])
    def test_each_route_checks_both_spectral_forms(self, kind, route, shifts, check):
        # a fresh lattice: the split is summed once, so A4's spectra are
        # corrupted before the first sum reads them
        lattice = enumerate_subgroups(symmetric(4))
        [a4] = [degrees._own(lattice, rep) for rep, _ in lattice.classes()
                if lattice.subgroup(rep).order == 12]
        pair = dict(zip(("adjacency", "laplacian"), degrees.graph_spectra(a4)))
        values = list(pair[kind].values)
        for i, shift in shifts.items():
            values[i] += shift
        pair[kind] = Spectrum(tuple(values))
        a4.memo["spectra"] = (pair["adjacency"], pair["laplacian"])
        message = rf"^{check}: floating spectrum sum .* disagrees with exact 2\|E\| = 36$"
        with pytest.raises(ConsistencyError, match=message):  # A4's graph has 18 edges
            route(lattice)
        assert "split" not in lattice.memo

    def test_minimal_nonabelian_partition(self, lat_s3):
        assert non_permuting_ids(own_lattices(lat_s3)) == [lat_s3.top_id]
        assert f2_split_laplacian(lat_s3) == f2_direct(lat_s3) == 17

    def test_quasihamiltonian_rejected(self, lat_q8):
        with pytest.raises(DomainError):
            f2_split_laplacian(lat_q8)
        with pytest.raises(DomainError):
            f2_split_adjacency(lat_q8)

    def test_abelian_rejected(self):
        lattice = enumerate_subgroups(cyclic(6))
        with pytest.raises(DomainError):
            f2_split_laplacian(lattice)


class TestRandomGroups:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2))
    def test_all_routes_agree_on_arbitrary_small_groups(self, image_lists):
        from latspec.perm import Permutation

        group = generate_group(4, [Permutation(tuple(im)) for im in image_lists])
        lattice = enumerate_subgroups(group)
        graph = build_graph(lattice)
        sd = sd_direct(lattice)  # over |L|^2
        assert 2 * graph.edge_count == lattice.size ** 2 - sd
        assert sd == sd_spectral(lattice, graph) == sd_via_f2(lattice)
        f2 = f2_direct(lattice)
        assert f2 == f2_mobius(lattice)
        if sd != lattice.size ** 2:
            assert f2 == f2_split_laplacian(lattice) == f2_split_adjacency(lattice)


class TestVerifyIdentities:
    def test_a4_all_pass(self, lat_a4):
        report = verify_identities(lat_a4)
        assert report["internal_ok"]
        assert report["edge_count"] == 18
        assert report["sd"] == {
            "direct": "16/25",
            "spectral": "16/25",
            "via_f2": "16/25",
        }
        assert report["notes"] == []

    def test_abelian_all_pass(self):
        report = verify_identities(enumerate_subgroups(cyclic(12)))
        assert report["internal_ok"]
        assert report["edge_count"] == 0
        assert report["quasihamiltonian"]
        assert report["f2"]["split_laplacian"] is None
        assert report["f2"]["split_adjacency"] is None

    def test_q8_quasihamiltonian(self, lat_q8):
        report = verify_identities(lat_q8)
        assert report["internal_ok"]
        assert report["quasihamiltonian"]
        assert report["sd"]["direct"] == "1"
        assert report["vertex_count"] == 0

    def test_s4_passes_with_discrepancy_notes(self, lat_s4):
        report = verify_identities(lat_s4)
        assert report["internal_ok"]
        assert len(report["notes"]) == 3
        joined = " ".join(report["notes"])
        assert "-24" in joined and "-12" in joined
        assert "390" in joined and "378" in joined
        assert "4 Klein four-subgroups" in joined and "3" in joined

    def test_notes_only_for_that_group(self, lat_a4, lat_d4):
        assert verify_identities(lat_a4)["notes"] == []
        assert verify_identities(lat_d4)["notes"] == []

    def test_json_dict_round_trips(self, lat_a4):
        import json

        report = verify_identities(lat_a4)
        text = json.dumps(report, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["sd"]["direct"] == "16/25"
        assert parsed["f2"]["direct"] == 27
        assert parsed["internal_ok"] is True

    def test_one_standalone_lattice_per_class(self, monkeypatch):
        # S4 has 11 conjugacy classes of subgroups; every one but the top
        # gets its own lattice, once
        lattice = enumerate_subgroups(symmetric(4))
        built = []

        def counting(group):
            built.append(group.order)
            return enumerate_subgroups(group)

        monkeypatch.setattr(degrees, "enumerate_subgroups", counting)
        assert verify_identities(lattice)["internal_ok"]
        assert sorted(built) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12]

    def test_a6_all_routes_match_the_published_value(self):
        # A6 = PSL(2,9): 501 subgroups, a 499-vertex top graph
        lattice = enumerate_subgroups(alternating(6))
        assert lattice.size == 501
        report = verify_identities(lattice)
        assert report["internal_ok"]
        assert report["f2"] == dict.fromkeys(
            ("direct", "mobius", "split_laplacian", "split_adjacency"), _PSL_F2_TABLE[9])
        assert _PSL_F2_TABLE[9] == 2033

    def test_memo_is_freed_with_its_lattice(self):
        lattice = enumerate_subgroups(symmetric(4))
        verify_identities(lattice)
        ref = weakref.ref(lattice)
        del lattice
        gc.collect()
        assert ref() is None


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


class TestIndependentRoutes:
    """Set products and the lattice-order pair test are separate computations:
    corrupting either one alone must break a cross-check."""

    def test_corrupt_set_product_is_caught(self, monkeypatch):
        lattice = enumerate_subgroups(symmetric(4))
        original = SubgroupLattice.product_bits

        def drop_one_element(self, a, b):
            out = original(self, a, b)
            if self is lattice and (a, b) == (lattice.top_id, lattice.bottom_id):
                out &= ~(1 << lattice.group.identity_index)
            return out

        monkeypatch.setattr(SubgroupLattice, "product_bits", drop_one_element)
        report = verify_identities(lattice)
        assert not report["internal_ok"]
        assert report["f2"]["direct"] == 176 and report["f2"]["mobius"] == 177
        assert not _check(report, "f2_methods_equal")["passed"]

    def test_corrupt_product_of_a_class_rep_drops_f2_by_its_class_size(self, monkeypatch):
        lattice = enumerate_subgroups(symmetric(4))
        sizes = Counter(lattice.class_reps())
        full = (1 << lattice.group.order) - 1
        a, b = next(
            (a, b) for a in sizes for b in range(lattice.size)
            if sizes[a] > 1 and b != lattice.top_id and lattice.product_bits(a, b) == full
        )
        original = SubgroupLattice.product_bits

        def drop_one_element(self, x, y):
            out = original(self, x, y)
            if self is lattice and (x, y) == (a, b):
                out &= ~(1 << lattice.group.identity_index)
            return out

        monkeypatch.setattr(SubgroupLattice, "product_bits", drop_one_element)
        report = verify_identities(lattice)
        assert not report["internal_ok"]
        assert report["f2"]["direct"] == 177 - sizes[a] and report["f2"]["mobius"] == 177
        assert not _check(report, "f2_methods_equal")["passed"]

    def test_corrupt_pair_test_is_caught(self, monkeypatch):
        # the pair test runs on the rows of class representatives only. These
        # two representatives, <(2,3,4)> and the S3 that normalizes it, have
        # the same normalizer, so the flip spreads to a symmetric set of entries
        lattice = enumerate_subgroups(symmetric(4))
        group = lattice.group
        pair = {
            lattice.id_of_members(bits_of(group.index_of(p) for p in naive_closure(
                [parse_permutation(t, 4) for t in gens])))
            for gens in (["(2,3,4)"], ["(2,3,4)", "(3,4)"])
        }
        assert all(lattice.class_reps()[sid] == sid for sid in pair)
        original = SubgroupLattice.products_commute

        def flip_one_pair(self, a, b):
            out = original(self, a, b)
            return not out if self is lattice and {a, b} == pair else out

        monkeypatch.setattr(SubgroupLattice, "products_commute", flip_one_pair)
        report = verify_identities(lattice)
        assert not report["internal_ok"]
        assert not _check(report, "edge_count_vs_f2_sum")["passed"]
        # both sides of this one come from the pair test, so it cannot tell
        assert _check(report, "edge_count_vs_sd")["passed"]


class TestBlockBudget:
    def test_each_bound_holds_at_its_figure_and_fails_one_below(self, monkeypatch):
        # S4's graph splits into a real 12, a complex 3 and a real 8 per
        # matrix, and one call reduces both matrices
        lattice = enumerate_subgroups(symmetric(4))
        work = 2 * (12 ** 3 + 4 * 3 ** 3 + 8 ** 3)
        monkeypatch.setattr(degrees, "BLOCK_WORK_LIMIT", work - 1)
        with pytest.raises(SizeError, match=f"BLOCK_WORK_LIMIT = {work - 1}"):
            degrees.graph_spectra(lattice)
        monkeypatch.setattr(degrees, "BLOCK_WORK_LIMIT", work)
        assert degrees.graph_spectra(lattice)[1].dimension == 26


def counters(spectrum):
    return (spectrum.values, spectrum.reflections, spectrum.steps, spectrum.width,
            spectrum.shifts)


def verify_calls(lattice, monkeypatch):
    """Per solver call that `verify_identities` makes: its matrices, the
    spectra it returns and the entries of its multisection."""
    calls, entries = [], []
    real_solve, real_multisection = degrees.eigenvalues_symmetric, spectral._multisection

    def multisection(batch):
        entries.append(batch)
        return real_multisection(batch)

    def recording(*matrices):
        spectra = real_solve(*matrices)
        [batch] = entries  # one multisection per call
        entries.clear()
        calls.append((matrices, spectra, batch))
        return spectra

    monkeypatch.setattr(spectral, "_multisection", multisection)
    monkeypatch.setattr(degrees, "eigenvalues_symmetric", recording)
    verify_identities(lattice)
    return calls


def reduction_key(matrix):
    """The bytes of a matrix's reduction: d, the moduli |e| and the reflection count."""
    d, e, reflections = spectral._tridiagonalize(np.asarray(matrix.data))
    return d.tobytes(), e.tobytes(), reflections


class TestSymmetryBlocks:
    """Each graph spectrum is solved in symmetry-adapted blocks; the full
    matrix, solved as it is (`full_spectra`), is the oracle."""

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)", "A6"))
    def test_merged_blocks_match_the_full_solve(self, name):
        # the golden files' rule: twice the stop bound tol * (1 + ||L||_F),
        # plus one unit in the 12th significant digit
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        top = enumerate_subgroups(group)
        lattices = [top] + [enumerate_subgroups(top.standalone_group(rep))
                            for rep in sorted(set(top.class_reps()) - {top.top_id})]
        for lattice in lattices:
            graph = degrees.top_graph(lattice)
            adjacency, laplacian = degrees.graph_spectra(lattice)
            lap = laplacian_matrix(graph).data
            ftol = 2 * DEFAULT_TOL * (1 + float(np.sqrt((lap * lap).sum())))
            for ours, full in zip((adjacency, laplacian), full_spectra(graph)):
                assert len(ours.values) == len(full.values) == graph.vertex_count
                for a, b in zip(ours.values, full.values):
                    assert abs(a - b) <= ftol + 1e-11 * max(abs(a), abs(b)), (name, a, b)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_blocks_read_off_representative_rows_match_the_dense_blocks(self, name):
        # the oracle gathers each block from the whole dense matrix; real
        # blocks are the same exact integers over the same roots, complex
        # ones differ in summation order only
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        top = enumerate_subgroups(group)
        lattices = [top] + [enumerate_subgroups(top.standalone_group(rep))
                            for rep in sorted(set(top.class_reps()) - {top.top_id})]
        for lattice in lattices:
            graph = build_graph(lattice)
            for *basis, _ in degrees._symmetry_blocks(lattice, graph):
                for laplacian, matrix_of in ((False, adjacency_matrix), (True, laplacian_matrix)):
                    ours = degrees._block(graph._adj, laplacian, *basis)
                    ref = dense_block(matrix_of(graph).data, *basis)
                    assert (ours.shape, ours.dtype) == (ref.shape, ref.dtype)
                    if np.iscomplexobj(ref):
                        bound = 1e-13 * max(1.0, float(np.abs(ref).max()))
                        assert float(np.abs(ours - ref).max()) <= bound, (name, laplacian)
                        assert np.array_equal(ours, ours.T.conj())
                    else:
                        assert ours.tobytes() == ref.tobytes(), (name, laplacian)

    @pytest.mark.parametrize("name", ["S5", "perm6:(1,2,3);(2,3,4,5,6)", "PSL(2,7)"])
    def test_chunked_blocks_are_the_one_chunk_blocks_bit_for_bit(self, name, monkeypatch):
        # the top graph and every class graph, both matrices; chunks of 4 rows
        # split every block with more than 4 orbits, and a huge chunk is the
        # one-shot build
        top = enumerate_subgroups(parse_group_spec(name).group)
        lattices = [top] + [enumerate_subgroups(top.standalone_group(rep))
                            for rep in sorted(set(top.class_reps()) - {top.top_id})]
        split = 0
        for lattice in lattices:
            graph = build_graph(lattice)
            for *basis, _ in degrees._symmetry_blocks(lattice, graph):
                split += basis[2].size > 4
                for laplacian in (False, True):
                    monkeypatch.setattr(degrees, "BLOCK_CHUNK_ROWS", 4)
                    chunked = degrees._block(graph._adj, laplacian, *basis)
                    monkeypatch.setattr(degrees, "BLOCK_CHUNK_ROWS", 10 ** 9)
                    whole = degrees._block(graph._adj, laplacian, *basis)
                    assert (chunked.shape, chunked.dtype) == (whole.shape, whole.dtype)
                    assert chunked.tobytes() == whole.tobytes(), (name, laplacian)
        assert split

    def test_singleton_orbits_give_the_full_matrix_as_its_one_block(self):
        # the identity's action: every vertex its own orbit, one character
        lattice = enumerate_subgroups(build(7, "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"))
        graph = build_graph(lattice)
        orbits, exponent = degrees._cyclic_orbits(list(range(graph.vertex_count)))
        assert orbits == [[w] for w in range(graph.vertex_count)]
        basis = degrees._cyclic_character(orbits, exponent, 1, 0)
        for laplacian, matrix_of in ((False, adjacency_matrix), (True, laplacian_matrix)):
            data = matrix_of(graph).data
            assert degrees._block(graph._adj, laplacian, *basis).tobytes() == data.tobytes()

    def test_odd_order_group_splits_into_one_by_one_blocks(self):
        # the element of order 7 moves the 7 vertices in one orbit; c^2 and
        # c^4 are conjugate to c, so chi_1 ... chi_6 form one class
        lattice = enumerate_subgroups(build(7, "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"))
        assert lattice.group.order == 21
        graph = build_graph(lattice)
        assert graph.vertex_count == 7
        blocks = degrees._symmetry_blocks(lattice, graph)
        assert [(sizes.size, count) for *_, sizes, count in blocks] == [(1, 1), (1, 6)]
        adjacency, laplacian = degrees.graph_spectra(lattice)
        for ours, full in zip((adjacency, laplacian), full_spectra(graph)):
            assert max(abs(a - b) for a, b in zip(ours.values, full.values)) < 1e-12

    def test_psl27_splits_into_blocks_of_27_and_25(self):
        lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
        graph = build_graph(lattice)
        assert degrees._largest_cyclic(lattice.group)[1] == 7
        blocks = degrees._symmetry_blocks(lattice, graph)
        assert [(sizes.size, count) for *_, sizes, count in blocks] == [(27, 1), (25, 6)]
        assert 27 + 6 * 25 == graph.vertex_count

    @pytest.mark.parametrize("name, blocks", [
        # the groups whose largest element order k is at most the order of an
        # elementary abelian 2-subgroup: the complex block is one class of two
        ("S4", [(12, False, 1), (3, True, 2), (8, False, 1)]),
        ("PGL(2,3)", [(12, False, 1), (3, True, 2), (8, False, 1)]),
        ("A4", [(3, False, 1), (2, True, 2)]),
        ("D4", [(2, False, 1), (2, False, 1)]),
    ])
    def test_small_exponent_groups_split_under_their_largest_cyclic_subgroup(self, name, blocks):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        graph = build_graph(lattice)
        got = degrees._symmetry_blocks(lattice, graph)
        assert [(sizes.size, np.iscomplexobj(weights), count)
                for _, weights, _, sizes, count in got] == blocks
        assert sum(size * count for size, _, count in blocks) == graph.vertex_count

    @pytest.mark.parametrize("name", ["C1", "C2", "E8", "Q8"])
    def test_null_graphs_have_no_block(self, name):
        # quasihamiltonian, C1 included, whose largest order is 1
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        graph = build_graph(lattice)
        assert graph.is_null()
        assert degrees._symmetry_blocks(lattice, graph) == []
        assert degrees.graph_spectra(lattice)[0].values == ()

    @pytest.mark.parametrize("name, powers, classes", [
        # c^2 is not conjugate to c in A5 or D8; in PSL(2,7) the squares are
        ("A5", [1, 4], [[0], [1, 4], [2, 3]]),
        ("PSL(2,7)", [1, 2, 4], [[0], [1, 2, 3, 4, 5, 6]]),
        ("D8", [1, 7], [[0], [1, 7], [2, 6], [3, 5], [4]]),
        ("M16", [1, 5], [[0], [1, 3, 5, 7], [2, 6], [4]]),
    ])
    def test_character_classes_follow_the_conjugate_powers(self, name, powers, classes):
        group = parse_group_spec(name).group
        c, k = degrees._largest_cyclic(group)
        assert degrees._conjugate_powers(group, c, k) == powers
        assert degrees._character_classes(group, c, k) == classes
        # by raw conjugation: c^u is some g^-1 c g exactly for the listed u
        table = group.mul_table
        conjugates = {table[table[group.inverse_index(g)][c]][g] for g in range(group.order)}
        power, found = c, []
        for u in range(1, k):
            if power in conjugates:
                found.append(u)
            power = table[power][c]
        assert found == powers

    @pytest.mark.parametrize("name", ["PSL(2,7)", "A5", "D5", "D6"])
    def test_every_character_in_a_class_gives_the_spectrum_of_its_representative(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        graph = build_graph(lattice)
        group = lattice.group
        c, k = degrees._largest_cyclic(group)
        orbits, exponent = degrees._cyclic_orbits(degrees._vertex_action(lattice, graph, c))
        classes = degrees._character_classes(group, c, k)
        assert sorted(j for members in classes for j in members) == list(range(k))
        lap = laplacian_matrix(graph).data
        ftol = 2 * DEFAULT_TOL * (1 + float(np.sqrt((lap * lap).sum())))
        for laplacian in (False, True):
            dimension = 0
            for members in classes:
                bases = [degrees._cyclic_character(orbits, exponent, k, j) for j in members]
                if bases[0] is None:
                    assert bases == [None] * len(members)
                    continue
                blocks = [degrees._block(graph._adj, laplacian, *basis) for basis in bases]
                for j, block in zip(members, blocks):
                    # real characters keep exact integer sums
                    assert np.iscomplexobj(block) == (2 * j % k != 0)
                    assert np.array_equal(block, block.T.conj())
                dimension += sum(block.shape[0] for block in blocks)
                first, *rest = eigenvalues_symmetric(*map(DenseSymMatrix, blocks))
                for spectrum in rest:
                    for a, b in zip(first.values, spectrum.values):
                        assert abs(a - b) <= ftol + 1e-11 * max(abs(a), abs(b)), (name, members)
            assert dimension == graph.vertex_count

    def test_merged_counters_sum_work_and_take_the_largest_steps_and_width(self):
        lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
        graph = build_graph(lattice)
        blocks = degrees._symmetry_blocks(lattice, graph)
        parts = eigenvalues_symmetric(*(
            DenseSymMatrix(degrees._block(graph._adj, False, *basis)) for *basis, _ in blocks))
        merged = degrees.graph_spectra(lattice)[0]
        assert merged.values == tuple(sorted(
            v for part, (*_, count) in zip(parts, blocks) for v in part.values * count))
        assert merged.reflections == sum(part.reflections for part in parts)
        assert merged.shifts == sum(part.shifts for part in parts)
        assert merged.steps == max(part.steps for part in parts)
        assert merged.width == max(part.width for part in parts)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_no_verify_multisection_holds_two_equal_reductions(self, name, monkeypatch):
        # every matrix of dimension 2 or more has one multisection entry, its
        # reduction's, and no two entries share a reduction; matrices with
        # one reduction, byte-equal blocks among them, get one Spectrum
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        for matrices, spectra, entries in verify_calls(lattice, monkeypatch):
            keys = [t.key for t in entries]
            assert len(keys) == len(set(keys))
            first = {}
            for matrix, spectrum in zip(matrices, spectra):
                if matrix.dimension >= 2:
                    assert first.setdefault(reduction_key(matrix), spectrum) is spectrum
            assert set(first) == set(keys)
            data = [(m.data.shape, m.data.dtype, m.data.tobytes()) for m in matrices]
            for i, j in itertools.combinations(range(len(matrices)), 2):
                if data[i] == data[j]:
                    assert spectra[i] == spectra[j]

    def test_coinciding_blocks_share_one_solve(self, monkeypatch):
        # PSL(2,7)'s two classes of S4 give the same complex 3 x 3 block of
        # each matrix; verify's one call solves it in one multisection entry
        lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
        [(matrices, spectra, entries)] = verify_calls(lattice, monkeypatch)
        s4s = [degrees._own(lattice, rep) for rep in sorted(set(lattice.class_reps()))
               if lattice.subgroups[rep].order == 24]
        assert len(s4s) == 2
        made = []  # per class, per matrix, the blocks
        for own in s4s:
            graph = degrees.top_graph(own)
            blocks = degrees._symmetry_blocks(own, graph)
            assert [(sizes.size, count) for *_, sizes, count in blocks] == [(12, 1), (3, 2), (8, 1)]
            made.append([[degrees._block(graph._adj, laplacian, *basis) for *basis, _ in blocks]
                         for laplacian in (False, True)])
        passed = [m.data.tobytes() for m in matrices]
        keys = [t.key for t in entries]
        for first, second in zip(*made):
            assert first[1].tobytes() == second[1].tobytes()
            at = [i for i, data in enumerate(passed) if data == first[1].tobytes()]
            assert len(at) == 2
            assert spectra[at[0]] is spectra[at[1]]
            assert keys.count(reduction_key(DenseSymMatrix(first[1]))) == 1
        for own in s4s:
            graph = degrees.top_graph(own)
            adjacency, laplacian = degrees.graph_spectra(own)
            assert adjacency.dimension == laplacian.dimension == graph.vertex_count == 26

    @pytest.mark.parametrize("name", ["S5", "PSL(2,7)"])
    def test_verify_holds_one_formed_block_at_a_time(self, name, monkeypatch):
        # a weak reference to each array `_block` returns: every block is
        # formed inside verify's one solver call, and each earlier one is
        # gone when the next is formed
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        real_block, real_solve = degrees._block, degrees.eigenvalues_symmetric
        formed, calls = [], []

        def block(*args):
            assert len(calls) == 1
            assert all(ref() is None for ref in formed)
            out = real_block(*args)
            formed.append(weakref.ref(out))
            return out

        def solve(*matrices):
            calls.append(len(matrices))
            return real_solve(*matrices)

        monkeypatch.setattr(degrees, "_block", block)
        monkeypatch.setattr(degrees, "eigenvalues_symmetric", solve)
        verify_identities(lattice)
        assert len(formed) == calls[0] > 2
