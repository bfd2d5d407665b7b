import itertools
import json
from array import array
import random
import time

import numpy as np
import pytest

from latspec.catalog import CATALOG_NAMES, alternating, parse_group_spec, symmetric
from latspec.errors import ConsistencyError, DomainError, InputError
from latspec.lattice import SubgroupLattice, enumerate_subgroups, hughes_subgroup
from latspec.perm import bits_of, compose, generate_group, iter_bits, parse_permutation

from conftest import (
    build,
    closure_standalone_group,
    cyclic_extension_oracle,
    lower_fixed_mobius,
    naive_closure,
    pair_closures,
    pairwise_containment,
    pairwise_permutability,
)


@pytest.fixture(scope="module")
def lat_s3(s3):
    return enumerate_subgroups(s3)


@pytest.fixture(scope="module")
def lat_s4(s4):
    return enumerate_subgroups(s4)


@pytest.fixture(scope="module")
def lat_a4(a4):
    return enumerate_subgroups(a4)


@pytest.fixture(scope="module")
def lat_d4(d4_order8):
    return enumerate_subgroups(d4_order8)


def brute_subgroups(group, max_gens=3):
    """Oracle: distinct closures of all generator subsets up to `max_gens` elements.

    Complete whenever every subgroup needs at most `max_gens` generators, which
    holds for all groups used here (cross-pinned by known lattice sizes).
    """
    from latspec.perm import Permutation

    out = {frozenset([Permutation.identity(group.degree)])}
    elems = [p for p in group.elements]
    for k in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, k):
            out.add(frozenset(naive_closure(list(combo))))
    return {frozenset(group.index_of(p) for p in s) for s in out}


def member_sets(lattice):
    return {frozenset(s.member_indices()) for s in lattice.subgroups}


def zeta_inverse_mobius(lattice):
    """Oracle: invert the zeta matrix of the containment order by forward substitution."""
    n = lattice.size
    leq = [[lattice.leq(a, b) for b in range(n)] for a in range(n)]
    mu = {}
    for a in range(n):
        for b in range(n):
            if not leq[a][b]:
                continue
            if a == b:
                mu[a, b] = 1
            else:
                mu[a, b] = -sum(
                    mu[a, z] for z in range(n)
                    if leq[a][z] and leq[z][b] and z != b
                )
    return mu


class TestEnumeration:
    @pytest.mark.parametrize("fixture,expected", [
        ("lat_s3", 6),
        ("lat_s4", 30),
        ("lat_a4", 10),
        ("lat_d4", 10),
    ])
    def test_known_lattice_sizes(self, fixture, expected, request):
        assert request.getfixturevalue(fixture).size == expected

    def test_prime_cyclic_has_two_subgroups(self):
        g = build(5, "(1,2,3,4,5)")
        assert enumerate_subgroups(g).size == 2

    @pytest.mark.parametrize("degree,gens", [
        (3, "(1,2);(1,2,3)"),
        (4, "(1,2,3,4);(1,3)"),
        (4, "(1,2,3);(2,3,4)"),
        (6, "(1,2);(3,4);(5,6)"),
        (6, "(1,2,3,4,5,6)"),
    ])
    def test_matches_brute_force(self, degree, gens):
        g = build(degree, gens)
        lattice = enumerate_subgroups(g)
        assert member_sets(lattice) == brute_subgroups(g)

    @pytest.mark.parametrize("name, size", [("A5", 59), ("S5", 156), ("PSL(2,7)", 179)])
    def test_matches_the_closures_of_all_pairs(self, name, size):
        # every subgroup of these groups is 2-generated
        group = parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        assert lattice.size == size
        assert member_sets(lattice) == pair_closures(group)

    @pytest.mark.parametrize("name", CATALOG_NAMES + (
        "S5", "PSL(2,7)", "perm6:(1,2,3);(2,3,4,5,6)", "perm6:(1,2);(1,2,3,4,5,6)"))
    def test_one_walk_per_orbit_finds_what_a_walk_per_cyclic_subgroup_finds(self, name):
        # the perm6 groups are A6 (501 subgroups) and S6 (1455)
        group = parse_group_spec(name).group
        assert member_sets(enumerate_subgroups(group)) == {
            frozenset(iter_bits(bits)) for bits in cyclic_extension_oracle(group)}

    def test_every_order_divides_group_order(self, lat_s4):
        for s in lat_s4.subgroups:
            assert lat_s4.group.order % s.order == 0

    def test_canonical_ids_sorted_by_order_then_members(self, lat_s4):
        keys = [(s.order, s.member_indices()) for s in lat_s4.subgroups]
        assert keys == sorted(keys)

    def test_bottom_and_top(self, lat_a4):
        assert lat_a4.subgroup(lat_a4.bottom_id).order == 1
        assert lat_a4.subgroup(lat_a4.top_id).order == 12

    def test_trivial_group_lattice(self):
        g = generate_group(1, [])
        lattice = enumerate_subgroups(g)
        assert lattice.size == 1
        assert lattice.is_quasihamiltonian()
        assert lattice.permuting_core() == frozenset([0])

    def test_subgroup_cap(self, monkeypatch, s4):
        import latspec.lattice
        from latspec.errors import SizeError

        monkeypatch.setattr(latspec.lattice, "SUBGROUP_CAP", 10)  # read at call time
        with pytest.raises(SizeError, match="exceeded cap 10"):
            enumerate_subgroups(s4)
        monkeypatch.undo()
        assert enumerate_subgroups(s4).size == 30

    def test_conjugate_orbit_sizes_divide_group_order(self, lat_s4):
        # conjugation permutes the member bitsets; each orbit size divides |G|
        group = lat_s4.group
        table = group.mul_table
        bitsets = {s.members for s in lat_s4.subgroups}
        orbits = []
        remaining = set(bitsets)
        while remaining:
            seed = remaining.pop()
            orbit = {seed}
            for g in range(group.order):
                ginv = group.inverse_index(g)
                conj = 0
                for m in iter_bits(seed):
                    conj |= 1 << table[ginv][table[m][g]]
                assert conj in bitsets  # closed under conjugation
                orbit.add(conj)
            remaining -= orbit
            orbits.append(len(orbit))
        assert sum(orbits) == lat_s4.size
        for size in orbits:
            assert group.order % size == 0


def id_by_gens(lattice, gen_texts):
    group = lattice.group
    perms = [parse_permutation(t, group.degree) for t in gen_texts]
    members = bits_of(group.index_of(p) for p in naive_closure(perms))
    return lattice.id_of_members(members)


class TestContainment:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)", "A6"))
    def test_matches_the_pairwise_rows(self, name):
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        down, up = pairwise_containment(lattice)
        assert [bits_of(lattice.down_ids(i)) for i in range(lattice.size)] == down
        assert lattice._up == up


class TestClassReps:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_matches_conjugation_by_every_element(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        group, table = lattice.group, lattice.group.mul_table
        expected = [
            min(lattice.id_of_members(
                    bits_of(table[table[group.inverse_index(x)][h]][x] for h in s.member_indices()))
                for x in range(group.order))
            for s in lattice.subgroups
        ]
        assert list(lattice.class_reps()) == expected

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_class_table_ascends_and_sums_to_the_lattice(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        reps = lattice.class_reps()
        table = lattice.classes()
        assert [rep for rep, _ in table] == sorted(set(reps))
        assert [size for _, size in table] == [reps.count(rep) for rep, _ in table]
        assert sum(size for _, size in table) == lattice.size

    def test_the_walk_holds_at_its_row_pairs_and_fails_one_below(self, monkeypatch, s4):
        import latspec.lattice
        from latspec.errors import SizeError

        # S4: 11 classes of 30 subgroups, so 330 representative row pairs
        monkeypatch.setattr(latspec.lattice, "PAIR_LIMIT", 329)
        lattice = enumerate_subgroups(s4)
        for walk in (lattice.classes, lattice.class_reps):
            with pytest.raises(SizeError, match="11 classes of 30 subgroups give 330 row pairs"):
                walk()
        monkeypatch.setattr(latspec.lattice, "PAIR_LIMIT", 330)
        assert len(lattice.classes()) == 11


class TestConjugationMap:
    @pytest.mark.parametrize("name", ["S4", "A4", "D4", "Q8", "PSL(2,4)"])
    def test_maps_each_id_to_its_conjugate(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        elements = lattice.group.elements
        for g, x in enumerate(elements):
            expected = [
                lattice.id_of_members(bits_of(
                    lattice.group.index_of(compose(compose(x.inverse(), elements[h]), x))
                    for h in s.member_indices()))
                for s in lattice.subgroups
            ]
            assert lattice.conjugation_map(g).tolist() == expected


    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "PSL(2,7) S4"))
    def test_the_walk_reads_the_enumeration_s_maps(self, name):
        # the enumeration hands over each conjugate; conjugation_map computes it again
        if name == "PSL(2,7) S4":
            psl = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
            [sid, *_] = (s.id for s in psl.subgroups if s.order == 24)
            lattice = enumerate_subgroups(psl.standalone_group(sid))
            assert lattice.size == 30
        else:
            lattice = enumerate_subgroups(parse_group_spec(name).group)
        group, maps = lattice.group, lattice._generator_maps
        assert [m.tolist() for m in maps] == [
            lattice.conjugation_map(group.index_of(s)).tolist() for s in group.generators]
        assert all(any(m is walked for walked in maps) for _, _, m in lattice._conjugation_walk()[2])


class TestMeetJoin:
    def test_bounded_lattice_laws(self, lat_s4):
        top, bot = lat_s4.top_id, lat_s4.bottom_id
        for sid in range(lat_s4.size):
            assert lat_s4.meet(sid, top) == sid
            assert lat_s4.join(sid, bot) == sid
            assert lat_s4.join(sid, top) == top
            assert lat_s4.meet(sid, bot) == bot

    def test_join_of_double_transpositions_is_klein_group(self, lat_a4):
        a = id_by_gens(lat_a4, ["(1,2)(3,4)"])
        b = id_by_gens(lat_a4, ["(1,3)(2,4)"])
        v4 = id_by_gens(lat_a4, ["(1,2)(3,4)", "(1,3)(2,4)"])
        assert lat_a4.join(a, b) == v4

    def test_join_of_two_sylow3_is_whole_group(self, lat_a4):
        a = id_by_gens(lat_a4, ["(1,2,3)"])
        b = id_by_gens(lat_a4, ["(1,2,4)"])
        assert lat_a4.join(a, b) == lat_a4.top_id

    def test_meet_is_intersection(self, lat_s4):
        for a, b in itertools.combinations(range(lat_s4.size), 2):
            got = lat_s4.subgroup(lat_s4.meet(a, b)).members
            assert got == lat_s4.subgroup(a).members & lat_s4.subgroup(b).members

    def test_join_against_closure_oracle(self, lat_s4):
        group = lat_s4.group
        for a, b in itertools.combinations(range(lat_s4.size), 2):
            perms = [group.elements[i] for i in lat_s4.subgroup(a).member_indices()]
            perms += [group.elements[i] for i in lat_s4.subgroup(b).member_indices()]
            expected = bits_of(group.index_of(p) for p in naive_closure(perms))
            assert lat_s4.subgroup(lat_s4.join(a, b)).members == expected


class TestMobius:
    def test_reflexive_value(self, lat_s4):
        for sid in (lat_s4.bottom_id, lat_s4.top_id, 5):
            assert lat_s4.mobius(sid, sid) == 1

    def test_matches_zeta_inversion_oracle(self, lat_s4, lat_a4, lat_d4):
        for lattice in (lat_s4, lat_a4, lat_d4):
            oracle = zeta_inverse_mobius(lattice)
            for (a, b), expected in oracle.items():
                assert lattice.mobius(a, b) == expected

    def test_published_s4_values(self, lat_s4):
        top = lat_s4.top_id
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2)(3,4)", "(1,3)(2,4)"]), top) == 3
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2,3)", "(2,3,4)"]), top) == -1
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2)"]), top) == 2
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2,3)"]), top) == 1
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2,3,4)"]), top) == 0
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,3)", "(2,4)"]), top) == 0
        assert lat_s4.mobius(id_by_gens(lat_s4, ["(1,2,3,4)", "(1,3)"]), top) == -1

    def test_bottom_values(self, lat_s4, lat_a4, lat_s3):
        # -12 for the order-24 group is the recursion's answer; the published
        # figure -24 fails the dual-sum identity checked below.
        assert lat_s4.mobius(lat_s4.bottom_id, lat_s4.top_id) == -12
        assert lat_a4.mobius(lat_a4.bottom_id, lat_a4.top_id) == 4
        assert lat_s3.mobius(lat_s3.bottom_id, lat_s3.top_id) == 3

    def test_dual_sum_identities(self, lat_s4):
        n = lat_s4.size
        for lower in range(n):
            for upper in range(n):
                if lower == upper or not lat_s4.leq(lower, upper):
                    continue
                ids = [z for z in lat_s4.down_ids(upper) if lat_s4.leq(lower, z)]
                assert sum(lat_s4.mobius(lower, z) for z in ids) == 0
                assert sum(lat_s4.mobius(z, upper) for z in ids) == 0

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_matches_the_lower_fixed_recursion_on_every_interval(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        for (lower, upper), expected in lower_fixed_mobius(lattice).items():
            assert lattice.mobius(lower, upper) == expected, (name, lower, upper)

    def test_incomparable_pair_rejected(self, lat_s3):
        a = id_by_gens(lat_s3, ["(1,2)"])
        b = id_by_gens(lat_s3, ["(1,3)"])
        with pytest.raises(DomainError):
            lat_s3.mobius(a, b)


class TestPermutingCore:
    def test_s4_core_is_normal_sublattice(self, lat_s4):
        expected = {
            lat_s4.bottom_id,
            id_by_gens(lat_s4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
            id_by_gens(lat_s4, ["(1,2,3)", "(2,3,4)"]),
            lat_s4.top_id,
        }
        assert lat_s4.permuting_core() == expected

    def test_a4_core(self, lat_a4):
        expected = {
            lat_a4.bottom_id,
            id_by_gens(lat_a4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
            lat_a4.top_id,
        }
        assert lat_a4.permuting_core() == expected

    def test_abelian_core_is_everything(self, c6):
        lattice = enumerate_subgroups(c6)
        assert lattice.permuting_core() == frozenset(range(lattice.size))

    def test_core_closed_under_meet_and_join(self, lat_s4):
        core = lat_s4.permuting_core()
        for a, b in itertools.combinations(core, 2):
            assert lat_s4.meet(a, b) in core
            assert lat_s4.join(a, b) in core


    @pytest.mark.parametrize("name, tests", [("PSL(2,7)", 406), ("A5", 139), ("S4", 140)])
    def test_core_without_the_matrix_stops_each_row_at_its_first_failure(
            self, name, tests, monkeypatch):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        pairs = []
        real = SubgroupLattice.products_commute

        def counting(self, a, b):
            pairs.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(SubgroupLattice, "products_commute", counting)
        core = lattice.permuting_core()
        assert len(pairs) == tests
        assert lattice._permutes is None  # the matrix stays unfilled
        reps = lattice.class_reps()
        assert all(reps[a] == a for a, _ in pairs)
        monkeypatch.undo()
        reference = pairwise_permutability(lattice)
        assert lattice._permute_with_all() == np.flatnonzero(reference.all(axis=1)).tolist()
        filled = enumerate_subgroups(lattice.group)
        filled.permutability()
        assert core == filled.permuting_core()

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_scanned_core_equals_the_core_of_the_filled_matrix(self, name):
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        scanned, filled = enumerate_subgroups(group), enumerate_subgroups(group)
        permutes = filled.permutability()
        assert scanned._permute_with_all() == np.flatnonzero(permutes.all(axis=1)).tolist()
        assert scanned.permuting_core() == filled.permuting_core()


class TestPermutability:
    def test_symmetric_with_true_diagonal_and_one_call_per_pair(self):
        for name in CATALOG_NAMES:
            lattice = enumerate_subgroups(parse_group_spec(name).group)
            permutes = lattice.permutability()
            assert permutes.shape == (lattice.size, lattice.size)
            assert (permutes == permutes.T).all() and permutes.diagonal().all(), name
            assert not permutes.flags.writeable
            for a, b in itertools.combinations(range(lattice.size), 2):
                assert permutes[a, b] == lattice.products_commute(a, b), (name, a, b)
            assert lattice.permutability() is permutes
            assert lattice.is_quasihamiltonian() == permutes.all()


    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)", "A6"))
    def test_matches_the_pairwise_fill(self, name):
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        assert np.array_equal(lattice.permutability(), pairwise_permutability(lattice))

    def test_pair_test_reaches_representative_rows_only(self, monkeypatch):
        lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
        reps = lattice.class_reps()
        tested = []
        real = SubgroupLattice.products_commute

        def recording(self, a, b):
            tested.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(SubgroupLattice, "products_commute", recording)
        lattice.permutability()
        # each unordered pair that holds one of the 15 representatives, once
        assert len(set(reps)) == 15
        assert all(reps[a] == a for a, _ in tested)
        assert len({frozenset(pair) for pair in tested}) == len(tested) == (
            15 * (lattice.size - 1) - 15 * 14 // 2)

    def test_asymmetric_fill_raises(self, monkeypatch):
        # the two classes have 6 and 3 members, so a flip of this one pair
        # reaches 6 entries in the rows of one class and 3 in the other's
        lattice = enumerate_subgroups(symmetric(4))
        pair = {id_by_gens(lattice, ["(3,4)"]), id_by_gens(lattice, ["(1,2)(3,4)"])}
        assert all(lattice.class_reps()[sid] == sid for sid in pair)
        real = SubgroupLattice.products_commute

        def flip_one_pair(self, a, b):
            out = real(self, a, b)
            return not out if {a, b} == pair else out

        monkeypatch.setattr(SubgroupLattice, "products_commute", flip_one_pair)
        with pytest.raises(ConsistencyError):
            lattice.permutability()


class TestQuasihamiltonian:
    def test_abelian_groups(self, c6, e8):
        assert enumerate_subgroups(c6).is_quasihamiltonian()
        assert enumerate_subgroups(e8).is_quasihamiltonian()

    def test_a4_is_not(self, lat_a4):
        assert not lat_a4.is_quasihamiltonian()

    @pytest.mark.parametrize("name, tests", [("S4", 30), ("A5", 61), ("PSL(2,7)", 179),
                                             ("Q8", 15), ("C6", 6)])
    def test_an_unfilled_lattice_scans_representative_rows_until_a_pair_fails(
            self, name, tests, monkeypatch):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        reps = lattice.class_reps()
        real = SubgroupLattice.products_commute
        tested = []

        def recording(self, a, b):
            tested.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(SubgroupLattice, "products_commute", recording)
        answer = lattice.is_quasihamiltonian()
        assert len(tested) == tests
        assert all(reps[a] == a for a, _ in tested)
        assert len({frozenset(pair) for pair in tested}) == len(tested)
        outcomes = [real(lattice, a, b) for a, b in tested]
        assert outcomes == [True] * len(tested) if answer else [True] * (len(tested) - 1) + [False]
        monkeypatch.undo()
        assert answer == lattice.permutability().all()

    def test_a_filled_matrix_is_read(self, lat_s4, monkeypatch):
        lat_s4.permutability()

        def refuse(self, a, b):
            raise AssertionError("the filled matrix was not read")

        monkeypatch.setattr(SubgroupLattice, "products_commute", refuse)
        assert not lat_s4.is_quasihamiltonian()


class TestHughes:
    def test_exponent_p_group_gives_trivial(self, e8):
        lattice = enumerate_subgroups(e8)
        assert hughes_subgroup(lattice, 2).order == 1

    def test_s3_p2_gives_rotation_subgroup(self, lat_s3):
        assert hughes_subgroup(lat_s3, 2).order == 3

    def test_s3_p3_gives_whole_group(self, lat_s3):
        assert hughes_subgroup(lat_s3, 3).order == 6

    def test_non_prime_rejected(self, lat_s3):
        with pytest.raises(InputError):
            hughes_subgroup(lat_s3, 4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_equals_the_closure_of_every_element_of_order_other_than_p(self, name, p):
        group = parse_group_spec(name).group
        gens = [x for i, x in enumerate(group.elements) if group.order_of_index(i) not in (1, p)]
        expected = (frozenset(map(group.index_of, naive_closure(gens))) if gens
                    else {group.identity_index})
        sub = hughes_subgroup(enumerate_subgroups(group), p)
        assert frozenset(sub.member_indices()) == expected


class TestIntervalsAndStandalone:
    def test_interval_members_form_sublattice(self, lat_s4):
        top = lat_s4.top_id
        for lower in range(lat_s4.size):
            ids = [z for z in lat_s4.down_ids(top) if lat_s4.leq(lower, z)]
            for a, b in itertools.combinations(ids, 2):
                assert lat_s4.meet(a, b) in ids
                assert lat_s4.join(a, b) in ids

    def test_interval_isomorphic_to_standalone_lattice(self, lat_s4):
        for sid in range(lat_s4.size):
            down = lat_s4.down_ids(sid)
            sub = lat_s4.standalone_group(sid)
            sub_lattice = enumerate_subgroups(sub)
            assert sub_lattice.size == len(down)
            # the member sets below sid, re-read as standalone members, coincide
            parent_sets = {
                frozenset(lat_s4.subgroup(z).member_indices()) for z in down
            }
            standalone_sets = {
                frozenset(
                    lat_s4.group.index_of(sub.elements[i])
                    for i in s.member_indices()
                )
                for s in sub_lattice.subgroups
            }
            assert parent_sets == standalone_sets

    @pytest.mark.parametrize("name", ["S4", "PSL(2,7)"])
    def test_standalone_group_is_the_parent_restricted(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        parent = lattice.group
        for sid in sorted(set(lattice.class_reps())):
            members = lattice.subgroup(sid).member_indices()
            sub = lattice.standalone_group(sid)
            assert sub.elements == tuple(parent.elements[i] for i in members)
            position = {h: k for k, h in enumerate(members)}
            assert [list(row) for row in sub.mul_table] == [
                [position[parent.mul_table[a][b]] for b in members] for a in members]

    def test_minimal_generators_generate(self, lat_s4):
        from latspec.perm import Permutation

        group = lat_s4.group
        for sid in range(lat_s4.size):
            gens = [group.elements[i] for i in lat_s4.minimal_generators(sid)]
            closure = naive_closure(gens or [Permutation.identity(group.degree)])
            got = bits_of(group.index_of(p) for p in closure)
            assert got == lat_s4.subgroup(sid).members


def class_lattices(name):
    """(parent lattice, [(class representative, cut group)]) for every class
    below the top."""
    group = alternating(6) if name == "A6" else parse_group_spec(name).group
    lattice = enumerate_subgroups(group)
    return lattice, [(rep, lattice.standalone_group(rep))
                     for rep in sorted(set(lattice.class_reps())) if rep != lattice.top_id]


class TestCutClassLattices:
    """A class group is cut from its parent's tables and its lattice reads the
    parent's matrix restricted; closing the generators as permutations and the
    class lattice's own fill are the oracles."""

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_cut_group_equals_the_closure(self, name):
        lattice, cuts = class_lattices(name)
        for rep, cut in cuts:
            closed = closure_standalone_group(lattice, rep)
            assert (cut.degree, cut.elements, cut.identity_index, cut.generators) == (
                closed.degree, closed.elements, closed.identity_index, closed.generators)
            assert cut.mul_table == closed.mul_table
            # 16-bit rows, each entry the index of the composed permutation
            assert all(type(row) is array and row.typecode == "H" for row in cut.mul_table)
            assert [list(row) for row in cut.mul_table] == [
                [cut.index_of(compose(a, b)) for b in cut.elements] for a in cut.elements]
            n = closed.order
            assert ([cut.inverse_index(i) for i in range(n)]
                    == [closed.inverse_index(i) for i in range(n)])
            assert ([cut.order_of_index(i) for i in range(n)]
                    == [closed.order_of_index(i) for i in range(n)])
            assert [cut.index_of(p) for p in closed.elements] == list(range(n))

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_class_lattice_ids_are_the_down_set(self, name):
        lattice, cuts = class_lattices(name)
        for rep, cut in cuts:
            own = enumerate_subgroups(cut)
            members = lattice.subgroup(rep).member_indices()
            ids = [lattice.id_of_members(bits_of(members[i] for i in s.member_indices()))
                   for s in own.subgroups]
            assert ids == list(lattice.down_ids(rep))
            lattice.share_down_set(own, rep)  # the same check, raising on a mismatch

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_sliced_matrix_equals_the_own_fill(self, name, monkeypatch):
        lattice, cuts = class_lattices(name)
        lattice.permutability()
        tested = []
        real_test = SubgroupLattice.products_commute

        def recording_test(self, a, b):
            tested.append(self)
            return real_test(self, a, b)

        for rep, cut in cuts:
            shared, filled = enumerate_subgroups(cut), enumerate_subgroups(cut)
            lattice.share_down_set(shared, rep)
            monkeypatch.setattr(SubgroupLattice, "products_commute", recording_test)
            sliced = shared.permutability()
            monkeypatch.undo()
            assert not tested
            assert not sliced.flags.writeable
            assert np.array_equal(sliced, filled.permutability())
            assert shared.is_quasihamiltonian() == filled.is_quasihamiltonian()
            assert shared.permuting_core() == filled.permuting_core()

    def test_an_unfilled_parent_leaves_the_class_lattice_its_own_fill(self):
        lattice, cuts = class_lattices("S4")
        for rep, cut in cuts:
            own = enumerate_subgroups(cut)
            lattice.share_down_set(own, rep)
            assert own._permutes is None
            assert np.array_equal(own.permutability(), pairwise_permutability(own))

    def test_a_set_that_is_not_closed_cannot_be_cut(self, s4):
        transpositions = [i for i in range(s4.order) if s4.order_of_index(i) == 2][:2]
        with pytest.raises(ConsistencyError):
            s4.restricted([s4.identity_index] + transpositions, transpositions)
        with pytest.raises(ConsistencyError):
            s4.restricted([s4.identity_index], transpositions[:1])
        with pytest.raises(ConsistencyError):
            s4.restricted(transpositions, [])

    def test_a_lattice_of_another_subgroup_is_not_the_down_set(self, lat_s4):
        # a C4 and a Klein four-group: the same order, not the same lattice
        fours = [sid for sid in sorted(set(lat_s4.class_reps()))
                 if lat_s4.subgroup(sid).order == 4]
        c4 = next(sid for sid in fours if len(lat_s4.down_ids(sid)) == 3)
        v4 = next(sid for sid in fours if len(lat_s4.down_ids(sid)) == 5)
        for sid, other in ((c4, v4), (v4, c4)):
            with pytest.raises(ConsistencyError):
                lat_s4.share_down_set(enumerate_subgroups(lat_s4.standalone_group(other)), sid)
        with pytest.raises(ConsistencyError):
            lat_s4.share_down_set(enumerate_subgroups(lat_s4.group), v4)


class TestSerialization:
    def test_dump_is_deterministic(self, s4):
        d1 = enumerate_subgroups(s4).to_json_dict()
        d2 = enumerate_subgroups(s4).to_json_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_round_trip_through_member_lists(self, lat_a4):
        dump = lat_a4.to_json_dict()
        rebuilt = SubgroupLattice.from_member_lists(
            lat_a4.group, [s["members"] for s in dump["subgroups"]]
        )
        assert rebuilt.to_json_dict() == dump

    @pytest.mark.parametrize("name", ["S5", "PSL(2,7)", "A6"])
    def test_enumeration_passes_the_completeness_proof(self, name):
        # from_member_lists compares the family with the enumeration, so this
        # is a consistency check; the independent oracle is
        # test_matches_the_closures_of_all_pairs
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        rebuilt = SubgroupLattice.from_member_lists(group, lattice.member_lists())
        assert [s.members for s in rebuilt.subgroups] == [s.members for s in lattice.subgroups]

    def test_rehydration_rejects_a_conjugation_closed_non_subgroup(self, lat_s4):
        # {e, the 9 involutions, the 8 3-cycles} is a union of conjugacy
        # classes of S4; in place of A4 the dump keeps its length, so only
        # the comparison can reject it
        group = lat_s4.group
        members = lat_s4.member_lists()
        small_orders = [i for i in range(group.order) if group.order_of_index(i) in (1, 2, 3)]
        assert len(small_orders) == 18
        [a4] = [s.id for s in lat_s4.subgroups if s.order == 12]
        members[a4] = small_orders
        with pytest.raises(InputError, match="not the subgroups in canonical order"):
            SubgroupLattice.from_member_lists(group, members)

    def test_rehydration_rejects_non_subgroup_sets(self, lat_a4):
        dump = lat_a4.to_json_dict()
        members = [s["members"] for s in dump["subgroups"]]
        # pair the identity with a single element of order 3: not closed
        three_cycle = next(
            i for i in range(12) if lat_a4.group.order_of_index(i) == 3
        )
        members[3] = [0, three_cycle]
        with pytest.raises(InputError):
            SubgroupLattice.from_member_lists(lat_a4.group, members)

    def test_rehydration_rejects_an_empty_member_list(self, lat_a4):
        # the empty set in place of the trivial subgroup keeps the length
        members = lat_a4.member_lists()
        members[lat_a4.bottom_id] = []
        with pytest.raises(InputError, match="not the subgroups in canonical order"):
            SubgroupLattice.from_member_lists(lat_a4.group, members)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_rehydration_accepts_complete_families_only(self, name):
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        members = lattice.member_lists()
        rebuilt = SubgroupLattice.from_member_lists(lattice.group, members)
        assert rebuilt.to_json_dict() == lattice.to_json_dict()
        # dropping one subgroup, or its whole conjugacy class (which keeps the
        # family closed under conjugation), must be caught
        group, table = lattice.group, lattice.group.mul_table
        for sid in range(lattice.size):
            if sid in (lattice.bottom_id, lattice.top_id):
                continue
            conjugates = {
                bits_of(table[table[group.inverse_index(x)][h]][x] for h in members[sid])
                for x in range(group.order)
            }
            for dropped in ({lattice.subgroup(sid).members}, conjugates):
                kept = [m for s, m in zip(lattice.subgroups, members)
                        if s.members not in dropped]
                with pytest.raises(InputError):
                    SubgroupLattice.from_member_lists(group, kept)

    def test_a_non_subgroup_in_place_of_a_missing_subgroup_is_rejected(self, lat_s4):
        # the family has the right count, so only the comparison catches it
        group = lat_s4.group
        members = [s.members for s in lat_s4.subgroups]
        for sid in range(lat_s4.size):
            if sid in (lat_s4.bottom_id, lat_s4.top_id):
                continue
            top = members[sid].bit_length() - 1
            forged = next(bits for x in range(group.order)
                          if not members[sid] >> x & 1
                          and (bits := members[sid] ^ (1 << top) | (1 << x)) not in members)
            family = [list(iter_bits(forged if m == members[sid] else m)) for m in members]
            assert len({bits_of(m) for m in family}) == lat_s4.size
            with pytest.raises(InputError, match="not the subgroups in canonical order"):
                SubgroupLattice.from_member_lists(group, family)

    @pytest.mark.parametrize("edit", [
        lambda lists: lists[::-1],
        lambda lists: lists[1:] + lists[:1],
        lambda lists: lists + lists[3:5],
        lambda lists: [members[::-1] for members in lists],
        lambda lists: [tuple(members) for members in lists],
        lambda lists: None,
        lambda lists: {"subgroups": lists},
    ], ids=["reversed", "rotated", "two_repeated", "indices_reversed", "tuples", "null",
            "object"])
    def test_only_the_serializer_value_is_accepted(self, lat_s4, edit):
        group = lat_s4.group
        assert SubgroupLattice.from_member_lists(group, lat_s4.member_lists()).member_lists() \
            == lat_s4.member_lists()
        with pytest.raises(InputError, match="not the subgroups in canonical order"):
            SubgroupLattice.from_member_lists(group, edit(lat_s4.member_lists()))

    def test_a_forged_oversized_family_is_rejected_quickly(self, s4, monkeypatch):
        # with the real trivial and whole subgroups in it, only the proof can reject it
        rng = random.Random(16)
        forged = {1 << s4.identity_index, (1 << s4.order) - 1}
        while len(forged) < 20_000:
            forged.add(rng.getrandbits(s4.order) | 1 << s4.identity_index)
        built = []
        real = SubgroupLattice.__init__

        def recording(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(SubgroupLattice, "__init__", recording)
        start = time.perf_counter()
        with pytest.raises(InputError):
            SubgroupLattice.from_member_lists(s4, [list(iter_bits(m)) for m in forged])
        assert time.perf_counter() - start < 1.0
        assert built == []

    def test_leq_pairs_consistent(self, lat_a4):
        dump = lat_a4.to_json_dict()
        pairs = {tuple(p) for p in dump["leq_pairs"]}
        for a in range(lat_a4.size):
            for b in range(lat_a4.size):
                if a != b and lat_a4.leq(a, b):
                    assert (a, b) in pairs
                else:
                    assert (a, b) not in pairs
