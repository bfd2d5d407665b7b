import itertools
import math
from array import array

import pytest
from hypothesis import given, strategies as st

from latspec.catalog import CATALOG_NAMES, alternating, parse_group_spec, symmetric
from latspec.errors import InputError, SizeError
from latspec.lattice import enumerate_subgroups
from latspec.perm import (
    FiniteGroup,
    Permutation,
    bits_of,
    compose,
    element_order,
    format_generators,
    generate_group,
    iter_bits,
    parse_generators,
    parse_permutation,
)

from conftest import build, coset_union_product, double_loop_product, naive_closure


def pointwise_compose(a, b):
    # independent oracle: evaluate a(b(i)) point by point
    return tuple(a.images[b.images[i]] for i in range(a.degree))


class TestPermutation:
    def test_identity_is_neutral(self):
        t = parse_permutation("(1,2)", 3)
        e = Permutation.identity(3)
        assert compose(t, e) == t
        assert compose(e, t) == t

    def test_involution_squares_to_identity(self):
        t = parse_permutation("(1,2)", 2)
        assert compose(t, t) == Permutation.identity(2)

    def test_three_cycle_squared(self):
        c = parse_permutation("(1,2,3)", 3)
        sq = compose(c, c)
        assert sq.images == pointwise_compose(c, c)
        assert sq == parse_permutation("(1,3,2)", 3)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(InputError):
            compose(Permutation.identity(2), Permutation.identity(3))

    def test_non_bijection_rejected(self):
        with pytest.raises(InputError):
            Permutation((0, 0, 1))
        with pytest.raises(InputError):
            Permutation(())

    @pytest.mark.parametrize("text,degree,expected", [
        ("()", 4, 1),
        ("(1,2)(3,4)", 4, 2),
        ("(1,2,3,4)", 4, 4),
        ("(1,2)(3,4,5)", 5, 6),
    ])
    def test_element_order(self, text, degree, expected):
        g = parse_permutation(text, degree)
        assert element_order(g) == expected
        # repeated-composition oracle
        acc = g
        k = 1
        while acc != Permutation.identity(degree):
            acc = compose(acc, g)
            k += 1
        assert k == expected

    def test_inverse(self):
        g = parse_permutation("(1,2,3,4)(5,6)", 6)
        assert compose(g, g.inverse()) == Permutation.identity(6)
        assert compose(g.inverse(), g) == Permutation.identity(6)

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))),
           st.permutations(list(range(6))))
    def test_associativity(self, xs, ys, zs):
        a, b, c = Permutation(tuple(xs)), Permutation(tuple(ys)), Permutation(tuple(zs))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestCycleNotation:
    def test_round_trip(self):
        text = "(1,2)(3,4)"
        g = parse_permutation(text, 5)
        assert g.to_cycle_string() == text
        assert parse_permutation(g.to_cycle_string(), 5) == g

    def test_generator_list_round_trip(self):
        gens = parse_generators("(1,2)(3,4);(1,2,3)", 4)
        assert len(gens) == 2
        assert format_generators(gens) == "(1,2)(3,4);(1,2,3)"

    def test_identity_renders_as_empty_parens(self):
        assert Permutation.identity(3).to_cycle_string() == "()"
        assert parse_permutation("()", 3) == Permutation.identity(3)

    @pytest.mark.parametrize("bad", ["(1,2", "(0,1)", "(1,2)(2,3)", "(a,b)", "1,2"])
    def test_parse_errors(self, bad):
        with pytest.raises(InputError):
            parse_permutation(bad, 4)


class TestGenerateGroup:
    def test_symmetric_on_three_points(self):
        g = build(3, "(1,2);(1,2,3)")
        assert g.order == 6

    def test_dihedral_on_four_points(self):
        g = build(4, "(1,2,3,4);(1,3)")
        assert g.order == 8

    def test_trivial_group(self):
        g = generate_group(1, [])
        assert g.order == 1
        assert g.degree == 1

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)",))
    def test_matches_naive_closure(self, name):
        group = parse_group_spec(name).group
        assert set(group.elements) == naive_closure(list(group.generators))

    def test_idempotent_regeneration(self, a4):
        again = generate_group(a4.degree, list(a4.elements))
        assert again.elements == a4.elements

    def test_canonical_element_order_is_lexicographic(self, s3):
        images = [p.images for p in s3.elements]
        assert images == sorted(images)

    def test_element_cap(self, monkeypatch):
        import latspec.perm

        monkeypatch.setattr(latspec.perm, "MUL_TABLE_LIMIT", 10)
        gens = parse_generators("(1,2);(1,2,3,4,5)", 5)
        with pytest.raises(SizeError):
            generate_group(5, gens)

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            generate_group(3, [Permutation.identity(4)])


class TestMulTable:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)",))
    def test_matches_composition(self, name):
        parsed = parse_group_spec(name).group
        group = FiniteGroup(parsed.degree, parsed.generators)
        by_compose = [[group.index_of(compose(a, b)) for b in group.elements]
                      for a in group.elements]
        assert all(type(row) is array and row.typecode == "H" for row in group.mul_table)
        assert [list(row) for row in group.mul_table] == by_compose

    def test_size_limit(self, monkeypatch, s4):
        import latspec.perm

        # the closure refuses an order past the limit, so no table is ever
        # asked of such a group; an order at the limit gets its table
        monkeypatch.setattr(latspec.perm, "MUL_TABLE_LIMIT", 23)
        with pytest.raises(SizeError):
            FiniteGroup(s4.degree, s4.generators)
        monkeypatch.setattr(latspec.perm, "MUL_TABLE_LIMIT", 24)
        assert len(FiniteGroup(s4.degree, s4.generators).mul_table) == 24


class TestOrdersAndInverses:
    """Orders, inverses and each cyclic subgroup's powers are read off the
    table; the permutations' cycles, `Permutation.inverse` and `compose` are
    the oracle."""

    @pytest.mark.parametrize("name", CATALOG_NAMES + (
        "perm6:(1,2);(1,2,3,4,5,6)", "perm7:(1,2,3);(1,2,3,4,5,6,7)", "D720", "cut"))
    def test_match_the_permutations(self, name):
        if name == "cut":  # PSL(2,7)'s S4 class, cut from the parent's lists
            lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
            [sid, *_] = (s.id for s in lattice.subgroups if s.order == 24)
            group = lattice.standalone_group(sid)
        else:
            group = parse_group_spec(name).group
        assert [group.order_of_index(i) for i in range(group.order)] == [
            element_order(p) for p in group.elements]
        assert [group.elements[group.inverse_index(i)] for i in range(group.order)] == [
            p.inverse() for p in group.elements]
        # one entry per cyclic subgroup <g>, its powers under its least-index
        # generator g: the entries' generators are every element once
        cyclic, owners = group.cyclic_powers, []
        for g, powers in cyclic.items():
            p = group.elements[g]
            assert [group.index_of(compose(group.elements[y], p)) for y in powers] == (
                powers[1:] + [group.identity_index])
            owned = [y for j, y in enumerate(powers) if math.gcd(j, len(powers)) == 1]
            assert min(owned) == g
            owners += owned
        assert sorted(owners) == list(range(group.order))
        assert list(cyclic) == sorted(cyclic)

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)", "M16"])
    def test_a_cut_group_walks_its_own_table(self, monkeypatch, name):
        # every class representative's group, cut from the parent: its own
        # walk gives the parent's orders, inverses and cyclic subgroups inside it
        walks = []
        real_walk = FiniteGroup._walk_powers

        def walking(self):
            walks.append(self)
            real_walk(self)

        lattice = enumerate_subgroups(parse_group_spec(name).group)
        parent = lattice.group
        monkeypatch.setattr(FiniteGroup, "_walk_powers", walking)
        for rep, _ in lattice.classes():
            cut = lattice.standalone_group(rep)
            if cut is parent:
                continue
            members = lattice.subgroup(rep).member_indices()
            walks.clear()
            assert [cut.order_of_index(i) for i in range(cut.order)] == [
                parent.order_of_index(x) for x in members]
            assert walks == [cut]
            assert [members[cut.inverse_index(i)] for i in range(cut.order)] == [
                parent.inverse_index(x) for x in members]
            assert [(members[g], [members[y] for y in powers])
                    for g, powers in cut.cyclic_powers.items()] == [
                (g, powers) for g, powers in parent.cyclic_powers.items() if g in members]
            assert walks == [cut]

    @pytest.mark.parametrize("name", ["PSL(2,7)", "D720"])
    def test_need_no_permutation_after_the_closure(self, monkeypatch, name):
        import latspec.perm

        parsed = parse_group_spec(name).group
        orders = [element_order(p) for p in parsed.elements]
        inverses = [parsed.index_of(p.inverse()) for p in parsed.elements]
        group = FiniteGroup(parsed.degree, parsed.generators)

        def refuse(*args):
            raise AssertionError("a permutation was read after the closure")

        monkeypatch.setattr(latspec.perm, "element_order", refuse)
        monkeypatch.setattr(Permutation, "inverse", refuse)
        assert [group.order_of_index(i) for i in range(group.order)] == orders
        assert [group.inverse_index(i) for i in range(group.order)] == inverses
        assert group.element_order_histogram() == {
            k: orders.count(k) for k in set(orders)}


def psl27_s4_cut():
    """PSL(2,7)'s first S4, cut from the parent's tables."""
    lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
    [sid, *_] = (s.id for s in lattice.subgroups if s.order == 24)
    return lattice.standalone_group(sid)


class TestIndicesFromTheTable:
    """`index_of` bisects the sorted elements; generator indices and
    commutation are read off the table. Permutations are the oracle."""

    @pytest.mark.parametrize("kind", ["closed", "cut"])
    def test_index_of_bisects_the_elements(self, kind):
        if kind == "closed":
            group = alternating(4)
        else:  # A4 cut from the tables of S4
            lattice = enumerate_subgroups(symmetric(4))
            [sid] = (s.id for s in lattice.subgroups if s.order == 12)
            group = lattice.standalone_group(sid)
        assert [group.index_of(p) for p in group.elements] == list(range(group.order))
        # a transposition is odd; the degree-5 permutations sort before and
        # after every element of degree 4
        for outside in (parse_permutation("(1,2)", 4), Permutation.identity(5),
                        Permutation((4, 3, 2, 1, 0))):
            with pytest.raises(InputError, match="is not an element of this group"):
                group.index_of(outside)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("cut",))
    def test_generator_indices_name_the_generators(self, name):
        group = psl27_s4_cut() if name == "cut" else parse_group_spec(name).group
        assert len(group.generator_indices) == len(group.generators)
        assert [group.elements[i] for i in group.generator_indices] == list(group.generators)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "PSL(2,7) classes"))
    def test_is_abelian_matches_composition(self, name):
        if name == "PSL(2,7) classes":
            lattice = enumerate_subgroups(parse_group_spec("PSL(2,7)").group)
            groups = [lattice.standalone_group(rep) for rep, _ in lattice.classes()]
            assert {group.is_abelian() for group in groups} == {True, False}
        else:
            groups = [parse_group_spec(name).group]
        for group in groups:
            assert group.is_abelian() == all(
                compose(a, b) == compose(b, a) for a in group.elements for b in group.elements)


def subgroup_indices(group, gen_texts):
    gens = [parse_permutation(t, group.degree) for t in gen_texts]
    members = naive_closure(gens)
    return frozenset(group.index_of(p) for p in members)


def product_set(lattice, h, k):
    """SubgroupLattice.product_bits for two member index sets, as a set of indices."""
    a = lattice.id_of_members(bits_of(h))
    b = lattice.id_of_members(bits_of(k))
    return frozenset(iter_bits(lattice.product_bits(a, b)))


class TestProductSet:
    def test_product_with_trivial(self, s3):
        lattice = enumerate_subgroups(s3)
        h = subgroup_indices(s3, ["(1,2)"])
        e = frozenset([s3.identity_index])
        assert product_set(lattice, h, e) == h

    def test_noncommuting_product_in_s3(self, s3):
        lattice = enumerate_subgroups(s3)
        h = subgroup_indices(s3, ["(1,2)"])
        k = subgroup_indices(s3, ["(1,3)"])
        hk = product_set(lattice, h, k)
        kh = product_set(lattice, k, h)
        # exhaustive oracle by raw composition
        oracle_hk = frozenset(
            s3.index_of(compose(s3.elements[a], s3.elements[b]))
            for a, b in itertools.product(h, k)
        )
        assert hk == oracle_hk
        assert len(hk) == 4
        assert hk != kh

    def test_coset_union_matches_the_double_loop(self):
        for name in CATALOG_NAMES:
            lattice = enumerate_subgroups(parse_group_spec(name).group)
            for a, b in itertools.product(range(lattice.size), repeat=2):
                assert lattice.product_bits(a, b) == double_loop_product(lattice, a, b), (name, a, b)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)", "A6"))
    def test_coset_table_matches_the_coset_union_loop(self, name):
        # f2_direct's pairs: a class representative on the left, any b
        group = alternating(6) if name == "A6" else parse_group_spec(name).group
        lattice = enumerate_subgroups(group)
        for a in sorted(set(lattice.class_reps())):
            for b in range(lattice.size):
                assert lattice.product_bits(a, b) == coset_union_product(lattice, a, b), (name, a, b)

    def test_v4_times_c3_covers_a4(self, a4):
        lattice = enumerate_subgroups(a4)
        v4 = subgroup_indices(a4, ["(1,2)(3,4)", "(1,3)(2,4)"])
        c3 = subgroup_indices(a4, ["(1,2,3)"])
        assert product_set(lattice, v4, c3) == frozenset(range(12))

    def test_product_size_identity(self, s4):
        # |HK| * |H meet K| = |H| * |K| for subgroups
        lattice = enumerate_subgroups(s4)
        subs = [
            subgroup_indices(s4, ["(1,2)"]),
            subgroup_indices(s4, ["(1,2,3)"]),
            subgroup_indices(s4, ["(1,2,3,4)"]),
            subgroup_indices(s4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
            subgroup_indices(s4, ["(1,2,3)", "(1,2)"]),
        ]
        for h, k in itertools.product(subs, repeat=2):
            hk = product_set(lattice, h, k)
            assert len(hk) * len(h & k) == len(h) * len(k)
