import itertools

import pytest
from hypothesis import given, strategies as st

from latspec.catalog import CATALOG_NAMES, parse_group_spec
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

from conftest import build, naive_closure


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
        while not acc.is_identity():
            acc = compose(acc, g)
            k += 1
        assert k == expected

    def test_inverse(self):
        g = parse_permutation("(1,2,3,4)(5,6)", 6)
        assert compose(g, g.inverse()).is_identity()
        assert compose(g.inverse(), g).is_identity()

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

    def test_matches_naive_closure(self, s4):
        assert set(s4.elements) == naive_closure(list(s4.generators))

    def test_idempotent_regeneration(self, a4):
        again = generate_group(a4.degree, list(a4.elements))
        assert again.elements == a4.elements

    def test_canonical_element_order_is_lexicographic(self, s3):
        images = [p.images for p in s3.elements]
        assert images == sorted(images)

    def test_element_cap(self):
        gens = parse_generators("(1,2);(1,2,3,4,5)", 5)
        with pytest.raises(SizeError):
            generate_group(5, gens, element_cap=10)

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            generate_group(3, [Permutation.identity(4)])


class TestMulTable:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ("PSL(2,7)",))
    def test_matches_composition(self, name):
        parsed = parse_group_spec(name).group
        group = FiniteGroup(parsed.degree, parsed.elements, parsed.generators)
        n = group.order
        # mul() composes the permutations while no table exists
        by_compose = [[group.mul(i, j) for j in range(n)] for i in range(n)]
        assert group.mul_table == by_compose

    def test_size_limit(self, monkeypatch, s4):
        import latspec.perm

        monkeypatch.setattr(latspec.perm, "MUL_TABLE_LIMIT", 23)
        group = FiniteGroup(s4.degree, s4.elements, s4.generators)
        with pytest.raises(SizeError):
            group.mul_table


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
