import pytest

import latspec.catalog as catalog
from latspec.cache import signature_of
from latspec.catalog import (
    CATALOG_NAMES,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    modular16,
    parse_group_spec,
    pgl2,
    psl2,
    quaternion,
    recognize_projective,
    symmetric,
)
from latspec.errors import InputError, SizeError
from latspec.perm import MUL_TABLE_LIMIT


class TestConstructors:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (5, 5), (12, 12)])
    def test_cyclic(self, n, expected):
        assert cyclic(n).order == expected

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 6), (4, 8), (8, 16)])
    def test_dihedral_has_order_two_n(self, n, expected):
        assert dihedral(n).order == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric(self, n, expected):
        assert symmetric(n).order == expected

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 12), (5, 60)])
    def test_alternating(self, n, expected):
        assert alternating(n).order == expected

    def test_quaternion_structure(self):
        q8 = quaternion()
        assert q8.order == 8
        assert q8.degree == 8  # regular representation
        assert q8.element_order_histogram() == {1: 1, 2: 1, 4: 6}
        assert not q8.is_abelian()

    def test_elementary_abelian(self):
        e8 = elementary_abelian(2, 3)
        assert e8.order == 8
        assert e8.is_abelian()
        assert all(k in (1, 2) for k in e8.element_order_histogram())

    def test_modular16(self):
        m = modular16()
        assert m.order == 16
        assert not m.is_abelian()
        # has a cyclic subgroup of order 8
        assert 8 in m.element_order_histogram()

    @pytest.mark.parametrize("q,order", [(2, 6), (3, 12), (4, 60), (5, 60), (7, 168)])
    def test_psl_orders(self, q, order):
        group = psl2(q)
        assert group.order == order
        assert group.degree == q + 1

    def test_pgl3_is_order_24_on_4_points(self):
        group = pgl2(3)
        assert group.order == 24
        assert group.degree == 4

    def test_unsupported_projective_groups(self):
        with pytest.raises(InputError, match="budget"):
            psl2(9)
        with pytest.raises(InputError, match="budget"):
            pgl2(5)

    @pytest.mark.parametrize("spec,why", [
        ("PSL(2,6)", "6 is not a prime power"), ("PSL(2,1)", "1 is not a prime power"),
        ("PGL(2,10)", "10 is not a prime power"),
        ("PSL(2,9)", "out of the enumeration budget"),
        ("PGL(2,4)", "out of the enumeration budget"),
    ])
    def test_a_q_past_the_tables_is_refused_for_what_it_is(self, spec, why):
        # a budget names only prime powers; census -q words the others the same way
        with pytest.raises(InputError, match=f"^parse error at position 0: .*{why}") as exc:
            parse_group_spec(spec)
        assert ("budget" in str(exc.value)) == ("budget" in why)

    def test_direct_product(self):
        g = direct_product([cyclic(2), cyclic(3), symmetric(3)])
        assert g.order == 36
        assert g.degree == 2 + 3 + 3


class TestParseGroupSpec:
    @pytest.mark.parametrize("text,order", [
        ("A4", 12),
        ("perm4:(1,2,3,4);(1,3)", 8),
        ("PSL(2,5)", 60),
        ("C6", 6),
        ("D4", 8),
        ("Dih8", 8),
        ("E27", 27),
        ("V4", 4),
        ("Q8", 8),
        ("M16", 16),
        ("C2xC2xC3", 12),
        ("PGL(2,3)", 24),
    ])
    def test_orders(self, text, order):
        assert parse_group_spec(text).group.order == order

    def test_dihedral_note_disambiguates(self):
        spec = parse_group_spec("D4")
        assert any("order 8" in n for n in spec.notes)
        spec = parse_group_spec("Dih8")
        assert any("order 8" in n for n in spec.notes)

    def test_signature_is_stable(self):
        a = signature_of(parse_group_spec("S4").group)
        b = signature_of(parse_group_spec("S4").group)
        assert a == b
        assert a["order"] == 24
        assert len(a["table_hash"]) == 64

    def test_deterministic_group(self):
        g1 = parse_group_spec("PSL(2,5)").group
        g2 = parse_group_spec("PSL(2,5)").group
        assert g1.elements == g2.elements

    @pytest.mark.parametrize("bad", [
        "", "E6", "PSL(2,11)", "PGL(2,7)", "noSuch", "C2x", "xC2", "S6", "A9",
        "perm0:(1,2)", "Dih7",
    ])
    def test_errors(self, bad):
        with pytest.raises(InputError):
            parse_group_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(InputError, match="position 3"):
            parse_group_spec("C2xnope")

    @pytest.mark.parametrize("spec, position", [("C0", 0), ("D0", 0), ("S0", 0), ("A0", 0),
                                                ("C2xA0", 3)])
    def test_a_constructor_error_carries_position(self, spec, position):
        with pytest.raises(InputError, match=rf"^parse error at position {position}: "
                                             r"\w+ (order|parameter) must be >= 1$"):
            parse_group_spec(spec)

    def test_whitespace_tolerated(self):
        assert parse_group_spec("  A4  ").group.order == 12


class TestTableLimit:
    """An order or degree past MUL_TABLE_LIMIT is refused before any tuple of
    that length is built, so a huge token costs no memory."""

    @pytest.mark.parametrize("token", ["C1000000000", "D500000000", "Dih1000000000",
                                       "E999999999989", "perm1000000000:(1,2)",
                                       "perm1000000000:"])
    def test_a_huge_token_is_refused_before_any_tuple(self, monkeypatch, token):
        def refuse(*args):
            raise AssertionError("a group was built for a huge token")

        for name in ("tuple", "parse_generators", "generate_group"):
            monkeypatch.setattr(catalog, name, refuse, raising=False)
        with pytest.raises(SizeError, match=f"exceeds table limit {MUL_TABLE_LIMIT}"):
            parse_group_spec(token)

    @pytest.mark.parametrize("fits,refused", [("C12", "C13"), ("D6", "D7"), ("Dih12", "Dih14"),
                                              ("perm12:(1,2)", "perm13:(1,2)")])
    def test_the_bound_itself_fits(self, monkeypatch, fits, refused):
        monkeypatch.setattr(catalog, "MUL_TABLE_LIMIT", 12)
        assert parse_group_spec(fits).group.order in (2, 12)
        with pytest.raises(SizeError, match="exceeds table limit 12"):
            parse_group_spec(refused)


class TestCatalogList:
    def test_all_names_parse(self):
        for name in CATALOG_NAMES:
            assert parse_group_spec(name).group.order >= 2

    def test_spec_required_members_present(self):
        required = {"C2", "C12", "E4", "E8", "V4", "Q8", "D4", "D5", "D6",
                    "S3", "S4", "A4", "A5", "PSL(2,5)", "PSL(2,4)", "PGL(2,3)",
                    "C2xC2xC3", "M16", "D8"}
        assert required <= set(CATALOG_NAMES)


class TestRecognition:
    def test_psl_detection(self):
        assert recognize_projective(psl2(2)) == ("psl", 2)
        assert recognize_projective(psl2(7)) == ("psl", 7)
        assert recognize_projective(symmetric(3)) == ("psl", 2)
        assert recognize_projective(alternating(4)) == ("psl", 3)

    def test_a5_recognized_regardless_of_model(self):
        for group in (alternating(5), psl2(4), psl2(5)):
            family, q = recognize_projective(group)
            assert family == "psl"
            assert q in (4, 5)

    def test_pgl_detection(self):
        assert recognize_projective(pgl2(3)) == ("pgl", 3)
        assert recognize_projective(symmetric(4)) == ("pgl", 3)
        assert recognize_projective(symmetric(5)) == ("pgl", 5)

    def test_non_projective_groups(self):
        assert recognize_projective(cyclic(6)) is None
        assert recognize_projective(quaternion()) is None
