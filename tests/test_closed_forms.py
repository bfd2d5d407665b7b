import contextlib
import io
import json
from fractions import Fraction

import pytest

import latspec.closed_forms as closed_forms
from latspec.catalog import alternating, cyclic, dihedral, elementary_abelian, psl2, quaternion, symmetric
from latspec.closed_forms import (
    NOT_STATED,
    Q_LIMIT,
    STATED_UNVERIFIED,
    PrimePower,
    _divisors,
    census_comparison,
    cyclic_counts,
    dickson_census,
    dihedral_counts,
    f2_cyclic,
    f2_dihedral,
    f2_pgl_closed,
    f2_psl_closed,
    is_prime,
    least_prime_factor,
    mobius_hall,
    mobius_symmetric,
    ratio_text,
)
from latspec.cli import main
from latspec.degrees import f2_direct
from latspec.errors import DomainError, InputError, SizeError
from latspec.lattice import enumerate_subgroups


class TestPrimePower:
    def test_factorization(self):
        pp = PrimePower.from_value(27)
        assert (pp.p, pp.n, pp.q) == (3, 3, 27)

    @pytest.mark.parametrize("bad", [1, 6, 12, 0])
    def test_non_prime_power_rejected(self, bad):
        with pytest.raises(InputError):
            PrimePower.from_value(bad)

    def test_direct_construction_validates(self):
        with pytest.raises(InputError):
            PrimePower(4, 2)

    def test_a_value_past_the_bound_is_refused_before_trial_division(self):
        assert PrimePower.from_value(999_999_999_989).q == 999_999_999_989 <= Q_LIMIT
        with pytest.raises(SizeError, match=str(Q_LIMIT)):
            PrimePower.from_value(Q_LIMIT + 39)

    def test_a_prime_past_the_bound_is_refused_before_trial_division(self):
        assert is_prime(999_999_999_989)
        with pytest.raises(SizeError, match=str(Q_LIMIT)):
            is_prime(Q_LIMIT + 39)  # prime, and trial division would take 0.3 s

    def test_both_bounds_run_before_the_one_trial_division(self, monkeypatch):
        def refuse(n):
            raise AssertionError("trial division ran")

        monkeypatch.setattr(closed_forms, "least_prime_factor", refuse)
        for check in (is_prime, PrimePower.from_value):
            with pytest.raises(SizeError, match=str(Q_LIMIT)):
                check(Q_LIMIT + 39)


def test_least_prime_factor_matches_the_range_definition():
    for n in range(2, 2001):
        assert least_prime_factor(n) == next(d for d in range(2, n + 1) if n % d == 0), n


def test_divisors_match_the_range_definition():
    for n in range(2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


class TestF2PslClosed:
    @pytest.mark.parametrize("q,expected", [(2, 17), (3, 27), (5, 237), (7, 1141), (9, 2033)])
    def test_table_values(self, q, expected):
        assert f2_psl_closed(q, lattice_size=0) == expected

    def test_even_branch_q4(self):
        # 2|L| + 2q(q^2-1) - 1 with |L(PSL(2,4))| = 59
        assert f2_psl_closed(4, lattice_size=59) == 2 * 59 + 2 * 4 * 15 - 1 == 237

    @pytest.mark.parametrize("q,builder", [(2, lambda: symmetric(3)), (3, lambda: alternating(4))])
    def test_matches_brute_force_for_tiny_q(self, q, builder):
        lattice = enumerate_subgroups(builder())
        assert f2_psl_closed(q, lattice.size) == f2_direct(lattice)

    def test_q5_matches_brute_force(self):
        lattice = enumerate_subgroups(alternating(5))
        assert f2_psl_closed(5, lattice.size) == f2_direct(lattice) == 237

    def test_q7_matches_brute_force(self):
        lattice = enumerate_subgroups(psl2(7))
        assert lattice.size == 179
        assert f2_psl_closed(7, lattice.size) == f2_direct(lattice) == 1141

    def test_uncovered_q_rejected(self):
        with pytest.raises(DomainError):
            f2_psl_closed(13, lattice_size=100)


class TestF2PglClosed:
    def test_q3_is_the_symmetric_group_value(self):
        lattice = enumerate_subgroups(symmetric(4))
        sub = enumerate_subgroups(alternating(4))
        assert f2_pgl_closed(3, lattice.size, sub.size) == 177
        assert f2_direct(lattice) == 177

    @pytest.mark.parametrize("q,expected", [(5, 1103), (7, 3083), (29, 192349)])
    def test_table_values(self, q, expected):
        assert f2_pgl_closed(q, 0, 0) == expected

    def test_q5_matches_brute_force_on_s5(self):
        # the symmetric group on 5 points realizes PGL(2,5)
        lattice = enumerate_subgroups(symmetric(5))
        assert lattice.size == 156
        assert f2_direct(lattice) == 1103
        assert f2_pgl_closed(5, lattice.size, 59) == 1103

    def test_characteristic_two_rejected(self):
        with pytest.raises(DomainError):
            f2_pgl_closed(4, 10, 10)

    def test_large_q_branches(self):
        # branch selection only; formulas take the lattice sizes straight through
        assert f2_pgl_closed(37, 100, 50) == 3 * 37 * (37 ** 2 - 1) + 400 - 100 - 3
        assert f2_pgl_closed(31, 100, 50) == 4 * 31 * (31 ** 2 - 1) + 400 - 100 - 3


class TestDicksonCensus:
    def test_q5_stated_counts(self):
        rows = {(e.family, e.label): e for e in dickson_census(5)}
        assert rows[("cyclic", "C2")].count == 15
        assert rows[("cyclic", "C3")].count == 10
        assert rows[("dihedral", "D4 (order 4)")].count == 5
        assert rows[("dihedral", "D6 (order 6)")].count == 10
        assert rows[("alt4", "A4")].count == 5

    def test_q5_alt5_flagged_unverified(self):
        rows = {(e.family, e.label): e for e in dickson_census(5)}
        entry = rows[("alt5", "A5")]
        assert entry.count == 2
        assert entry.status == STATED_UNVERIFIED

    def test_not_stated_families(self):
        statuses = {e.family: e.status for e in dickson_census(5)
                    if e.family in ("elementary_abelian", "semidirect")}
        assert set(statuses.values()) == {NOT_STATED}

    def test_q4_uses_full_torus_divisors(self):
        rows = {(e.family, e.label): e for e in dickson_census(4)}
        assert rows[("cyclic", "C3")].count == 10
        assert rows[("cyclic", "C5")].count == 6

    def test_q4_even_characteristic_flags(self):
        for e in dickson_census(4):
            if e.family in ("dihedral", "alt4"):
                assert e.status == STATED_UNVERIFIED

    def test_q7_includes_sym4(self):
        rows = {(e.family, e.label): e for e in dickson_census(7)}
        assert rows[("sym4", "S4")].count == 7 * 48 // 24

    def test_small_q_rejected(self):
        with pytest.raises(InputError):
            dickson_census(3)


@pytest.fixture(scope="module")
def q5_comparison():
    lattice = enumerate_subgroups(psl2(5))
    return census_comparison(lattice, 5)


class TestCensusComparison:
    def test_families_one_to_three_all_match(self, q5_comparison):
        rows = [r for r in q5_comparison["entries"]
                if r["family"] in ("cyclic", "dihedral", "alt4")]
        assert rows
        assert all(r["match"] is True for r in rows)

    def test_brute_counts_fill_unstated_families(self, q5_comparison):
        by_label = {r["label"]: r for r in q5_comparison["entries"]}
        assert by_label["C5^1"]["brute_count"] == 6

    def test_unmatched_reports_leftover_types(self, q5_comparison):
        descriptions = {u["description"]: u["brute_count"]
                        for u in q5_comparison["unmatched"]}
        assert descriptions["order 10, nonabelian, exponent 10"] == 6
        assert descriptions["order 1, abelian, exponent 1"] == 1

    def test_unverified_entries_carry_no_verdict(self, q5_comparison):
        alt5 = [r for r in q5_comparison["entries"] if r["family"] == "alt5"]
        assert alt5[0]["match"] is None

    def test_q4_family_one_matches(self):
        lattice = enumerate_subgroups(psl2(4))
        rows = [r for r in census_comparison(lattice, 4)["entries"]
                if r["family"] == "cyclic"]
        assert rows
        assert all(r["match"] is True for r in rows)


class TestCensusByClass:
    """The brute-force census keys each conjugacy class once, by its representative."""

    @pytest.mark.parametrize("q, classes, matches", [(4, 9, 3), (5, 9, 5), (7, 15, 9)])
    def test_one_key_per_class_gives_the_per_subgroup_payload(self, monkeypatch, q, classes,
                                                              matches):
        lattice = enumerate_subgroups(psl2(q))
        calls = {"iso": 0, "reference": 0}
        real_iso, real_reference = lattice.standalone_group, closed_forms._reference_key

        def iso(sid):
            calls["iso"] += 1
            return real_iso(sid)

        def reference(*args):
            calls["reference"] += 1
            return real_reference(*args)

        monkeypatch.setattr(lattice, "standalone_group", iso)
        monkeypatch.setattr(closed_forms, "_reference_key", reference)
        payload = census_comparison(lattice, q)
        assert calls == {"iso": classes, "reference": len(dickson_census(q))}
        assert [row["match"] for row in payload["entries"]].count(True) == matches
        assert all(row["match"] is not False for row in payload["entries"])
        # the reference count: every subgroup a class of its own, keyed by itself
        monkeypatch.setattr(lattice, "classes", lambda: [(sid, 1) for sid in range(lattice.size)])
        assert census_comparison(lattice, q) == payload
        assert calls["iso"] == classes + lattice.size


class TestMobiusHall:
    @pytest.mark.parametrize("p,n,flag,expected", [
        (2, 2, True, 2),
        (2, 2, False, 0),
        (3, 1, True, -1),
        (2, 3, True, -8),
        (3, 2, True, 3),
        (3, 3, True, -27),
    ])
    def test_values(self, p, n, flag, expected):
        assert mobius_hall(p, n, flag) == expected

    def test_cross_check_with_recursion(self):
        cases = [
            (elementary_abelian(2, 2), 2, 2, True),
            (elementary_abelian(2, 3), 2, 3, True),
            (elementary_abelian(3, 2), 3, 2, True),
            (cyclic(4), 2, 2, False),
            (cyclic(8), 2, 3, False),
            (cyclic(9), 3, 2, False),
            (quaternion(), 2, 3, False),
            (dihedral(4), 2, 3, False),
        ]
        for group, p, n, flag in cases:
            lattice = enumerate_subgroups(group)
            recursion = lattice.mobius(lattice.bottom_id, lattice.top_id)
            assert recursion == mobius_hall(p, n, flag)

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            mobius_hall(6, 1, True)


class TestMobiusSymmetric:
    def test_prime_branch(self):
        assert mobius_symmetric(2).value == -1
        assert mobius_symmetric(3).value == 3
        assert mobius_symmetric(5).value == 60
        assert not mobius_symmetric(3).check_by_recursion

    def test_n3_agrees_with_recursion(self):
        lattice = enumerate_subgroups(symmetric(3))
        assert lattice.mobius(lattice.bottom_id, lattice.top_id) == mobius_symmetric(3).value

    def test_n4_transcribed_value_conflicts_with_recursion(self):
        # the overlapping branches give -24 at n=4; the recursion gives -12,
        # so the flag demanding a recursion check must be set
        transcribed = mobius_symmetric(4)
        assert transcribed.value == -24
        assert transcribed.check_by_recursion
        lattice = enumerate_subgroups(symmetric(4))
        assert lattice.mobius(lattice.bottom_id, lattice.top_id) == -12

    def test_n_below_two_rejected(self):
        with pytest.raises(InputError):
            mobius_symmetric(1)


class TestRatioText:
    def test_prints_as_str_fraction(self):
        for p in range(-40, 41):
            for q in range(1, 41):
                assert ratio_text(p, q) == str(Fraction(p, q)), (p, q)

    def test_census_note_prints_the_reduced_value(self):
        # 4 * 15 / 24 = 5/2: the odd-characteristic D4 and A4 counts at q = 4
        notes = [e.note for e in dickson_census(4) if e.label in ("D4 (order 4)", "A4")]
        assert notes == ["odd-characteristic formula; formula value 5/2 is not an integer"] * 2


class TestCyclicAndDihedralOracle:
    """F2, |L|, the subgroup F2 sum and 2|E| of C_n and D_2n from divisor sums,
    checked against `verify`, which enumerates the lattice and tests pairs."""

    def test_small_values(self):
        # C_n: HK = C_n iff lcm(|H|, |K|) = n; S3 = D_6, V4 = D_4, C2 = D_2
        assert [f2_cyclic(n) for n in (1, 2, 6, 12)] == [1, 3, 9, 15]
        assert [f2_dihedral(n) for n in (1, 2, 3, 4)] == [3, 15, 17, 41]
        assert (f2_dihedral(720), f2_dihedral(2048)) == (40_075, 24_587)

    @pytest.mark.parametrize("name", [f"C{n}" for n in range(1, 25)]
                             + [f"D{n}" for n in range(3, 25)])
    def test_verify_matches_the_closed_forms(self, name):
        n = int(name[1:])
        want = (cyclic_counts if name[0] == "C" else dihedral_counts)(n)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", name, "--json"]) == 0
        [entry] = json.loads(out.getvalue())["groups"]
        report = entry["report"]
        size = want["lattice_size"]
        sd = str(Fraction(want["f2_sum"], size * size))
        split = None if want["two_e"] == 0 else want["f2"]  # no split for sd = 1
        assert report["lattice_size"] == size
        assert report["sd"] == {"direct": sd, "spectral": sd, "via_f2": sd}
        assert 2 * report["edge_count"] == want["two_e"]
        assert report["f2"] == {"direct": want["f2"], "mobius": want["f2"],
                                "split_laplacian": split, "split_adjacency": split}
        assert report["internal_ok"]
