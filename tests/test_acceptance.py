"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import time
from fractions import Fraction

import pytest

from latspec.catalog import CATALOG_NAMES, parse_group_spec
from latspec.cli import main
from latspec.closed_forms import census_comparison, f2_pgl_closed, f2_psl_closed, mobius_symmetric
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
from latspec.errors import DomainError
from latspec.graph import adjacency_matrix, build_graph, laplacian_matrix
from latspec.lattice import enumerate_subgroups
from latspec.spectral import eigenvalues_symmetric, spectral_sums


def report(line: str) -> None:
    print(line)


def test_criterion_01_sd_a4_three_methods():
    start = time.perf_counter()
    lattice = enumerate_subgroups(parse_group_spec("A4").group)
    graph = build_graph(lattice)
    values = (sd_direct(lattice), sd_spectral(lattice, graph), sd_via_f2(lattice))
    elapsed = time.perf_counter() - start
    assert values == (64,) * 3  # each over |L|^2 = 100
    assert [sd_text(lattice, v) for v in values] == ["16/25"] * 3
    assert elapsed < 1.0
    report(f"criterion 1: PASS -- sd(A4) = 16/25 by direct, spectral, and via-F2 "
           f"({elapsed:.3f}s)")


def test_criterion_02_f2_a4_four_methods():
    lattice = enumerate_subgroups(parse_group_spec("A4").group)
    values = (
        f2_direct(lattice),
        f2_mobius(lattice),
        f2_split_laplacian(lattice),
        f2_split_adjacency(lattice),
    )
    assert values == (27, 27, 27, 27)
    report("criterion 2: PASS -- F2(A4) = 27 by direct, Möbius inversion, and both splits")


@pytest.mark.parametrize("name,expected", [
    ("A4", (0, 4, 4, 7, 7, 7, 7)),
    ("S3", (0, 3, 3)),
    ("D4", (0, 2, 2, 4)),
])
def test_criterion_03_laplacian_spectra(name, expected):
    lattice = enumerate_subgroups(parse_group_spec(name).group)
    (spectrum,) = eigenvalues_symmetric(laplacian_matrix(build_graph(lattice)))
    assert tuple(round(v) for v in spectrum.values) == expected
    residual = max(abs(v - r) for v, r in zip(spectrum.values, expected))
    assert residual < 1e-9
    report(f"criterion 3: PASS -- Laplacian spectrum of the {name} graph is "
           f"{list(expected)} (max residual {residual:.2e})")


def test_criterion_04_s4_structure_and_mobius_table():
    lattice = enumerate_subgroups(parse_group_spec("S4").group)
    assert lattice.size == 30
    graph = build_graph(lattice)
    assert graph.vertex_count == 26
    assert f2_direct(lattice) == 177
    sub = enumerate_subgroups(parse_group_spec("A4").group)
    assert f2_pgl_closed(3, lattice.size, sub.size) == 177

    group = lattice.group
    top = lattice.top_id
    # mu(X, G) keyed by isomorphism shape of X, from the recursion
    expected = {
        ("transposition", 2): 2,
        ("double", 2): 0,
        ("c3", 3): 1,
        ("c4", 4): 0,
        ("v4_normal", 4): 3,
        ("v4_other", 4): 0,
        ("s3", 6): -1,
        ("d4", 8): -1,
        ("a4", 12): -1,
    }
    seen = set()
    for sub_ in lattice.subgroups:
        members = sub_.member_indices()
        orders = sorted(group.order_of_index(i) for i in members)
        if sub_.order == 2:
            moved = sum(1 for i, v in enumerate(group.elements[members[-1]].images) if v != i)
            kind = "transposition" if moved == 2 else "double"
        elif sub_.order == 3:
            kind = "c3"
        elif sub_.order == 4 and orders[-1] == 4:
            kind = "c4"
        elif sub_.order == 4:
            table = group.mul_table
            normal = all(
                table[group.inverse_index(g)][table[m][g]] in members
                for g in range(group.order) for m in members
            )
            kind = "v4_normal" if normal else "v4_other"
        elif sub_.order == 6:
            kind = "s3"
        elif sub_.order == 8:
            kind = "d4"
        elif sub_.order == 12:
            kind = "a4"
        else:
            continue
        assert lattice.mobius(sub_.id, top) == expected[(kind, sub_.order)], kind
        seen.add((kind, sub_.order))
    assert seen == set(expected)
    report("criterion 4: PASS -- F2(S4) = 177 (direct and closed form), |L| = 30, "
           "26 vertices, and the full mu(X, S4) table matches")


def test_criterion_05_s4_discrepancy_reporting(capsys):
    code = main(["verify", "S4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "INTERNAL FAILURE" not in out
    # (a) recursion vs published bottom Möbius value
    assert "-12" in out and "-24" in out
    # (b) computed doubled edge count vs published spectrum sum
    assert "390" in out and "378" in out
    report("criterion 5: PASS -- verify S4 exits 0 and reports the -12/-24 and "
           "390/378 disagreements as notes")


def test_criterion_06_psl25_census_and_f2():
    start = time.perf_counter()
    lattice = enumerate_subgroups(parse_group_spec("PSL(2,5)").group)
    assert lattice.size == 59
    by_order = {}
    for sub in lattice.subgroups:
        by_order[sub.order] = by_order.get(sub.order, 0) + 1
    assert by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}
    assert f2_direct(lattice) == 237
    assert f2_psl_closed(5, lattice.size) == 237
    comparison = census_comparison(lattice, 5)
    checked = [row for row in comparison["entries"]
               if row["family"] in ("cyclic", "dihedral", "alt4")]
    assert checked and all(row["match"] is True for row in checked)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 6: PASS -- PSL(2,5): 59 subgroups, census families (i)-(iii) "
           f"match brute force, F2 = 237 both ways ({elapsed:.2f}s)")


def test_criterion_07_identity_suite_catalog():
    start = time.perf_counter()
    names = []
    for name in CATALOG_NAMES:
        spec = parse_group_spec(name)
        if spec.group.order > 60:
            continue
        names.append(name)
        lattice = enumerate_subgroups(spec.group)
        rep = verify_identities(lattice)
        failed = [c["name"] for c in rep["checks"] + rep["trace_checks"] if not c["passed"]]
        assert not failed, f"{name}: {failed}"
        graph = build_graph(lattice)
        two_e = 2 * graph.edge_count
        n2 = lattice.size ** 2
        assert Fraction(two_e) == n2 * (1 - Fraction(rep["sd"]["direct"]))
        adj, lap = map(spectral_sums, eigenvalues_symmetric(adjacency_matrix(graph),
                                                            laplacian_matrix(graph)))
        tol = 1e-8 * max(1, two_e)
        assert abs(adj[0]) <= tol
        assert abs(lap[0] - two_e) <= tol
        assert abs(adj[1] - two_e) <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"criterion 7: PASS -- identity suite green for {len(names)} catalog "
           f"groups of order <= 60 ({elapsed:.1f}s)")


def test_criterion_08_quasihamiltonian_behavior():
    abelian = [n for n in CATALOG_NAMES
               if parse_group_spec(n).group.is_abelian()]
    assert abelian
    for name in ["Q8"] + abelian:
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        assert sd_direct(lattice) == lattice.size ** 2, name
        assert build_graph(lattice).is_null(), name
        with pytest.raises(DomainError):
            f2_split_laplacian(lattice)
        with pytest.raises(DomainError):
            f2_split_adjacency(lattice)
    report(f"criterion 8: PASS -- Q8 and {len(abelian)} abelian catalog groups give "
           "sd = 1, the null graph, and 'not applicable' splits")


def test_criterion_09_hall_shareshian_cross_checks():
    elementary = [("E4", 2, 2), ("E8", 2, 3), ("E9", 3, 2), ("E27", 3, 3),
                  ("C2", 2, 1), ("C3", 3, 1)]
    for name, p, n in elementary:
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        expected = (-1) ** n * p ** (n * (n - 1) // 2)
        assert lattice.mobius(lattice.bottom_id, lattice.top_id) == expected, name
    non_elementary = ["C4", "C8", "C16", "C9", "Q8", "D4", "D8", "M16", "C4xC2", "C4xC4"]
    for name in non_elementary:
        lattice = enumerate_subgroups(parse_group_spec(name).group)
        assert lattice.mobius(lattice.bottom_id, lattice.top_id) == 0, name
    s3 = enumerate_subgroups(parse_group_spec("S3").group)
    transcribed = mobius_symmetric(3)
    assert s3.mobius(s3.bottom_id, s3.top_id) == transcribed.value == 3
    assert not transcribed.check_by_recursion
    report("criterion 9: PASS -- recursion matches the elementary-abelian closed form "
           "(p in {2,3}, n <= 3), vanishes for 10 non-elementary p-groups, and "
           "mu(1,S3) = 3")


def test_criterion_10_determinism(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        code = main(["verify", "--catalog", "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert all(g["report"]["internal_ok"] for g in payload["groups"])
    assert sum(len(g["report"]["notes"]) for g in payload["groups"]) >= 1

    cache_dir = tmp_path / "cache"
    blobs = []
    renders = []
    for _ in range(2):
        code = main(["--cache", str(cache_dir), "lattice", "PSL(2,5)", "--json"])
        assert code == 0
        renders.append(capsys.readouterr().out)
        blobs.append(sorted(cache_dir.glob("*.json"))[0].read_bytes())
    assert blobs[0] == blobs[1]
    assert renders[0] == renders[1]  # cold compute vs cache reload
    report("criterion 10: PASS -- verify --catalog --json is byte-identical across "
           "runs and cache round-trips are bit-identical")
