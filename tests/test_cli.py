import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latspec.cache as cache
import latspec.catalog as catalog
import latspec.cli as cli
import latspec.degrees as degrees
import latspec.lattice as lattice_module
import latspec.spectral as spectral
from latspec.catalog import CATALOG_NAMES, parse_group_spec
from latspec.cli import main
from latspec.graph import adjacency_matrix, laplacian_matrix
from latspec.lattice import SubgroupLattice, enumerate_subgroups
from latspec.perm import FiniteGroup

from conftest import read_cache_file, write_cache_file
from test_golden import FTOL, GOLDEN, assert_matches

# stdout of pinned commands, keyed by their space-joined argv, recorded when
# every block was still gathered from the dense graph matrices
PINNED = json.loads((GOLDEN / "commands.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """`latspec argv` in a child process with a 20 s timeout, so that a hang
    fails one test instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "latspec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)


class TestBasics:
    def test_info(self, capsys):
        code, out, _ = run(capsys, "info", "S4")
        assert code == 0
        assert "order            24" in out
        assert "quasihamiltonian no" in out

    def test_info_json(self, capsys):
        code, out, _ = run(capsys, "--json", "info", "Q8")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 8
        assert payload["quasihamiltonian"] is True

    def test_global_flags_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "info", "Q8", "--json")
        assert code == 0
        assert json.loads(out)["order"] == 8

    def test_dihedral_disambiguation_line(self, capsys):
        code, out, _ = run(capsys, "info", "D4")
        assert code == 0
        assert "dihedral group of order 8" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "info", "Zork")
        assert code == 2
        assert "parse error" in err

    def test_budget_error_exits_2(self, capsys):
        code, _, err = run(capsys, "info", "PSL(2,11)")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("token", ["C1000000000", "D500000000", "E999999999989",
                                       "perm1000000000:(1,2)"])
    def test_a_huge_token_exits_2_before_any_tuple(self, capsys, monkeypatch, token):
        def refuse(*args):
            raise AssertionError("a group was built for a huge token")

        for name in ("tuple", "parse_generators", "generate_group"):
            monkeypatch.setattr(catalog, name, refuse, raising=False)
        code, out, err = run(capsys, "info", token)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "table limit 4096" in err

    @pytest.mark.parametrize("argv", [("--tol", "1e-10", "verify", "S4"),
                                      ("verify", "S4", "--tol", "1e-10")])
    def test_tol_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "1e-10" in captured.err


class TestLatticeGraphSpectrum:
    def test_lattice_text(self, capsys):
        code, out, _ = run(capsys, "lattice", "A4")
        assert code == 0
        assert "10 subgroups" in out
        assert "(core)" in out

    def test_lattice_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "A4", "--json")
        payload = json.loads(out)
        assert payload["size"] == 10
        assert len(payload["subgroups"]) == 10
        assert payload["core"] == sorted(payload["core"])

    def test_graph_text(self, capsys):
        code, out, _ = run(capsys, "graph", "A4")
        assert code == 0
        assert "7 vertices, 18 edges" in out

    def test_graph_dot_stdout(self, capsys):
        code, out, _ = run(capsys, "graph", "S3", "--dot", "-")
        assert code == 0
        assert out.startswith("graph G {")
        assert out.count("--") == 3

    def test_graph_dot_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "A4", "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.count("label=") == 7
        assert text.count("--") == 18

    @pytest.mark.parametrize("missing", [True, False], ids=["missing_directory", "empty_path"])
    def test_graph_dot_to_a_path_that_cannot_be_written_exits_2(self, capsys, tmp_path, missing):
        target = tmp_path / "missing" / "g.dot" if missing else ""
        code, out, err = run(capsys, "graph", "S4", "--dot", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_spectrum_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "A4", "--csv")
        assert code == 0
        values = [round(float(line)) for line in out.splitlines()]
        assert values == [0, 4, 4, 7, 7, 7, 7]

    def test_spectrum_adjacency_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "S3", "--matrix", "adjacency", "--json")
        payload = json.loads(out)
        assert payload["matrix"] == "adjacency"
        assert len(payload["values"]) == 3

    def test_graph_matrix_csv(self, capsys):
        code, out, _ = run(capsys, "graph", "S3", "--matrix", "laplacian")
        assert code == 0
        rows = [[int(t) for t in line.split(",")] for line in out.strip().splitlines()]
        assert len(rows) == 3
        assert all(sum(row) == 0 for row in rows)

    def test_graph_matrix_json(self, capsys):
        code, out, _ = run(capsys, "graph", "D4", "--matrix", "adjacency", "--json")
        payload = json.loads(out)
        assert payload["matrix"] == "adjacency"
        assert len(payload["entries"]) == 4
        assert sum(sum(row) for row in payload["entries"]) == 8


class TestMobiusHughes:
    def test_mobius_table(self, capsys):
        code, out, _ = run(capsys, "mobius", "A4", "--json")
        payload = json.loads(out)
        values = {row["order"]: row["mobius"] for row in payload["values"]}
        assert values[1] == 4
        assert values[12] == 1

    def test_mobius_bad_upper_exits_2(self, capsys):
        code, _, err = run(capsys, "mobius", "A4", "--upper", "99")
        assert code == 2

    def test_hughes(self, capsys):
        code, out, _ = run(capsys, "hughes", "S3", "-p", "2")
        assert code == 0
        assert "order 3" in out

    def test_hughes_non_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "hughes", "S3", "-p", "6")
        assert code == 2

    def test_hughes_prime_at_the_bound_runs(self, capsys):
        code, out, _ = run(capsys, "hughes", "S3", "-p", "999999999989")
        assert code == 0 and "order 6" in out

    def test_hughes_prime_past_the_bound_exits_2_before_trial_division(self, capsys):
        def stop(signum, frame):
            raise TimeoutError("hughes -p trial-divided a 31-digit prime")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            code, out, err = run(capsys, "hughes", "S3", "-p", "1000000000000000000000000000057")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "1000000000000" in err


class TestSdF2:
    def test_sd_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "sd", "A4", "--method", "all", "--json")
        payload = json.loads(out)
        assert set(payload.values()) == {"16/25"}

    def test_sd_single_method(self, capsys):
        code, out, _ = run(capsys, "sd", "A4", "--method", "spectral")
        assert code == 0
        assert "16/25" in out

    def test_f2_all_methods(self, capsys):
        code, out, _ = run(capsys, "f2", "S4", "--method", "all", "--json")
        payload = json.loads(out)
        assert payload["direct"] == payload["mobius"] == 177
        assert payload["laplacian"] == payload["adjacency"] == 177
        assert payload["closed_form"] == 177

    def test_f2_closed_form_psl(self, capsys):
        code, out, _ = run(capsys, "f2", "PSL(2,5)", "--method", "closed-form", "--json")
        assert json.loads(out)["closed_form"] == 237

    def test_quasihamiltonian_not_applicable(self, capsys):
        code, out, _ = run(capsys, "f2", "Q8", "--method", "laplacian")
        assert code == 0
        assert "not applicable" in out


class TestCensus:
    def test_census_q5(self, capsys):
        code, out, _ = run(capsys, "census", "-q", "5", "--json")
        payload = json.loads(out)
        assert payload["lattice_size"] == 59
        matches = [row["match"] for row in payload["entries"]
                   if row["family"] in ("cyclic", "dihedral", "alt4")]
        assert matches and all(m is True for m in matches)

    @pytest.mark.parametrize("q, orders", [
        (4, [2, 2, 2, 2, 2, 3, 4, 4, 5, 6, 6, 10, 12, 60]),
        (5, [2, 2, 2, 3, 4, 5, 6, 12, 60, 60]),
        (7, [2, 2, 2, 3, 4, 4, 6, 7, 8, 12, 24, 168]),
    ])
    def test_census_closes_the_whole_group_once(self, capsys, monkeypatch, q, orders):
        # the whole group's own PSL(2,q) entry is keyed from the enumerated group;
        # q = 5 also builds A5 for its alt5 entry
        built = []
        real = catalog._from_images

        def recording(degree, images, expected):
            built.append(expected)
            return real(degree, images, expected)

        monkeypatch.setattr(catalog, "_from_images", recording)
        assert run(capsys, "census", "-q", str(q), "--json")[0] == 0
        assert sorted(built) == orders

    def test_census_large_q_analytic_only(self, capsys):
        code, out, _ = run(capsys, "census", "-q", "9", "--json")
        payload = json.loads(out)
        assert "lattice_size" not in payload
        assert "budget" in payload["note"]

    def test_census_small_q_exits_2(self, capsys):
        code, _, err = run(capsys, "census", "-q", "3")
        assert code == 2

    def test_census_of_a_large_prime_is_quick(self):
        done = run_child("census", "-q", "1000000007", "--json")
        assert done.returncode == 0, done.stderr
        labels = {row["label"] for row in json.loads(done.stdout)["entries"]}
        assert {"C2", "C500000004"} <= labels

    def test_census_past_the_q_bound_exits_2(self):
        done = run_child("census", "-q", str(10**12 + 39), "--json")
        assert (done.returncode, done.stdout) == (2, "")
        assert "exceeds the bound 1000000000000 on q" in done.stderr


class TestVerify:
    def test_single_group_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "A4")
        assert code == 0
        assert "ok" in out

    def test_s4_notes_do_not_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "S4")
        assert code == 0
        assert "note:" in out
        assert "-24" in out and "378" in out

    def test_missing_group_without_catalog(self, capsys):
        code, out, err = run(capsys, "verify")
        assert (code, out) == (2, "")
        assert err == "error: verify needs exactly one of a group spec and --catalog\n"

    def test_group_with_catalog(self, capsys):
        # the group is not silently dropped for the catalog
        code, out, err = run(capsys, "verify", "--catalog", "S4", "--json")
        assert (code, out) == (2, "")
        assert err == "error: verify needs exactly one of a group spec and --catalog\n"

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        real = degrees.f2_direct
        monkeypatch.setattr(degrees, "f2_direct", lambda lattice: real(lattice) + 1)
        code, out, _ = run(capsys, "verify", "S3")
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("argv", [("verify", "C1"), ("verify", "C1", "--json"),
                                      ("spectrum", "C1")])
    def test_trivial_group_exits_0(self, capsys, argv):
        # its largest element order is 1 and its graph is null: no block
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ""
        if "--json" in argv:
            assert json.loads(out)["groups"][0]["report"]["internal_ok"] is True

    def test_verify_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "A4", "--json")
        payload = json.loads(out)
        assert payload["groups"][0]["name"] == "A4"
        assert payload["groups"][0]["report"]["internal_ok"] is True

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
    def test_the_report_is_the_dict_verify_json_prints(self, capsys, name):
        report = degrees.verify_identities(enumerate_subgroups(parse_group_spec(name).group))
        code, out, _ = run(capsys, "verify", name, "--json")
        assert code == 0
        assert report == json.loads(out)["groups"][0]["report"]


class TestCache:
    def test_cache_flag_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        code1, out1, _ = run(capsys, "--cache", cache_dir, "lattice", "S4", "--json")
        code2, out2, _ = run(capsys, "--cache", cache_dir, "lattice", "S4", "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("LATSPEC_CACHE", str(cache_dir))
        code, _, _ = run(capsys, "info", "S3")
        assert code == 0
        assert list(cache_dir.glob("*.json"))

    def test_warm_catalog_verify_is_byte_identical_to_the_cold_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        cold = run(capsys, "--cache", cache_dir, "verify", "--catalog", "--json")
        assert cold[0] == 0 and cold[2] == ""
        assert run(capsys, "--cache", cache_dir, "verify", "--catalog", "--json") == cold
        assert run(capsys, "verify", "--catalog", "--json") == cold

    def test_verify_uses_cached_report(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        run(capsys, "--cache", cache_dir, "verify", "A4", "--json")
        code, out, _ = run(capsys, "--cache", cache_dir, "verify", "A4", "--json")
        assert code == 0
        assert json.loads(out)["groups"][0]["report"]["f2"]["direct"] == 27


class TestTruncatedCache:
    """A cached S4 lattice with A4 removed: once every route agreed on 443/841."""

    @pytest.fixture
    def cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert run(capsys, "--cache", str(cache_dir), "lattice", "S4", "--json")[0] == 0
        path = next(cache_dir.glob("*.json"))
        key, sections = read_cache_file(path)
        sections["lattice"] = [members for members in sections["lattice"] if len(members) != 12]
        write_cache_file(path, key, sections)
        return str(cache_dir)

    def test_verify_rejects_the_entry_and_recomputes(self, capsys, cache_dir):
        code, out, err = run(capsys, "--cache", cache_dir, "verify", "S4", "--json")
        assert code == 0
        assert "rejecting the cached entry for S4" in err
        report = json.loads(out)["groups"][0]["report"]
        assert report["internal_ok"] is True
        assert report["lattice_size"] == 30
        assert set(report["sd"].values()) == {"17/30"}
        assert set(report["f2"].values()) == {177}
        # the recomputed entry replaced the truncated one
        code, again, err = run(capsys, "--cache", cache_dir, "verify", "S4", "--json")
        assert (code, again, err) == (0, out, "")

    @pytest.mark.parametrize("argv, expected", [
        (("sd", "S4", "--method", "all"), {"direct": "17/30", "spectral": "17/30",
                                           "via_f2": "17/30"}),
        (("f2", "S4", "--method", "mobius"), {"mobius": 177}),
    ])
    def test_other_commands_reject_the_entry(self, capsys, cache_dir, argv, expected):
        code, out, err = run(capsys, "--cache", cache_dir, *argv, "--json")
        assert code == 0
        assert "rejecting the cached entry for S4" in err
        assert json.loads(out) == expected

    def test_lattice_text_lists_the_recomputed_lattice(self, capsys, cache_dir):
        code, out, err = run(capsys, "--cache", cache_dir, "lattice", "S4")
        assert code == 0
        assert "rejecting the cached entry for S4" in err
        assert out.startswith("30 subgroups")

    @pytest.mark.parametrize("argv", [
        ("info", "S4"), ("sd", "S4"), ("mobius", "S4"), ("hughes", "S4", "-p", "2"),
        ("f2", "S4", "--method", "direct"), ("lattice", "S4", "--json"),
    ])
    def test_one_run_repairs_the_entry_and_the_next_is_silent(self, capsys, tmp_path,
                                                               cache_dir, argv):
        fresh = tmp_path / "fresh"
        assert run(capsys, "--cache", str(fresh), "lattice", "S4", "--json")[0] == 0
        [path] = (tmp_path / "c").glob("*.json")
        expected = run(capsys, *argv)[:2]
        code, out, err = run(capsys, "--cache", cache_dir, *argv)
        assert (code, out) == expected
        assert err.startswith("warning: rejecting the cached entry for S4")
        assert err.count("\n") == 1
        assert path.read_bytes() == (fresh / path.name).read_bytes()
        assert run(capsys, "--cache", cache_dir, *argv) == (*expected, "")


class TestEditedLatticePart:
    """A cached S4 lattice part is proved by equality with the enumerated
    lattice's `member_lists()`: reordered or repeated lists, which hold
    every subgroup, are rejected and rewritten like a truncated part."""

    @pytest.fixture
    def fresh(self, capsys, tmp_path):
        cache_dir = tmp_path / "fresh"
        assert run(capsys, "--cache", str(cache_dir), "lattice", "S4", "--json")[0] == 0
        [path] = cache_dir.glob("*.json")
        return path

    @pytest.mark.parametrize("edit", [
        lambda lists: lists[::-1],
        lambda lists: lists[1:] + lists[:1],
        lambda lists: lists + lists[3:5],
        lambda lists: [members[::-1] for members in lists] + [lists[-1]],
    ], ids=["reversed", "rotated", "two_repeated", "indices_reversed_and_top_repeated"])
    def test_reordered_or_repeated_lists_are_rejected_and_rewritten(self, capsys, fresh, edit):
        cold = fresh.read_bytes()
        key, sections = read_cache_file(fresh)
        sections["lattice"] = edit(sections["lattice"])
        write_cache_file(fresh, key, sections)
        expected = run(capsys, "lattice", "S4", "--json")[:2]
        code, out, err = run(capsys, "--cache", str(fresh.parent), "lattice", "S4", "--json")
        assert (code, out) == expected
        assert err.startswith("warning: rejecting the cached entry for S4")
        assert err.count("\n") == 1
        assert fresh.read_bytes() == cold
        assert run(capsys, "--cache", str(fresh.parent), "lattice", "S4", "--json") == (
            *expected, "")

    def test_an_unedited_part_is_printed_and_nothing_is_written(self, capsys, fresh, monkeypatch):
        before = fresh.stat()
        stores = []
        monkeypatch.setattr(cli, "cache_store", lambda *args, **kwargs: stores.append(args))
        code, out, err = run(capsys, "--cache", str(fresh.parent), "lattice", "S4", "--json")
        assert (code, out, err) == (0, run(capsys, "lattice", "S4", "--json")[1], "")
        assert stores == []
        after = fresh.stat()
        assert (after.st_mtime_ns, after.st_size, after.st_ino) == (
            before.st_mtime_ns, before.st_size, before.st_ino)

    def test_the_dump_is_proved_before_it_is_printed(self, capsys, fresh, monkeypatch):
        proofs = []
        real = SubgroupLattice.from_member_lists.__func__

        def recording(cls, group, member_lists):
            proofs.append(group.order)
            return real(cls, group, member_lists)

        monkeypatch.setattr(SubgroupLattice, "from_member_lists", classmethod(recording))
        assert run(capsys, "--cache", str(fresh.parent), "lattice", "S4", "--json")[0] == 0
        assert proofs == [24]


class TestMalformedCache:
    """A cached lattice section of the wrong shape is rejected, not a traceback."""

    @pytest.mark.parametrize("corrupt", [
        lambda lists: lists + [[0, 999]],
        lambda lists: lists[:1] + [lists[1] + ["a"]] + lists[2:],
        lambda lists: lists + [5],
        lambda lists: {"subgroups": [{"members": members} for members in lists]},
    ], ids=["index_out_of_range", "index_not_an_int", "item_not_a_list",
            "section_not_a_list"])
    def test_entry_is_rejected_and_recomputed(self, capsys, tmp_path, corrupt):
        cache_dir = tmp_path / "c"
        assert run(capsys, "--cache", str(cache_dir), "lattice", "S3", "--json")[0] == 0
        path = next(cache_dir.glob("*.json"))
        key, sections = read_cache_file(path)
        sections["lattice"] = corrupt(sections["lattice"])
        write_cache_file(path, key, sections)
        code, out, err = run(capsys, "--cache", str(cache_dir), "sd", "S3", "--method", "all")
        assert code == 0
        assert "rejecting the cached entry for S3" in err
        assert (code, out) == run(capsys, "sd", "S3", "--method", "all")[:2]


    def test_a_non_object_file_is_malformed(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert run(capsys, "--cache", str(cache_dir), "info", "S3")[0] == 0
        path = next(cache_dir.glob("*.json"))
        path.write_text("[5]")
        code, out, err = run(capsys, "--cache", str(cache_dir), "sd", "S3")
        assert code == 0
        assert "ignoring malformed cache file" in err
        assert out == run(capsys, "sd", "S3")[1]
        # the next store rewrites the file
        assert run(capsys, "--cache", str(cache_dir), "info", "S3")[0] == 0
        assert read_cache_file(path)[1]
        assert run(capsys, "--cache", str(cache_dir), "sd", "S3")[2] == ""


class TestMalformedPart:
    """A cached part of the wrong shape is recomputed and rewritten, not a traceback."""

    # one item of another type in a list the readers index
    WRONG_ITEMS = {"spectra": {"adjacency": ["0"]}, "graph": {"edges": [3]},
                   "report": {"checks": [{}]}}

    @pytest.mark.parametrize("part, argv", [
        ("spectra", ("spectrum", "S3")),
        ("spectra", ("spectrum", "S3", "--matrix", "adjacency", "--csv")),
        ("graph", ("graph", "S3", "--json")),
        ("graph", ("graph", "S3")),
        ("report", ("verify", "S3", "--json")),
        ("report", ("verify", "S3")),
    ])
    @pytest.mark.parametrize("bad", [{}, None, [], "wrong_items"],
                             ids=["empty", "null", "list", "wrong_items"])
    def test_one_warning_then_a_cold_run_rewrite_then_silence(self, capsys, tmp_path,
                                                              part, argv, bad):
        cache_dir, fresh = tmp_path / "c", tmp_path / "fresh"
        assert run(capsys, "--cache", str(cache_dir), *argv)[0] == 0
        assert run(capsys, "--cache", str(fresh), *argv)[0] == 0
        [path] = cache_dir.glob("*.json")
        key, sections = read_cache_file(path)
        sections[part] = ({**sections[part], **self.WRONG_ITEMS[part]} if bad == "wrong_items"
                          else bad)
        write_cache_file(path, key, sections)
        expected = run(capsys, *argv)[:2]
        code, out, err = run(capsys, "--cache", str(cache_dir), *argv)
        assert (code, out) == expected
        assert err == (f"warning: rejecting the cached {part} part for S3: "
                       "it is malformed; recomputing\n")
        assert path.read_bytes() == (fresh / path.name).read_bytes()
        assert run(capsys, "--cache", str(cache_dir), *argv) == (*expected, "")

    # verify, spectrum and graph --json replay parts that derive from the lattice
    # without reading the lattice itself
    @pytest.mark.parametrize("argv", [("lattice", "S3", "--json"), ("verify", "S3", "--json"),
                                      ("spectrum", "S3"), ("graph", "S3", "--json")],
                             ids=["lattice_json", "verify_json", "spectrum", "graph_json"])
    @pytest.mark.parametrize("bad", [True, None, {}, 5, [[0], 5]],
                             ids=["true", "null", "object", "int", "item_not_a_list"])
    def test_a_malformed_lattice_part_rejects_the_entry(self, capsys, tmp_path, bad, argv):
        cache_dir, fresh = tmp_path / "c", tmp_path / "fresh"
        assert run(capsys, "--cache", str(cache_dir), *argv)[0] == 0
        assert run(capsys, "--cache", str(fresh), *argv)[0] == 0
        [path] = cache_dir.glob("*.json")
        key, sections = read_cache_file(path)
        sections["lattice"] = bad
        write_cache_file(path, key, sections)
        expected = run(capsys, *argv)[:2]
        code, out, err = run(capsys, "--cache", str(cache_dir), *argv)
        assert (code, out) == expected
        assert err.startswith("warning: rejecting the cached entry for S3")
        assert err.count("\n") == 1
        assert path.read_bytes() == (fresh / path.name).read_bytes()
        assert run(capsys, "--cache", str(cache_dir), *argv) == (*expected, "")


class TestExactItemTypes:
    """JSON true decodes to a bool, which isinstance counts as an int: a cached
    part must hold each plain item in its exact type."""

    @pytest.mark.parametrize("argv, part, warning", [
        (("lattice", "S4", "--json"), "lattice",
         "warning: rejecting the cached entry for S4: its lattice part is malformed; "
         "recomputing\n"),
        (("verify", "S4", "--json"), "report",
         "warning: rejecting the cached report part for S4: it is malformed; recomputing\n"),
    ], ids=["lattice_item", "report_field"])
    def test_true_for_an_int_warns_once_and_rewrites(self, capsys, tmp_path, argv, part,
                                                     warning):
        cache_dir, fresh = tmp_path / "c", tmp_path / "fresh"
        assert run(capsys, "--cache", str(cache_dir), *argv)[0] == 0
        assert run(capsys, "--cache", str(fresh), *argv)[0] == 0
        [path] = cache_dir.glob("*.json")
        key, sections = read_cache_file(path)
        if part == "lattice":  # S4's first subgroup of order 2: [0, 1] -> [0, true]
            sections["lattice"][sections["lattice"].index([0, 1])] = [0, True]
        else:
            sections["report"]["lattice_size"] = True
        write_cache_file(path, key, sections)
        expected = run(capsys, *argv)[:2]
        code, out, err = run(capsys, "--cache", str(cache_dir), *argv)
        assert (code, out, err) == (*expected, warning)
        assert path.read_bytes() == (fresh / path.name).read_bytes()
        assert run(capsys, "--cache", str(cache_dir), *argv) == (*expected, "")


class TestSectionLines:
    """Each cached part is one line of its file, decoded only by a command that reads it."""

    @pytest.fixture
    def broken_graph(self, capsys, tmp_path):
        """S4's file after `verify`, its graph line replaced by text that is not JSON."""
        cache_dir = tmp_path / "c"
        assert run(capsys, "--cache", str(cache_dir), "verify", "S4")[0] == 0
        [path] = cache_dir.glob("*.json")
        lines = path.read_text().split("\n")
        assert sum(line.startswith("graph\t") for line in lines) == 1
        path.write_text("\n".join("graph\t{not json" if line.startswith("graph\t") else line
                                  for line in lines))
        return path

    @pytest.mark.parametrize("argv", [
        ("info", "S4"), ("sd", "S4"), ("mobius", "S4"), ("hughes", "S4", "-p", "2"),
        ("f2", "S4"), ("spectrum", "S4"),
    ])
    def test_a_command_that_does_not_read_the_graph_is_silent_and_correct(
            self, capsys, broken_graph, argv):
        before = broken_graph.read_bytes()
        assert run(capsys, "--cache", str(broken_graph.parent), *argv) == run(capsys, *argv)
        assert broken_graph.read_bytes() == before

    def test_graph_json_warns_once_rewrites_the_file_and_the_next_run_is_silent(
            self, capsys, tmp_path, broken_graph):
        fresh = tmp_path / "fresh"
        assert run(capsys, "--cache", str(fresh), "verify", "S4")[0] == 0
        expected = run(capsys, "graph", "S4", "--json")[:2]
        code, out, err = run(capsys, "--cache", str(broken_graph.parent), "graph", "S4", "--json")
        assert (code, out) == expected
        assert err == "warning: rejecting the cached graph part for S4: it is malformed; recomputing\n"
        assert broken_graph.read_bytes() == (fresh / broken_graph.name).read_bytes()
        again = run(capsys, "--cache", str(broken_graph.parent), "graph", "S4", "--json")
        assert again == (*expected, "")

    def test_a_rewrite_recomputes_a_malformed_report_it_did_not_read(self, capsys, tmp_path,
                                                                     broken_graph):
        fresh = tmp_path / "fresh"
        assert run(capsys, "--cache", str(fresh), "verify", "S4")[0] == 0
        lines = broken_graph.read_text().split("\n")
        broken_graph.write_text("\n".join("report\t[]" if line.startswith("report\t") else line
                                          for line in lines))
        code, _, err = run(capsys, "--cache", str(broken_graph.parent), "graph", "S4", "--json")
        assert code == 0
        assert err == ("warning: rejecting the cached graph part for S4: it is malformed; "
                       "recomputing\n"
                       "warning: rejecting the cached report part for S4: it is malformed; "
                       "recomputing\n")
        assert broken_graph.read_bytes() == (fresh / broken_graph.name).read_bytes()
        assert run(capsys, "--cache", str(broken_graph.parent), "verify", "S4") == run(
            capsys, "verify", "S4")

    @pytest.fixture
    def fresh_file(self, capsys, tmp_path):
        fresh = tmp_path / "fresh"
        assert run(capsys, "--cache", str(fresh), "verify", "S4")[0] == 0
        [path] = fresh.glob("*.json")
        return path

    def test_a_warm_graph_json_decodes_the_key_lattice_and_graph_lines_once_each(
            self, capsys, fresh_file, monkeypatch):
        key_line, *lines = fresh_file.read_text().split("\n")
        text = dict(line.split("\t", 1) for line in lines if line)
        expected = run(capsys, "graph", "S4", "--json")
        decoded = []
        real = json.loads

        def recording(s, *args, **kwargs):
            decoded.append(s)
            return real(s, *args, **kwargs)

        monkeypatch.setattr(json, "loads", recording)
        assert run(capsys, "--cache", str(fresh_file.parent), "graph", "S4", "--json") == expected
        assert decoded == [key_line, text["lattice"], text["graph"]]

    def test_a_schema_2_file_is_a_silent_miss_and_is_rewritten(self, capsys, tmp_path,
                                                                 fresh_file):
        key, sections = read_cache_file(fresh_file)
        sections["report"]["f2"]["direct"] = 178  # replayed, this would print
        # the schema-2 layout: one object, the structure parts nested under "structure"
        old = {**key, "schema": 2, "sections": {
            "report": sections["report"],
            "structure": {part: sections[part] for part in ("lattice", "graph", "spectra")}}}
        path = tmp_path / "c" / fresh_file.name
        path.parent.mkdir()
        path.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n")
        assert run(capsys, "--cache", str(path.parent), "verify", "S4") == run(capsys, "verify", "S4")
        assert path.read_bytes() == fresh_file.read_bytes()

    def test_a_schema_3_file_is_a_silent_miss_and_is_rewritten_as_schema_5(
            self, capsys, tmp_path, fresh_file):
        key, sections = read_cache_file(fresh_file)
        sections["report"]["f2"]["direct"] = 178  # replayed, this would print
        # the schema-3 layout: the lattice section held the whole `lattice --json` dump
        sections["lattice"] = enumerate_subgroups(parse_group_spec("S4").group).to_json_dict()
        path = tmp_path / "c" / fresh_file.name
        path.parent.mkdir()
        write_cache_file(path, {**key, "schema": 3}, sections)
        assert run(capsys, "--cache", str(path.parent), "verify", "S4") == run(capsys, "verify", "S4")
        assert path.read_bytes() == fresh_file.read_bytes()
        assert read_cache_file(path)[0]["schema"] == 5

    @pytest.mark.parametrize("suffix", ["-1e-12.json", ".json"], ids=["its_name", "the_new_name"])
    def test_a_schema_4_file_is_a_silent_miss_and_the_next_run_writes_schema_5(
            self, capsys, tmp_path, fresh_file, suffix):
        key, sections = read_cache_file(fresh_file)
        sections["report"]["f2"]["direct"] = 178  # replayed, this would print
        # the schema-4 layout: the key line and the file name held the eigensolver tol
        path = tmp_path / "c" / fresh_file.name.replace(".json", suffix)
        path.parent.mkdir()
        write_cache_file(path, {**key, "schema": 4, "tol": 1e-12}, sections)
        old = path.read_bytes()
        code, out, err = run(capsys, "--cache", str(path.parent), "verify", "S4")
        assert (code, out, err) == run(capsys, "verify", "S4")
        assert err == ""
        new = path.parent / fresh_file.name
        assert new.read_bytes() == fresh_file.read_bytes()
        assert read_cache_file(new)[0] == {**key, "schema": 5}
        assert path == new or path.read_bytes() == old

    def test_a_cold_verify_stores_the_proved_member_lists(self, fresh_file):
        lattice = enumerate_subgroups(parse_group_spec("S4").group)
        [line] = [x for x in fresh_file.read_text().split("\n") if x.startswith("lattice\t")]
        assert json.loads(line.split("\t", 1)[1]) == [
            list(s.member_indices()) for s in lattice.subgroups]

    def test_a_wrong_key_line_is_a_miss(self, capsys, tmp_path, fresh_file):
        key, sections = read_cache_file(fresh_file)
        sections["report"]["f2"]["direct"] = 178
        key["elements"][1], key["elements"][2] = key["elements"][2], key["elements"][1]
        path = tmp_path / "c" / fresh_file.name
        path.parent.mkdir()
        write_cache_file(path, key, sections)
        assert run(capsys, "--cache", str(path.parent), "verify", "S4") == run(capsys, "verify", "S4")
        assert path.read_bytes() == fresh_file.read_bytes()


class TestUnwritableCache:
    """A cache path that is a regular file costs a warning, never the output."""

    @pytest.mark.parametrize("argv", [("info", "S3"), ("verify", "S3", "--json")])
    def test_output_and_status_are_those_of_a_cache_less_run(self, capsys, tmp_path, argv):
        path = tmp_path / "f"
        path.touch()
        code, out, err = run(capsys, "--cache", str(path), *argv)
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == 0
        assert err.startswith(f"warning: cannot write cache {path}")
        assert err.count("\n") == 1
        assert path.read_bytes() == b""


class TestStoreOnce:
    """A command writes its cache entry once, after it ran, and only if it computed a section."""

    @pytest.fixture
    def stores(self, monkeypatch):
        calls = []
        real = cli.cache_store

        def counting(*args, **kwargs):
            calls.append(sorted(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cache_store", counting)
        return calls

    def test_verify_stores_once_and_a_warm_verify_stores_nothing(self, capsys, tmp_path, stores):
        cache_dir = str(tmp_path / "c")
        first = run(capsys, "--cache", cache_dir, "verify", "S4")
        assert stores == [["graph", "lattice", "report", "spectra"]]
        assert run(capsys, "--cache", cache_dir, "verify", "S4") == first
        assert len(stores) == 1

    def test_a_cold_info_stores_once(self, capsys, tmp_path, stores):
        assert run(capsys, "--cache", str(tmp_path / "c"), "info", "S4")[0] == 0
        assert stores == [["graph", "lattice", "spectra"]]

    def test_a_cold_sd_stores_the_structure_that_verify_stores(self, capsys, tmp_path, stores):
        assert run(capsys, "--cache", str(tmp_path / "sd"), "sd", "S4")[0] == 0
        assert run(capsys, "--cache", str(tmp_path / "verify"), "verify", "S4")[0] == 0
        assert stores == [["graph", "lattice", "spectra"], ["graph", "lattice", "report", "spectra"]]
        [sd_file] = (tmp_path / "sd").glob("*.json")
        [verify_file] = (tmp_path / "verify").glob("*.json")
        assert sd_file.name == verify_file.name
        by_sd, by_verify = read_cache_file(sd_file), read_cache_file(verify_file)
        del by_verify[1]["report"]
        assert by_sd == by_verify


class TestHashOnce:
    """A group's element table is hashed once per run, however often the
    cache names it (file name, report signature, store)."""

    @pytest.mark.parametrize("argv", [("verify", "S4"), ("info", "S4")])
    def test_a_cached_command_hashes_the_table_once(self, capsys, tmp_path, monkeypatch, argv):
        hashes = []
        real = cache.sha256
        monkeypatch.setattr(cache, "sha256", lambda *a: hashes.append(a) or real(*a))
        cache_dir = str(tmp_path / "c")
        cold = run(capsys, "--cache", cache_dir, *argv)
        assert cold[0] == 0 and len(hashes) == 1
        assert run(capsys, "--cache", cache_dir, *argv) == cold
        assert len(hashes) == 2


class TestStructureOnDemand:
    """The structure section is built only when a command prints it or a cache stores it."""

    @pytest.fixture
    def structures(self, monkeypatch):
        calls = []
        real = cli.Pipeline.structure

        def counting(pipeline, part):
            calls.append((pipeline.spec.name, part))
            return real(pipeline, part)

        monkeypatch.setattr(cli.Pipeline, "structure", counting)
        return calls

    def test_a_cache_less_verify_never_builds_it(self, capsys, structures):
        assert run(capsys, "verify", "S4", "--json")[0] == 0
        assert structures == []

    def test_a_caching_verify_builds_it_once(self, capsys, tmp_path, structures):
        assert run(capsys, "--cache", str(tmp_path / "c"), "verify", "S4", "--json")[0] == 0
        assert structures == [("S4", "graph"), ("S4", "spectra")]

    def test_a_cache_less_info_never_builds_it(self, capsys, structures):
        assert run(capsys, "info", "S4")[0] == 0
        assert structures == []

    @pytest.mark.parametrize("argv", [("lattice", "S4"), ("lattice", "S4", "--json"),
                                      ("graph", "S4", "--dot", "-"),
                                      ("graph", "S4", "--matrix", "laplacian")])
    def test_a_cache_less_command_that_prints_no_part_never_builds_one(self, capsys,
                                                                     structures, argv):
        assert run(capsys, *argv)[0] == 0
        assert structures == []

    @pytest.mark.parametrize("argv, part", [(("graph", "S4", "--json"), "graph"),
                                            (("graph", "S4"), "graph"),
                                            (("spectrum", "S4"), "spectra")])
    def test_a_cache_less_command_builds_only_the_part_it_prints(self, capsys, structures,
                                                                argv, part):
        assert run(capsys, *argv)[0] == 0
        assert structures == [("S4", part)]


class TestSolverCallsPerCommand:
    """A cache-less command solves a spectrum only when it prints one."""

    @pytest.mark.parametrize("argv", [
        ("lattice", "S4", "--json"), ("lattice", "S4"), ("graph", "S4", "--json"),
        ("graph", "S4", "--dot", "-"), ("graph", "S4", "--matrix", "laplacian"),
    ])
    def test_lattice_and_graph_never_solve(self, capsys, eigen_solves, argv):
        assert run(capsys, *argv)[0] == 0
        assert eigen_solves == []

    def test_spectrum_solves_once(self, capsys, eigen_solves):
        assert run(capsys, "spectrum", "S4")[0] == 0
        assert len(eigen_solves) == 1


class TestParserOnce:
    # non-default options first, then the same command on its defaults: a
    # parser that kept state between calls would print differently
    COMMANDS = (
        ("spectrum", "S3", "--matrix", "adjacency", "--csv"),
        ("spectrum", "S3"),
        ("--json", "info", "Q8"),
        ("info", "Q8"),
        ("info", "Zork"),
    )

    def test_the_parser_is_built_once_and_parses_like_a_fresh_one(self, capsys, monkeypatch):
        fresh = []
        for argv in self.COMMANDS:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert fresh[0] != fresh[1] and fresh[2] != fresh[3]
        assert fresh[4][0] == 2
        builds = []
        real = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):
            builds.append(parser.prog)
            return real(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli._build_parser.cache_clear()
        assert [run(capsys, *argv) for argv in self.COMMANDS] == fresh
        assert builds == ["latspec"]

    def test_building_formats_no_help_text(self, monkeypatch):
        # the sub-commands' prog prefix is given, not derived from a formatted usage
        def refuse(formatter):
            raise AssertionError("help text was formatted")

        monkeypatch.setattr(argparse.HelpFormatter, "format_help", refuse)
        parser = cli._build_parser.__wrapped__()
        [commands] = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert len(commands) == 10
        assert all(sub.prog == f"latspec {name}" for name, sub in commands.items())


_SCALAR_VALUES = (st.none() | st.booleans() | st.integers()
                  | st.floats() | st.sampled_from([-0.0, 1e-300, 0.1, 1e16])
                  | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u2028é😀", "\ud800"]))
_JSON_VALUES = st.recursive(
    _SCALAR_VALUES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.lists(st.lists(st.integers(), min_size=1))),
    max_leaves=30)


class TestPrintJson:
    """`_print_json` prints exactly what json.dumps(indent=2, sort_keys=True) prints."""

    @staticmethod
    def printed(value) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._print_json(value)
        return out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert self.printed(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        {10: "a", 9: "b"}, {None: 1}, [float("nan"), float("-inf")], [[1, True]],
        [[1], []], {"x": [[0, 2**70]]}, [np.float64(0.5)], ([1, 2],),
    ])
    def test_matches_json_dumps_on_edge_cases(self, value):
        assert self.printed(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_plain_payloads_never_reach_json_dumps(self, monkeypatch):
        payload = {"edges": [[0, 1], [2, 3]], "values": [0.5, -0.0], "name": "S4",
                   "rows": [{"id": 1, "ok": True, "none": None}], "empty": [], "map": {}}
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps was called")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        assert self.printed(payload) == expected


class TestDeterminism:
    def test_verify_catalog_like_subset_is_byte_identical(self, capsys):
        # full-catalog determinism is covered by the acceptance suite; a
        # representative subset keeps this test quick
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "verify", "S4", "--json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


@pytest.fixture
def eigen_solves(monkeypatch):
    """Record every eigensolver call, at every latspec module that binds the
    solver: per call, the (dimension, matrix bytes) of each matrix it solves
    and the names of the functions on the call stack."""
    real = spectral.eigenvalues_symmetric
    calls = []

    def recording(*matrices):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(SolverCall([(m.dimension, m.data.tobytes()) for m in matrices], callers))
        return real(*matrices)

    sites = [mod for name, mod in list(sys.modules.items())
             if name.startswith("latspec") and vars(mod).get("eigenvalues_symmetric") is real]
    assert degrees in sites
    for mod in sites:
        monkeypatch.setattr(mod, "eigenvalues_symmetric", recording)
    return calls


class SolverCall(NamedTuple):
    solves: list[tuple[int, bytes]]
    callers: set[str]


def verify_blocks(name):
    """Per lattice whose blocks a cold `verify` solves (the top first, then each class below it whose lattice does not permute), the
    (dimension, bytes) of every block of its adjacency and Laplacian matrices."""
    top = enumerate_subgroups(parse_group_spec(name).group)
    lattices = [top] + [degrees._own(top, rep) for rep in sorted(set(top.class_reps()))
                        if rep != top.top_id]
    out = []
    for lattice in lattices:
        graph = degrees.top_graph(lattice)
        if graph.is_null():
            continue
        bases = degrees._symmetry_blocks(lattice, graph)
        out.append([(block.shape[0], block.tobytes())
                    for laplacian in (False, True)
                    for block in (degrees._block(graph._adj, laplacian, *basis)
                                  for *basis, _ in bases)])
    return out


class TestSolveOnce:
    def test_each_matrix_is_solved_once_per_verify(self, capsys, eigen_solves):
        code, out, _ = run(capsys, "verify", "S4", "--json")
        assert code == 0
        top_dim = json.loads(out)["groups"][0]["report"]["vertex_count"]
        # one call, made inside the Laplacian split, solves every block of
        # the top and its classes once
        [call] = eigen_solves
        assert "f2_split_laplacian" in call.callers
        assert len(call.solves) == len(set(call.solves))
        top, *classes = verify_blocks("S4")
        assert set(call.solves) == set().union(top, *classes)
        # the top graph's blocks: 12, 8 and one complex 3 x 3 block for the
        # two characters of order 4 under the 4-cycle, per matrix
        assert top_dim == 12 + 8 + 2 * 3
        assert sorted(dim for dim, _ in top) == [3, 3, 8, 8, 12, 12]
        # A4, D8 and S3 are the classes whose lattices do not permute
        assert len(classes) == 3

    def test_psl27_verify_makes_one_solver_call(self, capsys, eigen_solves, monkeypatch):
        entries = []
        real_multisection = spectral._multisection

        def multisection(batch):
            entries.append(batch)
            return real_multisection(batch)

        monkeypatch.setattr(spectral, "_multisection", multisection)
        code, out, _ = run(capsys, "verify", "PSL(2,7)", "--json")
        assert code == 0
        report = json.loads(out)["groups"][0]["report"]
        [call] = eigen_solves
        # made from inside the Laplacian split; the adjacency split and the
        # structure read its spectra from the memo
        assert "f2_split_laplacian" in call.callers
        assert "f2_split_adjacency" not in call.callers
        # the top graph's blocks, adjacency then Laplacian: one of 27 and one
        # for the six of 25 under the element of order 7
        top, *classes = verify_blocks("PSL(2,7)")
        assert [dim for dim, _ in top] == [27, 25] * 2
        assert 27 + 6 * 25 == report["vertex_count"]
        # every block of the top and of the 7 classes below it whose own
        # lattices do not permute is passed, each once: D8 gives 2, 2; each
        # A4 class 3 and a complex 2; each S4 class 12, 8 and a complex 3;
        # S3 and 7:3 give 1 x 1 blocks only
        assert sorted(call.solves) == sorted(block for blocks in (top, *classes)
                                             for block in blocks)
        dims = sorted(dim for dim, _ in call.solves)
        assert [dim for dim in dims if dim > 1] == (
            [2] * 8 + [3] * 8 + [8] * 4 + [12] * 4 + [25] * 2 + [27] * 2)
        assert dims.count(1) == 8
        # one multisection, one entry per distinct reduction: the two A4
        # classes give the same 3 and complex 2, the two S4 classes the same
        # complex 3, so those share an entry
        [batch] = entries
        assert sorted(t.d.size for t in batch) == (
            [2] * 6 + [3] * 4 + [8] * 4 + [12] * 4 + [25] * 2 + [27] * 2)
        assert len({t.key for t in batch}) == len(batch)

    def test_each_pair_is_tested_once_per_lattice(self, capsys, monkeypatch):
        built = []
        tested = {}
        real_init = SubgroupLattice.__init__
        real_test = SubgroupLattice.products_commute

        def recording_init(self, *args):
            real_init(self, *args)
            built.append(self)

        def recording_test(self, a, b):
            tested.setdefault(id(self), []).append((a, b))
            return real_test(self, a, b)

        monkeypatch.setattr(SubgroupLattice, "__init__", recording_init)
        monkeypatch.setattr(SubgroupLattice, "products_commute", recording_test)
        assert run(capsys, "verify", "S4")[0] == 0
        assert len(built) == 11  # S4 and one lattice per other conjugacy class
        top, *classes = built
        assert top.group.order == 24
        # only the rows of the top's class representatives reach the pair
        # test, and each unordered pair with a representative in it does so once
        reps = top.class_reps()
        pairs = tested[id(top)]
        r = len(set(reps))
        assert all(reps[a] == a for a, _ in pairs)
        assert len({frozenset(pair) for pair in pairs}) == len(pairs) == (
            r * (top.size - 1) - r * (r - 1) // 2) == 264
        # the class lattices read the top's matrix restricted, testing no pair
        assert set(tested) == {id(top)}

    def test_structure_from_cache_then_verify_matches_cold_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert run(capsys, "--cache", cache_dir, "lattice", "S4")[0] == 0
        code, warm, _ = run(capsys, "--cache", cache_dir, "verify", "S4", "--json")
        assert code == 0
        code, cold, _ = run(capsys, "verify", "S4", "--json")
        assert code == 0
        assert warm == cold


def child_modules(*commands):
    """The names in sys.modules after running each command's `main(argv)` in
    one fresh interpreter, asserting that each exits 0."""
    script = ("import contextlib, io, json, sys\n"
              "from latspec.cli import main\n"
              f"for argv in {[list(argv) for argv in commands]!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    assert code == 0, (argv, code)\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "LATSPEC_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.fixture
def work(monkeypatch):
    """Counts of FiniteGroup closures and pair tests, reset by the test."""
    counts = {"closures": 0, "pairs": 0}
    real_init = FiniteGroup.__init__
    real_test = SubgroupLattice.products_commute

    def counting_init(self, *args):
        counts["closures"] += 1
        real_init(self, *args)

    def counting_test(self, a, b):
        counts["pairs"] += 1
        return real_test(self, a, b)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(SubgroupLattice, "products_commute", counting_test)
    return counts


WARM_COMMANDS = (
    ("verify", "--json"), ("lattice", "--json"), ("graph", "--json"), ("spectrum",),
    ("mobius",), ("info",), ("sd", "--method", "direct"), ("f2", "--method", "direct"),
    ("hughes", "-p", "2"),
)
# Per group, per command, (closures, pair tests) as measured when every class
# group was closed from permutations and every class lattice filled its own
# matrix; no command may do more. The warm commands read a cache filled by
# `verify`; the last two run without a cache.
COUNTS_BEFORE = {
    "S4": {"lattice": (1, 140), "info": (1, 30), "sd": (1, 264),
           "f2 --method mobius": (8, 369), "sd --method f2": (11, 0)},
    "A5": {"lattice": (1, 139), "info": (1, 61), "sd": (1, 486),
           "f2 --method mobius": (7, 559), "sd --method f2": (9, 0)},
    "PSL(2,7)": {"lattice": (1, 406), "info": (1, 179), "sd": (1, 2565),
                 "f2 --method mobius": (8, 3183), "sd --method f2": (15, 0)},
}


class TestWorkCounts:
    @pytest.mark.parametrize("name, pairs", [("S4", 264), ("A5", 486), ("PSL(2,7)", 2565)])
    def test_verify_closes_one_group_and_tests_only_the_top_pairs(
            self, capsys, work, eigen_solves, name, pairs):
        assert run(capsys, "verify", name, "--json")[0] == 0
        assert work == {"closures": 1, "pairs": pairs}
        assert len(eigen_solves) == 1
        # the Möbius route fills the top's matrix and sums it over down-sets
        work.update(closures=0, pairs=0)
        assert run(capsys, "f2", name, "--method", "mobius")[0] == 0
        assert work == {"closures": 1, "pairs": pairs}
        assert len(eigen_solves) == 1

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
    def test_no_command_does_more_work_than_before(self, capsys, tmp_path, work, name):
        before = COUNTS_BEFORE[name]
        cache_dir = str(tmp_path / "c")
        assert run(capsys, "--cache", cache_dir, "verify", name)[0] == 0
        for command, *rest in WARM_COMMANDS:
            work.update(closures=0, pairs=0)
            assert run(capsys, "--cache", cache_dir, command, name, *rest)[0] == 0
            closures, pairs = before.get(command, (1, 0))
            assert work["closures"] <= closures and work["pairs"] <= pairs, (command, work)
        for command, method in (("f2", "mobius"), ("sd", "f2")):
            work.update(closures=0, pairs=0)
            assert run(capsys, command, name, "--method", method)[0] == 0
            closures, pairs = before[f"{command} --method {method}"]
            assert work["closures"] <= closures and work["pairs"] <= pairs, (command, work)
            assert work["closures"] == 1

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
    def test_only_the_split_computes_a_conjugation_map(self, capsys, monkeypatch, tmp_path, name):
        # the class walk reads the maps the enumeration handed over
        callers = []
        real = SubgroupLattice.conjugation_map

        def recording(self, g):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(self, g)

        monkeypatch.setattr(SubgroupLattice, "conjugation_map", recording)
        cache_dir = str(tmp_path / "c")
        assert run(capsys, "--cache", cache_dir, "verify", name, "--json")[0] == 0
        assert callers and set(callers) == {"_vertex_action"}
        callers.clear()
        assert run(capsys, "--cache", cache_dir, "info", name)[0] == 0
        assert callers == []

    @pytest.mark.parametrize("name, classes", [("S4", 11), ("A5", 9), ("PSL(2,7)", 15)])
    def test_verify_walks_each_group_s_powers_and_builds_each_map_once(
            self, capsys, monkeypatch, tmp_path, name, classes):
        # the top group and one group cut per class below it; every reader of
        # orders, cyclic subgroups and conjugation maps reads the group's own
        walks, maps = [], {}
        real_walk, real_map = FiniteGroup._walk_powers, FiniteGroup.conjugator

        def walking(self):
            walks.append(self)
            real_walk(self)

        def mapping(self, s):
            images = real_map(self, s)
            maps.setdefault((self, s), set()).add(id(images))
            return images

        monkeypatch.setattr(FiniteGroup, "_walk_powers", walking)
        monkeypatch.setattr(FiniteGroup, "conjugator", mapping)
        assert run(capsys, "--cache", str(tmp_path / "c"), "verify", name, "--json")[0] == 0
        assert len(walks) == len(set(map(id, walks))) == classes
        assert {group for group, _ in maps} <= set(walks)
        assert all(len(built) == 1 for built in maps.values())
        for group in walks:
            assert {s for g, s in maps if g is group} >= set(group.generator_indices)

    def test_verify_checks_each_spectrum_pair_once(self, capsys, monkeypatch):
        # PSL(2,7) has 15 classes: the split checks each class's pair once,
        # and the report checks the top's, two spectral sums per check
        sums, checks = [], []
        real_sums, real_checks = spectral.spectral_sums, degrees.verify_trace_identities

        def summing(spectrum):
            sums.append(spectrum.dimension)
            return real_sums(spectrum)

        def checking(*args):
            checks.append(args[0])
            return real_checks(*args)

        monkeypatch.setattr(spectral, "spectral_sums", summing)
        monkeypatch.setattr(degrees, "verify_trace_identities", checking)
        assert run(capsys, "verify", "PSL(2,7)")[0] == 0
        assert (len(checks), len(sums)) == (16, 32)

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
    def test_sd_via_f2_reads_no_mobius_value(self, capsys, monkeypatch, name):
        # the subgroup F2 sum weighs each class by its size alone
        calls = []
        real = SubgroupLattice.mobius

        def counting(self, lower, upper):
            calls.append((lower, upper))
            return real(self, lower, upper)

        monkeypatch.setattr(SubgroupLattice, "mobius", counting)
        code, out, _ = run(capsys, "sd", name, "--method", "f2", "--json")
        assert code == 0
        assert json.loads(out) == {"via_f2": {"S4": "17/30", "A5": "861/3481",
                                              "PSL(2,7)": "6085/32041"}[name]}
        assert calls == []

    @pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
    def test_f2_by_mobius_builds_no_class_lattice(self, capsys, monkeypatch, name):
        built = []
        real = degrees.enumerate_subgroups

        def counting(group):
            built.append(group.order)
            return real(group)

        monkeypatch.setattr(degrees, "enumerate_subgroups", counting)
        code, out, _ = run(capsys, "f2", name, "--method", "mobius", "--json")
        assert code == 0
        assert json.loads(out)["mobius"] == {"S4": 177, "A5": 237, "PSL(2,7)": 1141}[name]
        assert built == []
        # sd by the subgroup F2 sum still builds one per class below the top
        assert run(capsys, "sd", name, "--method", "f2")[0] == 0
        assert built


class TestBlockBudget:
    """A solver call whose blocks pass a budget exits 2, naming the bound,
    before it forms any block."""

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_a_lowered_bound_exits_2(self, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("a block was formed")

        monkeypatch.setattr(degrees, "BLOCK_WORK_LIMIT", 10)
        monkeypatch.setattr(degrees, "_block", refuse)
        code, out, err = run(capsys, command, "S4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "BLOCK_WORK_LIMIT = 10" in err


class TestPairBudget:
    """A lattice with more than PAIR_LIMIT ordered pairs exits 2, naming the
    bound, before its permutability matrix is allocated; a command that never
    fills the matrix still runs. S4 has 30 subgroups, so 900 pairs, in 11
    classes, so 330 representative row pairs.

    A pass over the representatives' rows with more than PAIR_LIMIT pairs
    exits 2 the same way before its first pair test, and so does a Möbius
    fill; a command that reads no class still runs. E8 has 16 subgroups,
    each a class of its own, so 256 row pairs."""

    @pytest.mark.parametrize("cache", [False, True], ids=["no_cache", "cache"])
    @pytest.mark.parametrize("argv", ["verify S4", "sd S4", "graph S4 --json"])
    def test_filling_the_matrix_past_the_bound_exits_2(self, capsys, monkeypatch, tmp_path,
                                                       argv, cache):
        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 899)
        prefix = ["--cache", str(tmp_path / "c")] if cache else []
        code, out, err = run(capsys, *prefix, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "PAIR_LIMIT = 899" in err

    @pytest.mark.parametrize("argv", ["info S4", "lattice S4 --json", "mobius S4",
                                      "hughes S4 -p 2", "f2 S4 --method direct"])
    def test_commands_that_never_fill_the_matrix_run(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 899)
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("argv", ["info S4", "lattice S4 --json", "mobius S4",
                                      "hughes S4 -p 2", "f2 S4 --method direct"])
    def test_a_cached_run_stores_what_fits_and_keeps_its_exit_status(
            self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 899)
        cache_dir = tmp_path / "c"
        expected = run(capsys, *argv.split())
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, "--cache", str(cache_dir), *argv.split()) == expected
        [path] = cache_dir.glob("*.json")
        assert sorted(read_cache_file(path)[1]) == ["lattice"]
        assert run(capsys, "--cache", str(cache_dir), *argv.split()) == expected

    @pytest.mark.parametrize("argv", ["info E8", "lattice E8 --json", "f2 E8 --method direct",
                                      "sd E8 --method f2", "mobius E8"])
    def test_a_row_pass_past_the_bound_exits_2(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a pair was tested")

        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 255)
        monkeypatch.setattr(SubgroupLattice, "products_commute", refuse)
        monkeypatch.setattr(SubgroupLattice, "product_bits", refuse)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "PAIR_LIMIT = 255" in err

    @pytest.mark.parametrize("argv", ["hughes E8 -p 2"])
    def test_commands_that_read_no_class_run(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 255)
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and out and err == ""

    def test_a_cached_run_past_the_block_budget_stores_the_graph(self, capsys, monkeypatch,
                                                                 tmp_path):
        monkeypatch.setattr(degrees, "BLOCK_WORK_LIMIT", 1)
        cache_dir = tmp_path / "c"
        expected = run(capsys, "info", "S4")
        assert run(capsys, "--cache", str(cache_dir), "info", "S4") == expected
        [path] = cache_dir.glob("*.json")
        assert sorted(read_cache_file(path)[1]) == ["graph", "lattice"]
        assert run(capsys, "--cache", str(cache_dir), "info", "S4") == expected
        code, out, err = run(capsys, "--cache", str(cache_dir), "spectrum", "S4")
        assert (code, out) == (2, "") and "BLOCK_WORK_LIMIT = 1" in err

    def test_the_bound_itself_fits(self, capsys, monkeypatch):
        monkeypatch.setattr(lattice_module, "PAIR_LIMIT", 900)
        code, out, _ = run(capsys, "verify", "S4")
        assert code == 0 and " ok" in out


class TestImports:
    def test_verify_never_imports_hashlib(self, tmp_path):
        # hashlib's import loads OpenSSL's libcrypto (about 3.5 MiB of peak
        # RSS); the table digest comes from CPython's built-in module
        modules = child_modules(["verify", "PSL(2,7)", "--json"],
                                ["--cache", str(tmp_path / "c"), "verify", "S4"],
                                ["--cache", str(tmp_path / "c"), "verify", "S4"])
        assert "_hashlib" not in modules
        assert len(list((tmp_path / "c").iterdir())) == 1

    def test_no_command_imports_fractions_or_decimal(self):
        # sd is an integer count over |L|^2 and the census tests integrality
        # by remainder; fractions (with decimal) costs about 0.3 MiB and 3 ms
        modules = child_modules(["verify", "S4"], ["sd", "S4"], ["census", "-q", "4"])
        assert not {"fractions", "decimal"} & modules

    def test_verify_never_imports_numpy_ma(self):
        # numpy.ma adds about 1.5 MiB of peak RSS; np.unique imports it on first use
        assert "numpy.ma" not in child_modules(["verify", "PSL(2,7)", "--json"])


def refuse_dense_matrices(monkeypatch):
    """Make `adjacency_matrix` and `laplacian_matrix` raise, at every latspec binding."""
    originals = (adjacency_matrix, laplacian_matrix)

    def refuse(graph):
        raise AssertionError("a dense graph matrix was formed")

    for module in [m for name, m in sys.modules.items() if name.startswith("latspec")]:
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, refuse)


class TestNoDenseMatrix:
    """The solve path reads each symmetry block off the graph's boolean rows;
    only `graph --matrix` forms a dense matrix."""

    @pytest.mark.parametrize("argv", ["spectrum S4", "f2 A5 --method laplacian",
                                      "sd S4 --method all"])
    def test_solving_commands_print_the_pinned_bytes(self, capsys, monkeypatch, argv):
        refuse_dense_matrices(monkeypatch)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == PINNED[argv]

    def test_verify_prints_what_it_prints_with_dense_matrices(self, capsys, monkeypatch):
        code, plain, _ = run(capsys, "verify", "PSL(2,7)", "--json")
        assert code == 0
        refuse_dense_matrices(monkeypatch)
        code, out, _ = run(capsys, "verify", "PSL(2,7)", "--json")
        assert code == 0
        assert out == plain
        [got] = json.loads(out)["groups"]
        [want] = json.loads((GOLDEN / "verify_psl27.json").read_text())["groups"]
        assert_matches(want, got, FTOL["PSL(2,7)"], "PSL(2,7)")

    def test_graph_matrix_still_prints_the_dense_laplacian(self, capsys):
        argv = "graph S4 --matrix laplacian --json"
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == PINNED[argv]


class TestProjectiveModels:
    """`recognize_projective` builds only the models of the group's own order."""

    @pytest.mark.parametrize("argv, closures", [
        # the group itself, then: no model of order 5; PGL(2,3), whose
        # PSL(2,3) is read off the group's own lattice; PSL(2,7)
        ("f2 C5 --method closed-form", 1),
        ("f2 S4 --method all", 2),
        ("f2 PSL(2,7) --method closed-form", 2),
    ])
    def test_closures(self, capsys, monkeypatch, work, argv, closures):
        monkeypatch.setattr(catalog, "_RECOGNITION", {})
        assert run(capsys, *argv.split())[0] == 0
        assert work["closures"] == closures

    def test_pgl_closed_form_enumerates_only_the_group(self, capsys, monkeypatch):
        import latspec.lattice

        monkeypatch.setattr(catalog, "_RECOGNITION", {})
        orders = []
        real = latspec.lattice._close_by_cyclic_extension

        def recording(group):
            orders.append(group.order)
            return real(group)

        monkeypatch.setattr(latspec.lattice, "_close_by_cyclic_extension", recording)
        code, out, _ = run(capsys, "f2", "S5", "--method", "closed-form")
        assert (code, out) == (0, PINNED["f2 S5 --method closed-form"])
        assert orders == [120]

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("S5", "PSL(2,7)"))
    def test_closed_form_prints_the_pinned_bytes(self, capsys, monkeypatch, name):
        monkeypatch.setattr(catalog, "_RECOGNITION", {})
        argv = ["f2", name, "--method", "closed-form"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == PINNED[" ".join(argv)]

    def test_order_60_is_named_by_q_5(self, monkeypatch):
        monkeypatch.setattr(catalog, "_RECOGNITION", {})
        assert catalog.recognize_projective(catalog.psl2(4)) == ("psl", 5)
        assert list(catalog._RECOGNITION) == [60]
