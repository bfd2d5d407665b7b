"""Self-tests of the benchmark harness (not of latspec).

    python3 -m pytest -q bench/selftest.py

They run real passes, about two minutes in all: the traced-count test runs
every workload twice.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import tracer

COUNT_UNITS = ("count", "B")


def _reference_op(workload: str, key: str) -> str:
    return check.load_reference()[workload][key]["out"]


def test_checker_counts_a_corrupted_output_as_failed():
    reference = check.load_reference()["catalog_cold"]
    argv = ["--cache", "{cache}", "verify", "S4", "--json"]
    good = _reference_op("catalog_cold", "verify S4 --json")
    assert check.check_op(reference, argv, 0, None, good) is None

    one_digit = good.replace('"direct": 177', '"direct": 178', 1)
    assert one_digit != good
    result = {"ops_argv": [argv], "ops": [{"rc": 0, "error": None, "out": one_digit,
                                           "cache_changed": False}]}
    failures: list[str] = []
    assert run.check_pass(reference, result, failures) == 1
    assert "177" in failures[0]

    assert check.check_op(reference, argv, 1, None, good) == "exit code 1"
    assert check.check_op(reference, argv, 0, "ValueError: x", good).startswith("raised")


def test_floats_compare_by_the_solver_bound_and_integers_exactly():
    ftol = 1e-9
    assert check.compare_text('"lhs": 2.5e-14', '"lhs": -3.1e-13', ftol) is None
    assert check.compare_text('"lhs": 4.0', '"lhs": 3.99999999999', ftol) is None
    assert check.compare_text('"lhs": 4.0', '"lhs": 4.001', ftol) is not None
    assert check.compare_text('"size": 30', '"size": 31', ftol) is not None
    assert check.compare_text('"size": 30', '"size": 30.0', ftol) is None  # same value
    assert check.compare_text('"a": 1', '"b": 1', ftol) is not None


def test_known_values_are_asserted_independently_of_the_reference():
    good = _reference_op("warm_cache", "f2 PSL(2,7) --method direct")
    assert good == "f2[direct] = 1141\n"
    wrong = good.replace("1141", "1142")
    argv = ["--cache", "{cache}", "f2", "PSL(2,7)", "--method", "direct"]
    fake_reference = {"f2 PSL(2,7) --method direct": {"out": wrong, "ftol": 0.0}}
    why = check.check_op(fake_reference, argv, 0, None, wrong)
    assert why is not None and "1141" in why

    a4 = _reference_op("catalog_cold", "verify A4 --json").replace('"16/25"', '"17/25"')
    fake_reference = {"verify A4 --json": {"out": a4, "ftol": 0.0}}
    why = check.check_op(fake_reference, ["verify", "A4", "--json"], 0, None, a4)
    assert why is not None and "sd(A4)" in why


def test_every_wrapped_function_resolves_and_every_binding_site_is_patched():
    sys.path.insert(0, str(run.SRC))
    try:
        cli = importlib.import_module("latspec.cli")
        degrees = importlib.import_module("latspec.degrees")
        originals = (cli.enumerate_subgroups, degrees.build_graph, degrees.eigenvalues_symmetric)
        t = tracer.Tracer()
        t.install()
        try:
            assert t.missing == []
            assert all(n >= 1 for n in t.sites.values()), t.sites
            # bound by `from ... import ...` in cli and degrees
            assert t.sites["latspec.lattice.enumerate_subgroups"] >= 3
            patched = (cli.enumerate_subgroups, degrees.build_graph, degrees.eigenvalues_symmetric)
            assert all(p is not o for p, o in zip(patched, originals))
        finally:
            t.uninstall()
        restored = (cli.enumerate_subgroups, degrees.build_graph, degrees.eigenvalues_symmetric)
        assert all(p is o for p, o in zip(restored, originals))
    finally:
        sys.path.remove(str(run.SRC))


def test_warm_cache_ops_leave_the_cache_unchanged():
    line, record = run.run("warm_cache", seed=3, seconds=1, trace=False)
    assert line["correct"] and line["failed"] == 0, record["failures"] + record["problems"]
    assert line["attempted"] >= len(run.WORKLOADS["warm_cache"]["ops"])


def test_traced_counts_repeat_and_predicted_spans_fire():
    # Same seed, same op order: on catalog_cold the cache byte counts depend on
    # the order, because A5 and PSL(2,4) share one cache entry whose stored
    # generators are those of whichever group came first.
    for workload in run.WORKLOADS:
        records = [run.run(workload, seed=7, seconds=1, trace=True) for _ in range(2)]
        for line, record in records:
            assert line["correct"], (workload, record["failures"] + record["problems"])
        counts = [{k: v["value"] for k, v in line["metrics"].items() if v["unit"] in COUNT_UNITS}
                  for line, _ in records]
        assert counts[0] == counts[1], workload


def test_fails_without_the_program_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in command]
                              + ["--workload", "psl27_cold", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
