"""Golden outputs: every exact field of two `verify --json` runs.

`tests/golden/verify_catalog.json` and `tests/golden/verify_psl27.json` are
the stdout of `latspec verify --catalog --json` and
`latspec verify "PSL(2,7)" --json`, recorded before the eigensolver was
replaced. `tests/golden/ftol.json` holds, per group, twice the stop bound
tol*(1 + ||L||_F) of its non-permutability Laplacian at the default tol.

Sizes, edges, sd and F2 of every route, check names, verdicts and
`internal_ok` must match exactly, and so must every byte of the layout.
Floating fields (trace sums, residuals, tolerances) may move by the group's
ftol plus one unit in the 12th significant digit, the rule the benchmark's
output check applies.
"""

import json
import re
from pathlib import Path

import pytest

from latspec.cli import main

GOLDEN = Path(__file__).with_name("golden")
FTOL = json.loads((GOLDEN / "ftol.json").read_text())
ROUNDING = 1e-11  # two 12-digit roundings of nearby values
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def layout(text):
    """The text with every floating literal blanked out."""
    return _NUMBER.sub(lambda m: "F" if any(c in m.group() for c in ".e") else m.group(), text)


def assert_matches(ref, out, ftol, path):
    assert type(out) is type(ref), f"{path}: {out!r} is not a {type(ref).__name__}"
    if isinstance(ref, float):
        bound = ftol + ROUNDING * max(abs(ref), abs(out))
        assert abs(out - ref) <= bound, f"{path}: {out!r} differs from {ref!r} by more than {bound:.3g}"
    elif isinstance(ref, dict):
        assert list(out) == list(ref), f"{path}: keys differ"
        for key in ref:
            assert_matches(ref[key], out[key], ftol, f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(out) == len(ref), f"{path}: length differs"
        for i, (r, o) in enumerate(zip(ref, out)):
            assert_matches(r, o, ftol, f"{path}[{i}]")
    else:
        assert out == ref, f"{path}: {out!r} differs from {ref!r}"


@pytest.mark.parametrize("argv,fixture", [
    (["verify", "--catalog", "--json"], "verify_catalog.json"),
    (["verify", "PSL(2,7)", "--json"], "verify_psl27.json"),
])
def test_verify_json_matches_golden(capsys, argv, fixture):
    assert main(argv) == 0
    out = capsys.readouterr().out
    ref = (GOLDEN / fixture).read_text()
    assert layout(out) == layout(ref)
    groups, ref_groups = json.loads(out)["groups"], json.loads(ref)["groups"]
    assert [g["name"] for g in groups] == [g["name"] for g in ref_groups]
    for got, want in zip(groups, ref_groups):
        assert_matches(want, got, FTOL[want["name"]], want["name"])


def test_comparison_catches_a_changed_exact_field():
    ref = json.loads((GOLDEN / "verify_psl27.json").read_text())["groups"][0]
    changed = json.loads(json.dumps(ref))
    changed["report"]["f2"]["mobius"] += 1
    with pytest.raises(AssertionError):
        assert_matches(ref, changed, FTOL["PSL(2,7)"], "PSL(2,7)")
    moved = json.loads(json.dumps(ref))
    moved["report"]["trace_checks"][1]["lhs"] = 1e-6
    with pytest.raises(AssertionError):
        assert_matches(ref, moved, FTOL["PSL(2,7)"], "PSL(2,7)")
