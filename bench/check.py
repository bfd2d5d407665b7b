"""Output check for benchmark ops: compare with the recorded reference, then assert known values.

Exact content (lattice sizes, member sets, core, edges and degrees, Möbius
values, sd and F2 of every route, check names and verdicts, `internal_ok`)
must match the reference character for character. Floating fields (spectra,
trace sums, residuals) are the only tokens compared by value: they may differ
by twice the Jacobi solver's stop bound tol*(1 + ||M||_F), recorded per op as
`ftol`, plus one unit in the 12th significant digit. Integers are compared as
strings, so an integer can never pass by tolerance.
"""

from __future__ import annotations

import gzip
import json
import re
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json.gz")

_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")
# Floats are printed rounded to 12 significant digits; two roundings of
# nearby values can differ by one unit in the 12th digit.
ROUNDING = 1e-11

# Independently known values: subgroup counts, sd(A4), and F2, which matches
# the published PSL(2,q) table for q = 5 and 7.
KNOWN_LATTICE_SIZE = {"S4": 30, "A5": 59, "PSL(2,7)": 179}
KNOWN_F2 = {"A4": 27, "S4": 177, "A5": 237, "PSL(2,5)": 237, "PSL(2,7)": 1141}
KNOWN_SD = {"A4": Fraction(16, 25)}


def load_reference(path: Path = REFERENCE) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def compare_text(ref: str, out: str, ftol: float) -> str | None:
    """None when `out` matches `ref`; otherwise a short description of the first difference."""
    a, b = _NUMBER.split(ref), _NUMBER.split(out)
    if len(a) != len(b):
        return f"token count {len(b)} differs from reference {len(a)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0:
            return f"text {y[:40]!r} differs from reference {x[:40]!r}"
        is_float = any(ch in x + y for ch in ".e")
        if not is_float:
            return f"integer {y} differs from reference {x}"
        bound = ftol + ROUNDING * max(abs(float(x)), abs(float(y)))
        if abs(float(x) - float(y)) > bound:
            return f"value {y} differs from reference {x} by more than {bound:.3g}"
    return None


def _known_value_errors(key: str, out: str) -> list[str]:
    """Literal assertions on verify --json and f2 --method direct outputs."""
    words = key.split()
    cmd = [w for w in words if not w.startswith("-")]
    errors = []
    if cmd[:1] == ["verify"] and "--json" in words:
        for entry in json.loads(out)["groups"]:
            name, report = entry["name"], entry["report"]
            if name in KNOWN_LATTICE_SIZE and report["lattice_size"] != KNOWN_LATTICE_SIZE[name]:
                errors.append(f"|L({name})| = {report['lattice_size']}, "
                              f"known {KNOWN_LATTICE_SIZE[name]}")
            if name in KNOWN_F2:
                wrong = {k: v for k, v in report["f2"].items()
                         if v is not None and v != KNOWN_F2[name]}
                if wrong:
                    errors.append(f"F2({name}) routes {wrong}, known {KNOWN_F2[name]}")
            if name in KNOWN_SD:
                wrong = {k: v for k, v in report["sd"].items()
                         if Fraction(v) != KNOWN_SD[name]}
                if wrong:
                    errors.append(f"sd({name}) routes {wrong}, known {KNOWN_SD[name]}")
            if report["internal_ok"] is not True:
                errors.append(f"verify {name}: internal_ok is not true")
    elif cmd[:1] == ["f2"] and len(cmd) > 1 and cmd[1] in KNOWN_F2:
        expected = f"f2[direct] = {KNOWN_F2[cmd[1]]}\n"
        if out != expected:
            errors.append(f"f2 {cmd[1]} printed {out!r}, known {expected!r}")
    return errors


def op_key(argv: list[str]) -> str:
    """Reference key of an op: its argv without the cache flag and directory."""
    rest = list(argv)
    if "--cache" in rest:
        i = rest.index("--cache")
        del rest[i:i + 2]
    return " ".join(rest)


def check_op(reference: dict, argv: list[str], rc: int, error: str | None, out: str) -> str | None:
    """None when the op succeeded with the reference output; else why it failed."""
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit code {rc}"
    key = op_key(argv)
    entry = reference.get(key)
    if entry is None:
        return "no reference output for this op"
    diff = compare_text(entry["out"], out, entry["ftol"])
    if diff is not None:
        return diff
    try:
        errors = _known_value_errors(key, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return "; ".join(errors) or None
