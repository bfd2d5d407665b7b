"""Command-line surface: analysis commands, output rendering, and the lattice cache.

Every output is deterministic across runs: canonical orderings everywhere,
spectra rendered at 12 significant digits, JSON dumped with sorted keys.

A command asks its `Pipeline` only for what it prints and never mentions the
cache; `Pipeline.save`, run after the command, alone decides what the cache
holds.

Exit codes: 2 for input errors, 1 when `verify` finds an internal identity
failure (published-value discrepancy notes are informational only), 0
otherwise.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import suppress
from json.encoder import encode_basestring_ascii

from . import __version__
from .cache import cache_lookup, cache_store, decode_section, signature_of
from .catalog import (CATALOG_NAMES, PSL_SUPPORTED, GroupSpec, parse_group_spec, psl2,
                      recognize_projective)
from .closed_forms import census_comparison, dickson_census, f2_pgl_closed, f2_psl_closed
from .degrees import (
    f2_direct,
    f2_mobius,
    f2_split_adjacency,
    f2_split_laplacian,
    graph_spectra,
    sd_direct,
    sd_spectral,
    sd_text,
    sd_via_f2,
    top_graph,
    verify_identities,
)
from .errors import DomainError, InputError, LatspecError, SizeError
from .graph import adjacency_matrix, dot_export, laplacian_matrix, vertex_label
from .lattice import SubgroupLattice, enumerate_subgroups, hughes_subgroup

NOT_APPLICABLE = "not applicable (the split formula requires sd(G) != 1)"


def _fixed(value: float) -> float:
    return float(f"{value:.12g}")


# The keys of each cached part and the types its readers index: a shape is a
# type, a dict of required keys, or a one-item list giving every item's shape.
_CHECK = {"name": object, "passed": bool, "lhs": object, "rhs": object}
_PART_SHAPES = {
    "lattice": [[int]],
    "graph": {"vertices": list, "edge_count": int, "edges": [list], "degrees": list},
    "spectra": {"adjacency": [float], "laplacian": [float]},
    "report": {"signature": dict, "group_order": int, "lattice_size": int,
               "vertex_count": int, "edge_count": int, "quasihamiltonian": bool,
               "sd": {"direct": str}, "f2": {"direct": object}, "checks": [_CHECK],
               "trace_checks": [_CHECK], "notes": [str], "internal_ok": bool},
}


def _fits(value, shape) -> bool:
    """Whether a decoded JSON value has `shape`. A plain type must be the
    value's exact type, so true is no int and 1 no float; `object` takes any."""
    if isinstance(shape, dict):
        return type(value) is dict and all(k in value and _fits(value[k], s)
                                           for k, s in shape.items())
    if isinstance(shape, list):
        if type(value) is not list:
            return False
        if isinstance(shape[0], type):  # a plain item type costs no call per item
            return set(map(type, value)) <= {shape[0]}
        return all(map(_fits, value, itertools.repeat(shape[0])))
    return shape is object or type(value) is shape


class Pipeline:
    """One group's cached parts, computed on request.

    A cache file holds up to four parts, each its own section: the lattice's
    member lists ("lattice"), the graph ("graph"), the spectra ("spectra")
    and the identity-verifier output ("report"). `lattice()` proves the
    member lists with `SubgroupLattice.from_member_lists`, which accepts only
    the enumerated lattice's `member_lists()`, or enumerates the lattice.
    `structure(part)` gives the graph or the spectra and `report()` the
    report; each builds only what was asked for, or replays it.

    `_unread` holds the loaded lines that no part has read yet. `_replay`
    pops a part's line on its first read, after the lattice line (every part
    derives from the lattice), decodes it and checks it against
    `_PART_SHAPES`. A lattice line of the wrong shape or a family the proof
    rejects rejects the whole entry (`_reject`); any other malformed part,
    one that does not decode included, is warned of and recomputed alone.

    `save()` alone decides what the cache holds: if this run computed
    anything, an enumerated lattice included, it stores the lattice's
    `member_lists()`, completes the graph and spectra as far as the size
    budgets allow, checks a loaded report it has not read, and writes the
    file once, atomically. A budget that stops a part only leaves that part out, and a
    cache that cannot be written costs a warning; neither changes the
    command's exit status.
    """

    def __init__(self, spec: GroupSpec, cache_dir: str | None) -> None:
        self.spec = spec
        self.group = spec.group
        self.cache_dir = cache_dir
        self._unread = (cache_lookup(cache_dir, self.group) if cache_dir else None) or {}
        self._parts: dict = {}  # parts replayed or computed by this run; save() writes them
        self._lattice: SubgroupLattice | None = None
        self._computed = False

    def lattice(self) -> SubgroupLattice:
        if self._lattice is None:
            member_lists = self._replay("lattice")
            if member_lists is not None:
                try:
                    self._lattice = SubgroupLattice.from_member_lists(self.group, member_lists)
                except InputError as exc:
                    self._reject(exc)
            if self._lattice is None:
                self._lattice = enumerate_subgroups(self.group)
                self._computed = True
        return self._lattice

    def structure(self, part: str):
        value = self._replay(part)
        if value is None:
            lattice = self.lattice()  # first: rejecting an entry drops every loaded part
            if part == "graph":
                value = top_graph(lattice).to_json_dict()
            else:
                adj, lap = graph_spectra(lattice)
                value = {"adjacency": [_fixed(v) for v in adj.values],
                         "laplacian": [_fixed(v) for v in lap.values]}
            self._parts[part] = value
            self._computed = True
        return value

    def report(self) -> dict:
        value = self._replay("report")
        if value is None:
            value = self._parts["report"] = verify_identities(self.lattice())
            self._computed = True
        return value

    def _replay(self, part: str):
        """`part` as this run holds it, or None; a loaded part is kept only if it has its shape."""
        for name in ("lattice", part):  # the lattice first: every other part derives from it
            line = self._unread.pop(name, None)
            if line is None:
                continue
            value = decode_section(line)
            if _fits(value, _PART_SHAPES[name]):
                self._parts[name] = value
            elif name == "lattice":
                self._reject("its lattice part is malformed")
            else:
                print(f"warning: rejecting the cached {name} part for {self.spec.name}: "
                      "it is malformed; recomputing", file=sys.stderr)
        return self._parts.get(part)

    def _reject(self, why) -> None:
        """Drop every loaded and replayed part: each derives from the cached lattice."""
        print(f"warning: rejecting the cached entry for {self.spec.name}: {why}; recomputing",
              file=sys.stderr)
        self._unread, self._parts = {}, {}

    def save(self) -> None:
        if self.cache_dir and self._computed:
            self._parts["lattice"] = self.lattice().member_lists()
            for part in ("graph", "spectra"):
                with suppress(SizeError):  # a part past a size budget stays out of the file
                    self.structure(part)
            if "report" in self._unread:  # kept if it has its shape, else recomputed
                with suppress(SizeError):
                    self.report()
            try:
                cache_store(self.cache_dir, self.group, self._parts)
            except OSError as exc:
                print(f"warning: cannot write cache {self.cache_dir}: {exc}", file=sys.stderr)


class _NotPlain(Exception):
    """A value `_json_text` leaves to `json.dumps`."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# exact type -> its JSON text, as json.dumps spells it (bool is not int here)
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_text(value, pad: str) -> str:
    """`value` as json.dumps(indent=2, sort_keys=True) renders it at the
    indentation `pad` (a newline and spaces). A list of one scalar type is
    one str.join, and a list of nonempty int lists is two str.replace calls
    on its str()."""
    render = _SCALARS.get(type(value))
    if render is not None:
        return render(value)
    inner = pad + "  "
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if (type(value) is list and kinds == {list} and all(value)
                and set(map(type, itertools.chain.from_iterable(value))) == {int}):
            # str() gives "[[1, 2], [3]]"; an int's text holds no ",", " " or "]"
            deeper = inner + "  "
            body = (str(value)[2:-2].replace(", ", "," + deeper)
                    .replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper))
            return "[" + inner + "[" + deeper + body + inner + "]" + pad + "]"
        render = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if render is not None:
            items = map(render, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            raise _NotPlain
        return ("{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json_text(value[k], inner) for k in sorted(value))
            + pad + "}")
    raise _NotPlain


def _print_json(payload) -> None:
    """Print `payload` byte for byte as json.dumps(payload, indent=2, sort_keys=True).

    That call never uses the C encoder when it indents, so plain values
    (dicts with str keys, lists, tuples, str, int, float, bool, None) are
    rendered here in bulk, and anything else goes to json.dumps.
    """
    try:
        text = _json_text(payload, "\n")
    except _NotPlain:
        text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)


def _print_notes(spec: GroupSpec) -> None:
    for note in spec.notes:
        print(f"note: {note}")


# -- commands -----------------------------------------------------------------


def cmd_info(pipeline: Pipeline, args) -> int:
    group = pipeline.group
    lattice = pipeline.lattice()
    payload = {
        "name": pipeline.spec.name,
        "order": group.order,
        "degree": group.degree,
        "abelian": group.is_abelian(),
        "quasihamiltonian": lattice.is_quasihamiltonian(),
        "lattice_size": lattice.size,
        "signature": signature_of(group),
        "notes": list(pipeline.spec.notes),
    }
    if args.json:
        _print_json(payload)
        return 0
    _print_notes(pipeline.spec)
    print(f"group            {payload['name']}")
    print(f"order            {payload['order']}")
    print(f"degree           {payload['degree']}")
    print(f"abelian          {'yes' if payload['abelian'] else 'no'}")
    print(f"quasihamiltonian {'yes' if payload['quasihamiltonian'] else 'no'}")
    print(f"subgroups        {payload['lattice_size']}")
    return 0


def cmd_lattice(pipeline: Pipeline, args) -> int:
    if args.json:
        _print_json(pipeline.lattice().to_json_dict())
        return 0
    _print_notes(pipeline.spec)
    lattice = pipeline.lattice()
    core = lattice.permuting_core()
    print(f"{lattice.size} subgroups of a group of order {pipeline.group.order}")
    for sub in lattice.subgroups:
        tag = " (core)" if sub.id in core else ""
        print(f"  #{sub.id:<3d} order {sub.order:<4d} {vertex_label(lattice, sub.id)}{tag}")
    return 0


def cmd_graph(pipeline: Pipeline, args) -> int:
    if args.dot is not None:
        text = dot_export(top_graph(pipeline.lattice()))
        if args.dot == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.dot, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.dot}: {exc.strerror or exc}") from None
            print(f"wrote {args.dot}")
        return 0
    if args.matrix:
        graph = top_graph(pipeline.lattice())
        matrix = (adjacency_matrix if args.matrix == "adjacency" else laplacian_matrix)(graph)
        if args.json:
            _print_json({"matrix": args.matrix, "entries": matrix.to_lists()})
        else:
            print(matrix.to_csv())
        return 0
    g = pipeline.structure("graph")
    if args.json:
        _print_json(g)
        return 0
    _print_notes(pipeline.spec)
    print(f"non-permutability graph: {len(g['vertices'])} vertices, {g['edge_count']} edges")
    for pair in g["edges"]:
        print(f"  {pair[0]} -- {pair[1]}")
    return 0


def cmd_spectrum(pipeline: Pipeline, args) -> int:
    values = pipeline.structure("spectra")[args.matrix]
    if args.csv:
        for v in values:
            print(f"{v:.12g}")
        return 0
    if args.json:
        _print_json({"matrix": args.matrix, "values": values})
        return 0
    _print_notes(pipeline.spec)
    print(f"{args.matrix} spectrum ({len(values)} values, ascending):")
    print("  " + ", ".join(f"{v:.12g}" for v in values))
    return 0


def cmd_mobius(pipeline: Pipeline, args) -> int:
    lattice = pipeline.lattice()
    upper = lattice.top_id if args.upper is None else args.upper
    if not 0 <= upper < lattice.size:
        raise InputError(f"no subgroup with id {upper} (lattice has {lattice.size})")
    rows = [
        {
            "id": sid,
            "order": lattice.subgroup(sid).order,
            "label": vertex_label(lattice, sid),
            "mobius": lattice.mobius(sid, upper),
        }
        for sid in lattice.down_ids(upper)
    ]
    if args.json:
        _print_json({"upper": upper, "values": rows})
        return 0
    _print_notes(pipeline.spec)
    print(f"mobius(X, #{upper}) over the {len(rows)} subgroups below #{upper}:")
    for row in rows:
        print(f"  #{row['id']:<3d} order {row['order']:<4d} {row['mobius']:>6d}  {row['label']}")
    return 0


def _sd_values(pipeline: Pipeline, method: str) -> dict[str, str]:
    lattice = pipeline.lattice()
    out: dict[str, str] = {}
    if method in ("direct", "all"):
        out["direct"] = sd_text(lattice, sd_direct(lattice))
    if method in ("spectral", "all"):
        out["spectral"] = sd_text(lattice, sd_spectral(lattice, top_graph(lattice)))
    if method in ("f2", "all"):
        out["via_f2"] = sd_text(lattice, sd_via_f2(lattice))
    return out


def _print_values(pipeline: Pipeline, args, label: str, values: dict) -> int:
    if args.json:
        _print_json(values)
        return 0
    _print_notes(pipeline.spec)
    for name, value in values.items():
        print(f"{label}[{name}] = {value}")
    return 0


def cmd_sd(pipeline: Pipeline, args) -> int:
    return _print_values(pipeline, args, "sd", _sd_values(pipeline, args.method))


def _closed_form_f2(pipeline: Pipeline) -> int | str:
    recognized = recognize_projective(pipeline.group)
    if recognized is None:
        return "not applicable (group is not a recognized PSL(2,q) or PGL(2,3))"
    family, q = recognized
    lattice = pipeline.lattice()
    if family == "psl":
        return f2_psl_closed(q, lattice.size)
    # PSL(2,q) is the one subgroup of index 2: it is simple for q >= 4, and in S4 it is A4
    [sid] = (s.id for s in lattice.subgroups if 2 * s.order == pipeline.group.order)
    return f2_pgl_closed(q, lattice.size, len(lattice.down_ids(sid)))


def _f2_values(pipeline: Pipeline, method: str) -> dict:
    lattice = pipeline.lattice()
    out: dict = {}
    if method in ("direct", "all"):
        out["direct"] = f2_direct(lattice)
    if method in ("mobius", "all"):
        out["mobius"] = f2_mobius(lattice)
    for name, func in (("laplacian", f2_split_laplacian), ("adjacency", f2_split_adjacency)):
        if method in (name, "all"):
            try:
                out[name] = func(lattice)
            except DomainError:
                out[name] = NOT_APPLICABLE
    if method in ("closed-form", "all"):
        out["closed_form"] = _closed_form_f2(pipeline)
    return out


def cmd_f2(pipeline: Pipeline, args) -> int:
    return _print_values(pipeline, args, "f2", _f2_values(pipeline, args.method))


def cmd_hughes(pipeline: Pipeline, args) -> int:
    lattice = pipeline.lattice()
    sub = hughes_subgroup(lattice, args.p)
    payload = {
        "p": args.p,
        "id": sub.id,
        "order": sub.order,
        "label": vertex_label(lattice, sub.id),
        "members": list(sub.member_indices()),
    }
    if args.json:
        _print_json(payload)
        return 0
    _print_notes(pipeline.spec)
    print(f"Hughes subgroup for p={args.p}: #{sub.id}, order {sub.order}, "
          f"{payload['label']}")
    return 0


def cmd_census(args) -> int:
    q = args.q
    if q >= 4 and q in PSL_SUPPORTED:
        lattice = enumerate_subgroups(psl2(q))
        payload = census_comparison(lattice, q)
        payload["lattice_size"] = lattice.size
    else:
        payload = {
            "q": q,
            "entries": [e.to_json_dict() for e in dickson_census(q)],
            "note": f"PSL(2,{q}) is out of the enumeration budget; analytic counts only",
        }
    if args.json:
        _print_json(payload)
        return 0
    print(f"subgroup census of PSL(2,{q})"
          + (f" ({payload['lattice_size']} subgroups enumerated)" if "lattice_size" in payload else ""))
    for row in payload["entries"]:
        line = f"  {row['family']:<19s} {row['label']:<15s} count={row['count']}"
        if "brute_count" in row:
            line += f" brute={row['brute_count']}"
            if row["match"] is not None:
                line += f" match={'yes' if row['match'] else 'NO'}"
        if row.get("note"):
            line += f"  [{row['note']}]"
        print(line)
    for extra in payload.get("unmatched", ()):
        print(f"  (by subtraction)    {extra['description']}: {extra['brute_count']}")
    if "note" in payload:
        print(f"note: {payload['note']}")
    return 0


def _verify_one(name: str, cache_dir: str | None) -> dict:
    pipeline = Pipeline(parse_group_spec(name), cache_dir)
    report = pipeline.report()
    pipeline.save()
    return {"name": name, "report": report}


def cmd_verify(args, cache_dir: str | None) -> int:
    names = list(CATALOG_NAMES) if args.catalog else [args.group]
    results = [_verify_one(name, cache_dir) for name in names]
    all_ok = all(entry["report"]["internal_ok"] for entry in results)
    if args.json:
        _print_json({"tool_version": __version__, "groups": results})
    else:
        for entry in results:
            report = entry["report"]
            status = "ok" if report["internal_ok"] else "INTERNAL FAILURE"
            line = (f"{entry['name']:<12s} |L|={report['lattice_size']:<4d} "
                    f"sd={report['sd']['direct']:<10s} "
                    f"f2={report['f2']['direct']!s:<7s} {status}")
            print(line)
            for check in report["checks"] + report["trace_checks"]:
                if not check["passed"]:
                    print(f"    FAILED {check['name']}: {check['lhs']} vs {check['rhs']}")
            for note in report["notes"]:
                print(f"    note: {note}")
    return 0 if all_ok else 1


# -- parser ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Parsing never changes it,
    so every `main(argv)` call after the first reuses it."""
    # shared flags may appear before or after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", metavar="DIR", default=argparse.SUPPRESS,
                        help="cache directory (default: $LATSPEC_CACHE)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON")

    parser = argparse.ArgumentParser(
        prog="latspec",
        description="Subgroup lattices, non-permutability graphs, spectra, and "
                    "exact commutativity degrees for finite permutation groups.",
        allow_abbrev=False,
        parents=[common],
    )
    # an explicit prog spares argparse formatting the whole usage to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog="latspec")

    def add_cmd(name: str, help_text: str, group_arg: bool = True):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False, parents=[common])
        if group_arg:
            p.add_argument("group",
                           help="group spec, e.g. S4, D4, PSL(2,5), perm4:(1,2,3,4);(1,3)")
        return p

    add_cmd("info", "order, abelianness, quasihamiltonian flag")
    add_cmd("lattice", "list all subgroups")
    p = add_cmd("graph", "non-permutability graph")
    p.add_argument("--dot", metavar="FILE", help="write DOT to FILE ('-' for stdout)")
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default=None,
                   help="print the matrix itself (CSV, or nested lists with --json)")
    p = add_cmd("spectrum", "eigenvalues of the graph matrices")
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), default="laplacian")
    p.add_argument("--csv", action="store_true", help="one value per line")
    p = add_cmd("mobius", "Möbius values mu(X, upper) for all X below upper")
    p.add_argument("--upper", type=int, default=None, metavar="ID")
    p = add_cmd("sd", "subgroup commutativity degree")
    p.add_argument("--method", choices=("direct", "spectral", "f2", "all"), default="all")
    p = add_cmd("f2", "factorization number")
    p.add_argument("--method",
                   choices=("direct", "mobius", "laplacian", "adjacency", "closed-form", "all"),
                   default="all")
    p = add_cmd("hughes", "Hughes subgroup for a prime")
    p.add_argument("-p", type=int, required=True)
    p = add_cmd("census", "subgroup census of PSL(2,q)", group_arg=False)
    p.add_argument("-q", type=int, required=True)
    p = add_cmd("verify", "run the identity verifier", group_arg=False)
    p.add_argument("group", nargs="?", help="group spec (omit with --catalog)")
    p.add_argument("--catalog", action="store_true", help="verify every built-in group")
    return parser


_GROUP_COMMANDS = {
    "info": cmd_info,
    "lattice": cmd_lattice,
    "graph": cmd_graph,
    "spectrum": cmd_spectrum,
    "mobius": cmd_mobius,
    "sd": cmd_sd,
    "f2": cmd_f2,
    "hughes": cmd_hughes,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "cache"):
        args.cache = os.environ.get("LATSPEC_CACHE") or None
    if not hasattr(args, "json"):
        args.json = False
    try:
        if args.command == "census":
            return cmd_census(args)
        if args.command == "verify":
            if args.catalog == bool(args.group):
                print("error: verify needs exactly one of a group spec and --catalog",
                      file=sys.stderr)
                return 2
            return cmd_verify(args, args.cache)
        spec = parse_group_spec(args.group)
        pipeline = Pipeline(spec, args.cache)
        status = _GROUP_COMMANDS[args.command](pipeline, args)
        pipeline.save()
        return status
    except (InputError, SizeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatspecError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
