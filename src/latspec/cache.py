"""Content-addressed on-disk cache for per-group artifacts.

One file holds the sections of one group. It is named by the group order
and the full hash of the canonical element table. Its first line is the key
object {schema, degree, generators}, the generators as image lists of the
group that wrote the file; each further line is one section: its name, a
tab, and its value as compact JSON with sorted keys, the lines in name order.

A lookup opens only the file its name gives, decodes only the key line, and
answers only when the schema and the degree match and the stored generators
generate exactly G: they are G's own, in order (G is their closure by
construction), or each is an element of G and their closure over G's table
has |G| elements. The two groups are then one element set, so their element
indices agree; no digest stands in for identity, and a hash collision, a
renamed file or another schema is a miss, never a wrong answer. It returns
each section's line undecoded; the reader decodes a line with
`decode_section` when it first needs that section, so a command decodes only
what it uses (the graph section is most of a file, and few commands read it).

A store writes the whole file by temp file and rename, and never reads the
file it replaces, so two writers cannot lose each other's entry.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

from .errors import InputError
from .lattice import _closure_bits
from .perm import FiniteGroup, Permutation

# CPython's built-in SHA-256, which hashlib falls back to without OpenSSL;
# importing hashlib loads OpenSSL's libcrypto (about 3.5 MiB of peak RSS).
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# The layout of a cache file; a file written under another schema is a miss.
CACHE_SCHEMA = 6


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def decode_section(line: str):
    """The value of a section line from `cache_lookup`, or None if it does not decode."""
    try:
        return json.loads(line)
    except ValueError:
        return None


def table_hash(group: FiniteGroup) -> str:
    """SHA-256 of the canonical element table (degree plus sorted image
    tuples), from the built-in module: equal to `hashlib.sha256` over the
    same bytes, without loading OpenSSL. A group's elements never change,
    so the digest is computed once and kept on the group."""
    if group._table_hash is None:
        h = sha256()
        h.update(str(group.degree).encode())
        for images in group.elements:
            h.update(b"|")
            h.update(",".join(map(str, images)).encode())
        group._table_hash = h.hexdigest()
    return group._table_hash


def signature_of(group: FiniteGroup) -> dict:
    hist = group.element_order_histogram()
    return {
        "order": group.order,
        "element_orders": [[k, hist[k]] for k in sorted(hist)],
        "table_hash": table_hash(group),
    }


def _key(group: FiniteGroup) -> dict:
    """The first line of a cache file: the schema, the degree and the
    group's generators as image lists; `_names` decides whether a stored key
    names a group."""
    return {
        "schema": CACHE_SCHEMA,
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
    }


def _names(key: dict, group: FiniteGroup) -> bool:
    """Whether a stored key names `group`: its schema and degree are the
    group's and its generators, a list of int lists, generate the group.
    Equal to the group's own generators they do by construction, with no
    table built; otherwise each must be a permutation `index_of` finds, and
    their closure over the group's table must hold every element."""
    own, gens = _key(group), key.get("generators")
    if (dict(key, generators=own["generators"]) != own or type(gens) is not list
            or not all(type(g) is list and set(map(type, g)) <= {int} for g in gens)):
        return False
    if gens == own["generators"]:
        return True
    try:
        indices = [group.index_of(Permutation(tuple(g))) for g in gens]
    except InputError:  # not a bijection, or not an element of the group
        return False
    e = group.identity_index
    return _closure_bits(group.mul_table, 1 << e, indices) == (1 << group.order) - 1


def _cache_file(cache_dir: str | Path, group: FiniteGroup) -> Path:
    return Path(cache_dir) / f"{group.order}-{table_hash(group)}.json"


def cache_lookup(cache_dir: str | Path, group: FiniteGroup) -> dict[str, str] | None:
    """The section lines stored for this exact group, by section name and
    undecoded (see `decode_section`), or None. A key line that does not name
    the group (`_names`) is a silent miss; a file that does not decode, or
    whose key is no object or whose lines are not named sections, is a miss
    with a warning."""
    path = _cache_file(cache_dir, group)
    try:
        with open(path, encoding="utf-8") as fh:
            key_line, *section_lines = fh.read().split("\n")
        key = json.loads(key_line)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring unreadable or corrupt cache file {path}: {exc}",
              file=sys.stderr)
        return None
    if isinstance(key, dict) and not _names(key, group):
        return None
    lines = dict(line.split("\t", 1) for line in section_lines if "\t" in line)
    if not isinstance(key, dict) or len(lines) != sum(map(bool, section_lines)):
        print(f"warning: ignoring malformed cache file {path}", file=sys.stderr)
        return None
    return lines


def cache_store(cache_dir: str | Path, group: FiniteGroup, sections: Mapping) -> None:
    """Write this group's file whole, atomically (temp file + rename)."""
    path = _cache_file(cache_dir, group)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join([_compact(_key(group)) + "\n"]
                   + [f"{name}\t{_compact(sections[name])}\n" for name in sorted(sections)])
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
