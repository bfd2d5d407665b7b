"""Content-addressed on-disk cache for per-group artifacts.

One file holds the sections of one group. It is named by the group order
and the full hash of the canonical element table. Its first line is the key
object {schema, degree, elements}; each further line is one section: its
name, a tab, and its value as compact JSON with sorted keys, the lines in
name order.

A lookup opens only the file its key names, decodes only the key line, and
answers only when the schema, the degree and the full element table all
match, so a hash collision, a renamed file or another schema is a miss,
never a wrong answer. It returns each section's line undecoded; the reader
decodes a line with `decode_section` when it first needs that section, so a
command decodes only what it uses (the graph section is most of a file, and
few commands read it).

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

from .perm import FiniteGroup

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
CACHE_SCHEMA = 5


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
        for p in group.elements:
            h.update(b"|")
            h.update(",".join(map(str, p.images)).encode())
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
    """The first line of a cache file; a lookup must match every field."""
    return {
        "schema": CACHE_SCHEMA,
        "degree": group.degree,
        "elements": [list(p.images) for p in group.elements],
    }


def _cache_file(cache_dir: str | Path, group: FiniteGroup) -> Path:
    return Path(cache_dir) / f"{group.order}-{table_hash(group)}.json"


def cache_lookup(cache_dir: str | Path, group: FiniteGroup) -> dict[str, str] | None:
    """The section lines stored for this exact group, by section name and
    undecoded (see `decode_section`), or None."""
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
    if isinstance(key, dict) and key != _key(group):
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
