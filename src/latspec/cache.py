"""Content-addressed on-disk cache for per-group artifacts.

One file holds the sections of one group at one eigensolver tolerance. It is
named by the group order, the full hash of the canonical element table and
repr(tol), and holds one object, {schema, tol, degree, elements, sections}.
A lookup opens only the file its key names and answers only when the schema,
the tol, the degree and the full element table all match, so a hash
collision or a renamed file is a miss, never a wrong answer. A store writes
the whole object by temp file and rename, and never reads the file it
replaces, so two writers cannot lose each other's entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from .perm import FiniteGroup
from .spectral import DEFAULT_TOL

# The layout of a cache file; a file written under another schema is a miss.
CACHE_SCHEMA = 2


def table_hash(group: FiniteGroup) -> str:
    """Hash of the canonical element table (degree plus sorted image tuples)."""
    h = hashlib.sha256()
    h.update(str(group.degree).encode())
    for p in group.elements:
        h.update(b"|")
        h.update(",".join(map(str, p.images)).encode())
    return h.hexdigest()


def signature_of(group: FiniteGroup) -> dict:
    hist = group.element_order_histogram()
    return {
        "order": group.order,
        "element_orders": [[k, hist[k]] for k in sorted(hist)],
        "table_hash": table_hash(group),
    }


def _key(group: FiniteGroup, tol: float) -> dict:
    """Every field of a cache file but its sections; a lookup must match them all."""
    return {
        "schema": CACHE_SCHEMA,
        "tol": tol,
        "degree": group.degree,
        "elements": [list(p.images) for p in group.elements],
    }


def _cache_file(cache_dir: str | Path, group: FiniteGroup, tol: float) -> Path:
    return Path(cache_dir) / f"{group.order}-{table_hash(group)}-{tol!r}.json"


def cache_lookup(cache_dir: str | Path, group: FiniteGroup,
                 tol: float = DEFAULT_TOL) -> dict | None:
    """Return the sections stored for this exact group at this tol, or None."""
    path = _cache_file(cache_dir, group, tol)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring unreadable or corrupt cache file {path}: {exc}",
              file=sys.stderr)
        return None
    if isinstance(data, dict) and any(data.get(k) != v for k, v in _key(group, tol).items()):
        return None
    if not isinstance(data, dict) or not isinstance(data.get("sections"), dict):
        print(f"warning: ignoring malformed cache file {path}", file=sys.stderr)
        return None
    return data["sections"]


def cache_store(cache_dir: str | Path, group: FiniteGroup, sections: dict,
                tol: float = DEFAULT_TOL) -> None:
    """Write this group's entry at this tol whole, atomically (temp file + rename)."""
    path = _cache_file(cache_dir, group, tol)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {**_key(group, tol), "sections": sections}
    text = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
