"""Content-addressed on-disk cache for per-group artifacts.

Entries are keyed by the group signature (order, element-order histogram,
hash of the canonical element table). Two distinct groups whose hashes ever
collided would still be stored separately: every lookup compares the full
element table, and one cache file can hold several entries.

Entries are also keyed by the eigensolver tolerance of their sections, so a
store replaces, and a lookup reads, only the entry at its own tolerance; an
entry with no tolerance recorded never matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .perm import FiniteGroup
from .spectral import DEFAULT_TOL

TOOL_VERSION = __version__


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


def _element_lists(group: FiniteGroup) -> list[list[int]]:
    return [list(p.images) for p in group.elements]


def _key(entry: dict) -> tuple:
    return entry.get("tol"), entry.get("degree"), entry.get("elements")


def _cache_file(cache_dir: str | Path, group: FiniteGroup) -> Path:
    key = f"{group.order}-{table_hash(group)[:24]}"
    return Path(cache_dir) / f"{key}.json"


def _load_file(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(data, dict) or data.get("version") != TOOL_VERSION:
        return None
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        print(f"warning: ignoring malformed cache file {path}", file=sys.stderr)
        return None
    return data


def cache_lookup(cache_dir: str | Path, group: FiniteGroup,
                 tol: float = DEFAULT_TOL) -> dict | None:
    """Return the sections stored for this exact group at this tol, or None."""
    data = _load_file(_cache_file(cache_dir, group))
    if data is None:
        return None
    key = (tol, group.degree, _element_lists(group))
    for entry in data["entries"]:
        if _key(entry) == key:
            sections = entry.get("sections")
            return sections if isinstance(sections, dict) else None
    return None


def cache_store(cache_dir: str | Path, group: FiniteGroup, sections: dict,
                tol: float = DEFAULT_TOL) -> None:
    """Write or update this group's entry atomically (temp file + rename)."""
    path = _cache_file(cache_dir, group)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = _load_file(path) or {"version": TOOL_VERSION, "entries": []}
    entry = {
        "signature": signature_of(group),
        "degree": group.degree,
        "elements": _element_lists(group),
        "sections": sections,
        "tol": tol,
    }
    for i, existing in enumerate(data["entries"]):
        if _key(existing) == _key(entry):
            data["entries"][i] = entry
            break
    else:
        data["entries"].append(entry)
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
