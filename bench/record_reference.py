"""Record reference.json.gz: every op of every workload, run once in canonical order.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are known good (the reference was
recorded on the commit that introduced the benchmark). Each op entry holds
the exact stdout and `ftol`, twice the Jacobi stop bound tol*(1 + ||L||_F)
of the group's non-permutability Laplacian, which bounds every floating value
the op prints (adjacency norms are smaller).
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import check
import run


def laplacian_ftol(name: str) -> float:
    from latspec.catalog import parse_group_spec
    from latspec.graph import build_graph
    from latspec.lattice import enumerate_subgroups
    from latspec.spectral import DEFAULT_TOL

    degrees = build_graph(enumerate_subgroups(parse_group_spec(name).group)).degrees()
    norm = math.sqrt(sum(d * d + d for d in degrees))
    return 2 * DEFAULT_TOL * (1 + norm)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.ROOT)
    reference: dict[str, dict] = {}
    ftols: dict[str, float] = {}
    try:
        runner = run.Runner(Path(workdir), time.monotonic() + 3600)
        for name, wl in run.WORKLOADS.items():
            entries = reference[name] = {}
            cache_dir = None
            results = []
            if wl["fill"]:
                cache_dir = Path(workdir) / f"cache-{name}"
                cache_dir.mkdir()
                results.append(runner.pass_(wl["fill"], cache_dir=str(cache_dir)))
            results.append(runner.pass_(wl["ops"], cache_dir=str(cache_dir) if cache_dir else None,
                                        fresh_cache=wl["fresh_cache"]))
            for result in results:
                for argv, op in zip(result["ops_argv"], result["ops"]):
                    if op["rc"] != 0 or op["error"]:
                        print(f"error: {argv} failed: {op['error'] or op['rc']}", file=sys.stderr)
                        return 1
                    group = check.op_key(argv).split()[1]
                    if group not in ftols:
                        ftols[group] = laplacian_ftol(group)
                    entries[check.op_key(argv)] = {"out": op["out"], "ftol": ftols[group]}
            bad = [f"{k}: {why}" for k, e in entries.items()
                   if (why := check.check_op(entries, k.split(), 0, None, e["out"]))]
            if bad:
                print("error: recorded outputs fail the known-value checks:\n  "
                      + "\n  ".join(bad), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with gzip.GzipFile(check.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, indent=1, sort_keys=True).encode("utf-8"))
    print(f"wrote {check.REFERENCE} "
          f"({sum(len(v) for v in reference.values())} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
