"""One benchmark pass in a fresh interpreter: import latspec, run the ops, report.

Usage (started by run.py, one process per pass):

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the source root, the op argv lists (with "{cache}" standing for the
cache directory), whether to make a fresh cache directory, and whether to
trace. Each op is one `latspec.cli.main(argv)` call with stdout and stderr
captured. RESULT gets the ready time (time.monotonic, comparable with the
parent's spawn time), per-op timings and outputs, CPU time and peak RSS, and,
when tracing, the layer metrics and the path of the span dump.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, dir_state


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a harness crash
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = time.process_time()
    return rc, error, t1 - t0, c1 - c0, out.getvalue(), err.getvalue()


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import latspec.cli

    if not Path(latspec.cli.__file__).resolve().is_relative_to(src):
        print(f"error: latspec imported from {latspec.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cache_dir = spec.get("cache_dir")
    if spec["fresh_cache"]:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=spec["tmp"])
    t_ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    check_cache = spec["check_cache"]
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops = []
    for argv in spec["ops"]:
        argv = [cache_dir if a == "{cache}" else a for a in argv]
        before = dir_state(cache_dir) if check_cache else None
        rc, error, wall, cpu, out, err = _run_op(latspec.cli.main, argv)
        ops.append({
            "rc": rc, "error": error, "wall_s": wall, "cpu_s": cpu, "out": out, "err": err,
            "cache_changed": check_cache and dir_state(cache_dir) != before,
        })
    t_done = time.monotonic()
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + children1.ru_maxrss)
    children_cpu = ((children1.ru_utime + children1.ru_stime)
                    - (children0.ru_utime + children0.ru_stime))

    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "ops": ops,
        "wall_s": sum(op["wall_s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops) + children_cpu,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics["cli.stdout_bytes"] = sum(len(op["out"].encode()) for op in ops)
        result["trace_metrics"] = metrics
        result["trace_missing"] = tracer.missing
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
