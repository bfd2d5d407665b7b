"""latspec benchmark: three CLI workloads, end-to-end metrics, and an outside-in traced pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it locates `src/` next to this directory). A
run is a closed loop with one client: passes run back to back, each pass in a
fresh interpreter (bench/worker.py), until S seconds have passed; there is
always at least one pass. A pass runs the workload's ops in an order permuted
by the seed; an op is one `latspec.cli.main(argv)` call. Every op's output is
checked against reference.json.gz (see check.py).

With --trace 0 the last stdout line carries the end-to-end metrics, each the
median over the run's passes; with --trace 1 it carries the per-layer metrics
of one extra traced pass, run after the untraced ones. Run context (commit,
source digest, Python and numpy versions, nproc, a calibration loop time) and
the per-pass samples are printed above that line and saved under
.bench_out/. The calibration time is context only; nothing is divided by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Pinned copy of the 30 catalog names at the time the benchmark was defined;
# deliberately not imported from latspec, so growing the catalog cannot change
# this workload.
CATALOG = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "E4", "E8", "E9", "E27", "V4", "Q8",
    "D4", "D5", "D6", "D8", "M16",
    "S3", "S4", "A4", "A5",
    "PSL(2,4)", "PSL(2,5)", "PGL(2,3)",
    "C2xC2xC3",
)
WARM_GROUPS = ("S4", "A5", "PSL(2,7)")
WARM_COMMANDS = (
    ("verify", "--json"), ("lattice", "--json"), ("graph", "--json"), ("spectrum",),
    ("mobius",), ("info",), ("sd", "--method", "direct"), ("f2", "--method", "direct"),
    ("hughes", "-p", "2"),
)

# "{cache}" stands for the pass's cache directory. catalog_cold gets a fresh
# empty one per pass, shared by that pass's 30 ops; warm_cache shares the one
# the run's set-up filled.
WORKLOADS = {
    "catalog_cold": {
        "ops": [["--cache", "{cache}", "verify", g, "--json"] for g in CATALOG],
        "fresh_cache": True,
        "fill": None,
    },
    "psl27_cold": {
        "ops": [["verify", "PSL(2,7)", "--json"]],
        "fresh_cache": False,
        "fill": None,
    },
    "warm_cache": {
        "ops": [["--cache", "{cache}", cmd[0], g, *cmd[1:]]
                for g in WARM_GROUPS for cmd in WARM_COMMANDS],
        "fresh_cache": False,
        "fill": [["--cache", "{cache}", "verify", g] for g in WARM_GROUPS],
    },
}

RUN_LIMIT_S = 170.0
SETUP_PROBES = 5
CALIBRATION_STEPS = 2_000_000


class BenchError(Exception):
    """The harness cannot produce a result (no program, a worker died, time ran out)."""


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: host speed context, never a divisor or a gate."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x += i
    return time.perf_counter() - t0


def run_context() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True, check=False)
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": proc.stdout.strip() or None,
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LATSPEC_CACHE", None)   # the program gets its input from argv only
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"               # one process, no threads
    return env


class Runner:
    """Spawns worker passes inside one run directory and keeps the run's time limit."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def pass_(self, ops, *, cache_dir=None, fresh_cache=False, check_cache=False,
              trace_out=None) -> dict:
        self.count += 1
        spec_path = self.workdir / f"spec-{self.count}.json"
        result_path = self.workdir / f"result-{self.count}.json"
        spec = {
            "src": str(SRC), "tmp": str(self.workdir), "ops": ops,
            "cache_dir": cache_dir, "fresh_cache": fresh_cache, "check_cache": check_cache,
            "trace": trace_out is not None, "trace_out": str(trace_out) if trace_out else None,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run time limit of {RUN_LIMIT_S:.0f} s reached")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                                   str(result_path)], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {self.count} exceeded the run time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["t_ready"] - t_spawn
        result["span_s"] = result["t_done"] - t_spawn
        result["ops_argv"] = ops
        return result


def cache_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check_pass(reference: dict, result: dict, failures: list[str]) -> int:
    """Count the pass's failed ops; append a description of each to `failures`."""
    failed = 0
    for argv, op in zip(result["ops_argv"], result["ops"]):
        why = check.check_op(reference, argv, op["rc"], op["error"], op["out"])
        if why is None and op["cache_changed"]:
            why = "changed the cache directory"
        if why is not None:
            failed += 1
            failures.append(f"{check.op_key(argv)}: {why}")
    return failed


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    if not (SRC / "latspec" / "cli.py").is_file():
        raise BenchError(f"no latspec sources under {SRC}")
    wl = WORKLOADS[workload]
    reference = check.load_reference()[workload]
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                           capture_output=True, text=True, check=False)
    if build.returncode != 0:
        raise BenchError(f"byte-compiling {SRC} failed: {build.stdout}{build.stderr}")
    context = run_context()

    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures: list[str] = []
    attempted = failed = 0
    problems: list[str] = []
    try:
        runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
        fill_s = 0.0
        cache_dir = None
        if wl["fill"]:
            cache_dir = workdir / "cache"
            cache_dir.mkdir()
            fill = runner.pass_(wl["fill"], cache_dir=str(cache_dir))
            fill_failures: list[str] = []
            if check_pass(reference, fill, fill_failures):
                raise BenchError("cache fill failed: " + "; ".join(fill_failures[:3]))
            fill_s = fill["span_s"]
            filled = cache_digest(cache_dir)

        # Empty passes (interpreter start, import, temp dir, no ops) give
        # setup_s several samples even when a pass is long.
        probes = [runner.pass_([], fresh_cache=wl["fresh_cache"])["setup_s"]
                  for _ in range(SETUP_PROBES)]

        pass_args = {"cache_dir": str(cache_dir) if cache_dir else None,
                     "fresh_cache": wl["fresh_cache"], "check_cache": cache_dir is not None}
        rng = random.Random(seed)
        passes = []
        t_start = time.monotonic()
        while not passes or time.monotonic() - t_start < seconds:
            ops = rng.sample(wl["ops"], len(wl["ops"]))
            result = runner.pass_(ops, **pass_args)
            attempted += len(ops)
            failed += check_pass(reference, result, failures)
            passes.append(result)

        walls = [p["wall_s"] for p in passes]
        metrics = {
            "setup_s": {"value": fill_s + statistics.median(
                probes + [p["setup_s"] for p in passes]), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MiB"},
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "context": context,
            "fill_s": fill_s, "setup_probes": probes,
            "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                       for p in passes],
            "end_to_end": metrics,
        }
        if trace:
            trace_out = outdir / f"trace-{workload}-{seed}.json"
            ops = rng.sample(wl["ops"], len(wl["ops"]))
            traced = runner.pass_(ops, trace_out=trace_out, **pass_args)
            attempted += len(ops)
            failed += check_pass(reference, traced, failures)
            layer = dict(traced["trace_metrics"])
            layer["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
            problems += [f"trace target not found: {t}" for t in traced["trace_missing"]]
            problems += [f"trace expectation: {p}"
                         for p in tracer.expectation_failures(workload, layer)]
            record["per_layer"] = layer
            record["traced_wall_s"] = traced["wall_s"]
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
        if cache_dir is not None and cache_digest(cache_dir) != filled:
            problems.append("warm_cache ops changed the cache directory contents")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass

    record.update({"attempted": attempted, "failed": failed, "failures": failures,
                   "problems": problems})
    (outdir / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    line = {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, record


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.startswith("cache.bytes") or name.endswith("_bytes"):
        return "B"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ctx = record["context"]
    print(f"context: commit={ctx['commit']} src_sha256={ctx['src_sha256'][:16]} "
          f"python={ctx['python']} numpy={ctx['numpy']} nproc={ctx['nproc']} "
          f"calibration_s={ctx['calibration_s']:.4f}")
    n = len(record["passes"])
    print(f"{args.workload} seed={args.seed}: {n} passes of "
          f"{len(WORKLOADS[args.workload]['ops'])} ops, medians over passes")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<12} {m['value']:.4f} {m['unit']}")
    print(f"  {'ops_failed':<12} {record['failed'] / record['attempted']:.4f} "
          f"({record['failed']}/{record['attempted']})")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<34} {value:.6g} {_layer_unit(name)}")
    for msg in record["failures"][:10] + record["problems"]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
