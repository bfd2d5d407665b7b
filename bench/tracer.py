"""Outside-in spans around latspec's public functions, for the traced benchmark pass.

The program is not changed: `install` replaces each target in every latspec
module namespace that binds it (modules that did `from .x import f` hold their
own reference, and a span patched only at the definition site would record
nothing). Spans are kept in memory as (name, start, end, parent, self time)
and written when the pass ends. Hot leaves (`product_bits`,
`products_commute`, `mobius`) are aggregated per (name, parent name) instead
of being recorded call by call; they still take part in the parent's self
time.

The metric names match the `per_layer` list of BENCHMARK.json.
"""

from __future__ import annotations

import builtins
import importlib
import os
import time
import weakref

MODULES = ("perm", "catalog", "lattice", "graph", "spectral", "degrees", "cache",
           "closed_forms", "cli")

# (metric name, module, attribute path, kind); kind is "fn" for a plain
# function or method, "classmethod" or "build" (first read of a lazily built
# property per object).
TARGETS = (
    ("perm.group_init", "perm", "FiniteGroup.__init__", "fn"),
    ("perm.mul_table", "perm", "FiniteGroup.mul_table", "build"),
    ("catalog.parse", "catalog", "parse_group_spec", "fn"),
    ("lattice.enumerate", "lattice", "enumerate_subgroups", "fn"),
    ("lattice.init", "lattice", "SubgroupLattice.__init__", "fn"),
    ("lattice.from_member_lists", "lattice", "SubgroupLattice.from_member_lists", "classmethod"),
    ("lattice.products_commute", "lattice", "SubgroupLattice.products_commute", "fn"),
    ("lattice.product_bits", "lattice", "SubgroupLattice.product_bits", "fn"),
    ("lattice.core", "lattice", "SubgroupLattice.permuting_core", "fn"),
    ("lattice.mobius", "lattice", "SubgroupLattice.mobius", "fn"),
    ("graph.build", "graph", "build_graph", "fn"),
    ("graph.matrix", "graph", "adjacency_matrix", "fn"),
    ("graph.matrix", "graph", "laplacian_matrix", "fn"),
    ("spectral.jacobi", "spectral", "eigenvalues_symmetric", "fn"),
    ("degrees.verify", "degrees", "verify_identities", "fn"),
    ("degrees.sd_direct", "degrees", "sd_direct", "fn"),
    ("degrees.sd_via_f2", "degrees", "sd_via_f2", "fn"),
    ("degrees.f2_direct", "degrees", "f2_direct", "fn"),
    ("degrees.f2_mobius", "degrees", "f2_mobius", "fn"),
    ("degrees.split_laplacian", "degrees", "f2_split_laplacian", "fn"),
    ("degrees.split_adjacency", "degrees", "f2_split_adjacency", "fn"),
    ("cache.lookup", "cache", "cache_lookup", "fn"),
    ("cache.store", "cache", "cache_store", "fn"),
    ("cli.main", "cli", "main", "fn"),
    ("cli.structure", "cli", "Pipeline.structure", "fn"),
    ("cli.report", "cli", "Pipeline.report", "fn"),
)

HOT = {"lattice.product_bits", "lattice.products_commute", "lattice.mobius"}
ROUTES = {"degrees.sd_direct", "degrees.sd_via_f2", "degrees.f2_direct",
          "degrees.f2_mobius", "degrees.split_laplacian", "degrees.split_adjacency"}
SPLITS = {"degrees.split_laplacian", "degrees.split_adjacency"}

# Spans that must fire (">0") or must stay silent ("==0") on each workload's
# timed ops; a traced pass that breaks one of these is reported as incorrect.
EXPECT = {
    "catalog_cold": {
        ">0": ("catalog.parse.calls", "perm.group_init.calls", "perm.mul_table.builds",
               "lattice.enumerate.calls", "lattice.init.calls",
               "lattice.products_commute.calls", "lattice.product_bits.calls",
               "lattice.mobius.calls", "graph.build.calls", "graph.edges",
               "spectral.jacobi.calls", "degrees.verify.s", "degrees.sublattices_built",
               "degrees.jacobi_calls", "cache.lookup.calls", "cache.hits",
               "cache.store.calls", "cache.bytes_written", "cache.bytes_read",
               "cli.report.s", "cli.stdout_bytes"),
        "==0": ("lattice.from_member_lists.calls",),
    },
    "psl27_cold": {
        ">0": ("catalog.parse.calls", "perm.group_init.calls", "perm.mul_table.builds",
               "lattice.enumerate.calls", "lattice.init.calls",
               "lattice.products_commute.calls", "lattice.product_bits.calls",
               "lattice.mobius.calls", "graph.build.calls", "graph.edges",
               "spectral.jacobi.calls", "degrees.verify.s", "degrees.sublattices_built",
               "degrees.jacobi_calls", "cli.report.s", "cli.stdout_bytes"),
        "==0": ("cache.lookup.calls", "cache.store.calls",
                "lattice.from_member_lists.calls"),
    },
    "warm_cache": {
        ">0": ("catalog.parse.calls", "lattice.from_member_lists.calls", "lattice.init.calls",
               "lattice.products_commute.calls", "lattice.product_bits.calls",
               "lattice.mobius.calls", "cache.lookup.calls", "cache.hits",
               "cache.bytes_read", "cli.structure.s", "cli.stdout_bytes"),
        "==0": ("lattice.enumerate.calls", "spectral.jacobi.calls", "graph.build.calls",
                "cache.store.calls", "cache.bytes_written", "degrees.sublattices_built"),
    },
}


def dir_state(path) -> dict:
    """(inode, size, mtime) per file name; any write or replace changes an entry."""
    try:
        entries = list(os.scandir(path))
    except FileNotFoundError:
        return {}
    out = {}
    for e in entries:
        st = e.stat()
        out[e.name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


class Tracer:
    """Span stack, per-call span records and per-metric aggregates for one pass."""

    def __init__(self) -> None:
        self.spans: list = []   # [name, start, end, parent span index or -1, self_s]
        self.hot: dict[tuple[str, str], list] = {}   # (name, parent name) -> [calls, s, self_s]
        self.calls: dict[str, int] = {}
        self.outer_s: dict[str, float] = {}   # inclusive time, outermost spans of a name
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.sites: dict[str, int] = {}
        self._stack: list[list] = []   # [name, span index (-1 if aggregated), child time]
        self._depth: dict[str, int] = {}
        self._built: weakref.WeakSet = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        depth_key = "degrees.route" if name in ROUTES else name
        depth = self._depth.get(depth_key, 0)
        self._depth[depth_key] = depth + 1
        index = -1
        if name not in HOT:
            index = len(self.spans)
            self.spans.append(None)   # filled on exit; children refer to this index
        frame = [name, index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._depth[depth_key] = depth
            dur = end - start
            own = dur - frame[2]
            if parent is not None:
                parent[2] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if depth == 0:
                self.outer_s[name] = self.outer_s.get(name, 0.0) + dur
            if name in HOT:
                key = (name, parent[0] if parent else "")
                agg = self.hot.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            else:
                owner = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                self.spans[index] = [name, start, end, owner, own]
        self._after(name, args, result, parent, stack)
        return result

    def _after(self, name, args, result, parent, stack) -> None:
        c = self.counters
        if name == "lattice.enumerate":
            c["lattice.enumerate.subgroups"] = c.get("lattice.enumerate.subgroups", 0) + result.size
            if parent is not None and parent[0].startswith("degrees."):
                c["degrees.sublattices_built"] = c.get("degrees.sublattices_built", 0) + 1
        elif name == "graph.build":
            c["graph.edges"] = c.get("graph.edges", 0) + result.edge_count
        elif name == "spectral.jacobi":
            n = args[0].dimension
            c["spectral.jacobi.dim_max"] = max(c.get("spectral.jacobi.dim_max", 0), n)
            c["spectral.jacobi.dim3_sum"] = c.get("spectral.jacobi.dim3_sum", 0) + n ** 3
            if any(f[0] in SPLITS for f in stack):
                c["degrees.jacobi_calls"] = c.get("degrees.jacobi_calls", 0) + 1
        elif name == "cache.lookup" and result is not None:
            c["cache.hits"] = c.get("cache.hits", 0) + 1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_store(self, fn):
        def traced(cache_dir, *args, **kwargs):
            before = dir_state(cache_dir)
            try:
                return self._call("cache.store", fn, (cache_dir,) + args, kwargs)
            finally:
                after = dir_state(cache_dir)
                written = sum(st[1] for n, st in after.items() if before.get(n) != st)
                self.counters["cache.bytes_written"] = (
                    self.counters.get("cache.bytes_written", 0) + written)
        traced.__wrapped__ = fn
        return traced

    def _wrap_build(self, name, fget):
        built = self._built

        def traced(obj):
            if obj in built:
                return fget(obj)
            result = self._call(name, fget, (obj,), {})
            built.add(obj)
            return result
        return traced

    def _open_for_cache(self, file, *args, **kwargs):
        mode = args[0] if args else kwargs.get("mode", "r")
        fh = builtins.open(file, *args, **kwargs)
        if "r" in mode:
            self.counters["cache.bytes_read"] = (
                self.counters.get("cache.bytes_read", 0) + os.fstat(fh.fileno()).st_size)
        return fh

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding site of every target; record unresolved targets."""
        mods = {m: importlib.import_module(f"latspec.{m}") for m in MODULES}
        namespaces = [importlib.import_module("latspec")] + list(mods.values())
        for name, mod_name, path, kind in TARGETS:
            label = f"latspec.{mod_name}.{path}"
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(label)
                continue
            if kind == "build":
                if not isinstance(original, property):
                    self.missing.append(label)
                    continue
                self._set(owner, attr, property(self._wrap_build(name, original.fget)))
                self.sites[label] = 1
            elif kind == "classmethod":
                if not isinstance(original, classmethod):
                    self.missing.append(label)
                    continue
                self._set(owner, attr, classmethod(self._wrap(name, original.__func__)))
                self.sites[label] = 1
            elif outer:
                self._set(owner, attr, self._wrap(name, original))
                self.sites[label] = 1
            else:
                wrapped = (self._wrap_store(original) if name == "cache.store"
                           else self._wrap(name, original))
                count = 0
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapped)
                            count += 1
                self.sites[label] = count
        # The cache module opens its files with the builtin `open`; a module
        # global of that name shadows it there and nowhere else.
        mods["cache"].open = self._open_for_cache

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        mods_cache = importlib.import_module("latspec.cache")
        mods_cache.__dict__.pop("open", None)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, outer, own, c = self.calls, self.outer_s, self.self_s, self.counters
        lookups = calls.get("cache.lookup", 0)
        m = {
            "perm.group_init.calls": calls.get("perm.group_init", 0),
            "perm.group_init.s": outer.get("perm.group_init", 0.0),
            "perm.mul_table.builds": calls.get("perm.mul_table", 0),
            "perm.mul_table.s": outer.get("perm.mul_table", 0.0),
            "catalog.parse.calls": calls.get("catalog.parse", 0),
            "catalog.parse.s": outer.get("catalog.parse", 0.0),
            "lattice.enumerate.calls": calls.get("lattice.enumerate", 0),
            "lattice.enumerate.self_s": own.get("lattice.enumerate", 0.0),
            "lattice.enumerate.subgroups": c.get("lattice.enumerate.subgroups", 0),
            "lattice.init.calls": calls.get("lattice.init", 0),
            "lattice.init.self_s": own.get("lattice.init", 0.0),
            "lattice.from_member_lists.calls": calls.get("lattice.from_member_lists", 0),
            "lattice.from_member_lists.self_s": own.get("lattice.from_member_lists", 0.0),
            "lattice.products_commute.calls": calls.get("lattice.products_commute", 0),
            "lattice.product_bits.calls": calls.get("lattice.product_bits", 0),
            "lattice.product_bits.s": outer.get("lattice.product_bits", 0.0),
            "lattice.core.self_s": own.get("lattice.core", 0.0),
            "lattice.mobius.calls": calls.get("lattice.mobius", 0),
            "lattice.mobius.s": outer.get("lattice.mobius", 0.0),
            "graph.build.calls": calls.get("graph.build", 0),
            "graph.build.self_s": own.get("graph.build", 0.0),
            "graph.edges": c.get("graph.edges", 0),
            "graph.matrix.s": outer.get("graph.matrix", 0.0),
            "spectral.jacobi.calls": calls.get("spectral.jacobi", 0),
            "spectral.jacobi.s": outer.get("spectral.jacobi", 0.0),
            "spectral.jacobi.dim_max": c.get("spectral.jacobi.dim_max", 0),
            "spectral.jacobi.dim3_sum": c.get("spectral.jacobi.dim3_sum", 0),
            "degrees.verify.s": outer.get("degrees.verify", 0.0),
            "degrees.verify.self_s": own.get("degrees.verify", 0.0),
        }
        for route in sorted(ROUTES):
            m[f"{route}.s"] = outer.get(route, 0.0)
        m.update({
            "degrees.sublattices_built": c.get("degrees.sublattices_built", 0),
            "degrees.jacobi_calls": c.get("degrees.jacobi_calls", 0),
            "cache.lookup.calls": lookups,
            "cache.lookup.s": outer.get("cache.lookup", 0.0),
            "cache.hits": c.get("cache.hits", 0),
            "cache.hit_ratio": c.get("cache.hits", 0) / lookups if lookups else 0.0,
            "cache.store.calls": calls.get("cache.store", 0),
            "cache.store.s": outer.get("cache.store", 0.0),
            "cache.bytes_written": c.get("cache.bytes_written", 0),
            "cache.bytes_read": c.get("cache.bytes_read", 0),
            "cli.main.self_s": own.get("cli.main", 0.0),
            "cli.structure.s": outer.get("cli.structure", 0.0),
            "cli.report.s": outer.get("cli.report", 0.0),
        })
        return m

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [[name, parent, *agg] for (name, parent), agg in sorted(self.hot.items())],
            "sites": self.sites,
            "missing": self.missing,
        }


def expectation_failures(workload: str, metrics: dict) -> list[str]:
    """Predicted-nonzero spans that stayed silent and predicted-zero ones that fired."""
    rules = EXPECT[workload]
    bad = [f"{k} is 0, expected > 0" for k in rules[">0"] if not metrics.get(k)]
    bad += [f"{k} is {metrics.get(k)}, expected 0" for k in rules["==0"] if metrics.get(k)]
    return bad
