"""Spans and counts at meshperm's layer boundaries, recorded from outside.

:meth:`Tracer.install` replaces public functions with timing wrappers on
the module attributes their callers look up (for example
``meshperm.bijections.occurrences``, which the bijections call, not
``meshperm.mesh.occurrences``), so ``src/`` needs no hooks.  Wrappers of
``lru_cache`` functions keep ``cache_info``/``cache_clear`` and count hits
and misses from ``cache_info`` deltas.  A target the package no longer has
is skipped, and its metrics read 0.

A span is (name, start, end, parent span, op id); spans live in arrays
until :meth:`Tracer.write` saves them.  A span's self time is its duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict

#: The ten bijection families of the catalog, one verify_entry metric each.
FAMILIES = (
    "direct",
    "oth1",
    "complement_after_one",
    "len2_reduction",
    "ltr_interval_complement",
    "per_interval_len2",
    "pair_swap",
    "a1_complement",
    "nine_box",
    "per_interval_nine_box",
)

MB = 1024 * 1024


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.last_table_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        self._start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._end[index] = t1
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.self_s[name] += dur - frame[1]
            self.total_s[name] += dur
            self.calls[name] += 1

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        """Save every span as JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self._start)):
                fh.write(json.dumps([self.names[self._name[i]], self._start[i], self._end[i],
                                     self._parent[i], self._op[i]]) + "\n")

    # -- wrapping ------------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = functools.wraps(original)(make(original))
        for method in ("cache_info", "cache_clear"):  # lru_cache methods are not in __dict__
            if hasattr(original, method):
                setattr(wrapper, method, getattr(original, method))
        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _spanned(self, name: str):
        def make(fn):
            return lambda *a, **k: self.call(name, fn, *a, **k)
        return make

    def _cached(self, name: str):
        """Span plus hit/miss counts for an ``lru_cache`` table function;
        every call of one without a cache counts as a miss."""
        def make(fn):
            def misses():
                return fn.cache_info().misses if hasattr(fn, "cache_info") else None

            def wrapper(*a, **k):
                before = misses()
                result = self.call(name, fn, *a, **k)
                arrays = result[1:] if isinstance(result, tuple) else (result,)
                self.last_table_bytes = sum(getattr(x, "nbytes", 0) for x in arrays)
                if before is None or misses() != before:
                    self.counts[name + ".misses"] += 1
                    self.counts["engine.tables_built_bytes"] += self.last_table_bytes
                else:
                    self.counts[name + ".hits"] += 1
                return result
            return wrapper
        return make

    def _generator(self, name: str):
        """One span per item, so the time spent producing items is charged."""
        def make(fn):
            def wrapper(*a, **k):
                it = iter(fn(*a, **k))
                while True:
                    try:
                        item = self.call(name, next, it)
                    except StopIteration:
                        return
                    yield item
            return wrapper
        return make

    def install(self) -> None:
        """Wrap the layer boundaries of the ``meshperm`` package."""
        cli, catalog, distribution, engine, bijections = (
            importlib.import_module(f"meshperm.{name}")
            for name in ("cli", "catalog", "distribution", "engine", "bijections")
        )

        self._patch(catalog, "load_catalog", self._spanned("catalog.load_catalog"))
        self._patch(catalog, "entry_by_id", self._spanned("catalog.entry_by_id"))

        for fn_name in ("distribution", "joint_distribution", "first_divergence", "scan_symmetric_pairs"):
            self._patch(cli, fn_name, self._spanned("distribution." + fn_name))
        # first_divergence reaches distribution() through its own module
        self._patch(distribution, "distribution", self._spanned("distribution.distribution"))

        def count_masks(fn):
            def wrapper(task, *a, **k):
                # task is (n, first value of the block, pending masks)
                if isinstance(task, tuple) and len(task) == 3:
                    self.counts["distribution.scan.mask_evals"] += len(task[2])
                return fn(task, *a, **k)
            return wrapper
        self._patch(distribution, "_scan_block", count_masks)

        self._patch(engine, "perm_block", self._cached("engine.perm_block"))
        self._patch(engine, "subseq_tables", self._cached("engine.subseq_tables"))

        def count_vector(fn):
            def wrapper(*a, **k):
                self.last_table_bytes = 0
                result = self.call("engine.count_vector", fn, *a, **k)
                # the arrays of the table it looked up, which it reads in full
                self.counts["engine.count_vector.bytes_read"] += self.last_table_bytes
                return result
            return wrapper
        self._patch(engine, "count_vector", count_vector)

        def verify_entry(fn):
            def wrapper(entry, *a, **k):
                family = (entry.family or {}).get("name", "none")
                return self.call(f"bijections.verify_entry.{family}", fn, entry, *a, **k)
            return wrapper
        self._patch(bijections, "verify_entry", verify_entry)

        def transform_for(fn):
            def wrapper(*a, **k):
                transform = fn(*a, **k)
                return lambda *args: self.call("bijections.transform", transform, *args)
            return wrapper
        self._patch(bijections, "transform_for", transform_for)
        self._patch(bijections, "occurrences", self._spanned("mesh.occurrences"))
        self._patch(bijections, "lex_rank", self._spanned("perms.lex_rank"))
        self._patch(bijections, "enumerate_sn", self._generator("perms.enumerate_sn"))

    # -- results -------------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Counts that repeat exactly on the same op stream."""
        return dict(sorted({**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}.items()))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced run, by name."""
        c, s = self.calls, self.self_s
        hits = self.counts["engine.subseq_tables.hits"]
        misses = self.counts["engine.subseq_tables.misses"]
        out = {
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": s["cli.main"],
            "catalog.load_catalog.s": self.total_s["catalog.load_catalog"],
            "catalog.entry_by_id.calls": c["catalog.entry_by_id"],
            "distribution.scan_symmetric_pairs.self_s": s["distribution.scan_symmetric_pairs"],
            "distribution.scan.mask_evals": self.counts["distribution.scan.mask_evals"],
        }
        for fn_name in ("joint_distribution", "first_divergence", "distribution"):
            out[f"distribution.{fn_name}.calls"] = c[f"distribution.{fn_name}"]
            out[f"distribution.{fn_name}.self_s"] = s[f"distribution.{fn_name}"]
        out.update({
            "engine.perm_block.misses": self.counts["engine.perm_block.misses"],
            "engine.perm_block.self_s": s["engine.perm_block"],
            "engine.subseq_tables.hits": hits,
            "engine.subseq_tables.misses": misses,
            "engine.subseq_tables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.subseq_tables.self_s": s["engine.subseq_tables"],
            "engine.tables_built_mb": self.counts["engine.tables_built_bytes"] / MB,
            "engine.count_vector.calls": c["engine.count_vector"],
            "engine.count_vector.self_s": s["engine.count_vector"],
            "engine.count_vector.bytes_read_mb": self.counts["engine.count_vector.bytes_read"] / MB,
        })
        for family in FAMILIES:
            out[f"bijections.verify_entry.{family}.s"] = self.total_s[f"bijections.verify_entry.{family}"]
        out.update({
            "bijections.transform.calls": c["bijections.transform"],
            "bijections.transform.self_s": s["bijections.transform"],
            "mesh.occurrences.calls": c["mesh.occurrences"],
            "mesh.occurrences.self_s": s["mesh.occurrences"],
            "perms.lex_rank.calls": c["perms.lex_rank"],
            "perms.lex_rank.self_s": s["perms.lex_rank"],
            "perms.enumerate_sn.self_s": s["perms.enumerate_sn"],
        })
        return out
