"""Traced run of one lattice-spectra command, for the per-layer breakdown.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py OUT.json -- show m5.lat

Installs timing wrappers around the public functions of each package module
named in ``SPANS``, runs ``cli.main`` on the arguments after ``--`` in this
fresh interpreter (so every cache starts cold), then writes per-span self
times, call counts, work counters and cache statistics to ``OUT.json`` and
the raw spans to ``OUT.spans.json``.  The exit code is the command's.

Spans are kept per thread, because ``run_lattice_suites`` evaluates
``suite_for_lattice`` in a thread pool; a span opened on a pool thread takes
the open ``run_lattice_suites`` span as its parent.  Cached functions are not
wrapped on every call: the ``lru_cache`` is rebuilt around the traced
original, so only misses open a span and hits are read from ``cache_info()``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "lattice_spectra"

# span name -> the package functions it times.  Functions are found by name
# in whichever package module defines them, so a move between modules does
# not lose the span; a name that no longer exists is reported as untraced.
SPANS = {
    "cli.main": ("main",),
    "catalog.canonical_form": ("canonical_form",),
    "lattices.build": ("build_lattice", "lattice_from_order", "product_lattice"),
    "lattices.is_distributive": ("is_distributive",),
    "lattices.all_homs": ("all_homs",),
    "spectra.comaximal_pairs": ("comaximal_pairs",),
    "spectra.build_bitop": ("build_bitop_spectrum",),
    "spectra.build_classical": ("build_classical_spectrum",),
    "spectra.witness": ("gbd_witness", "delta_compactness_check", "extend_to_comaximal"),
    "topology.subbasis": ("topology_from_subbasis",),
    "topology.essential_subsets": ("essential_subsets",),
    "topology.empty_fundamental": ("empty_set_is_fundamental",),
    "topology.pairwise_bd": ("is_pairwise_bd",),
    "duality.classify_hom": ("classify_hom",),
    "duality.spec_b": ("spec_b_on_hom",),
    "duality.pbd_morphism": ("pbd_morphism",),
    "duality.essential_lattice": ("essential_lattice",),
    "duality.reconstruction": (
        "big_h_map",
        "char_comaximal_of_essential",
        "dischar_equivalences",
        "delta_natural_iso_check",
    ),
    "suites.run_lattice_suites": ("run_lattice_suites",),
    "suites.suite_for_lattice": ("suite_for_lattice",),
    "suites.corpus.hom_classification": ("_check_hom_classification",),
    "suites.corpus.functor_laws": ("_check_functor_laws",),
    "suites.corpus.naturality_squares": ("_check_naturality",),
    "suites.corpus.classical_bridge": ("_check_classical_bridge",),
}
ENUMERATE = ("catalog.enumerate", "enumerate_lattices")
POOL_PARENT = "suites.run_lattice_suites"
POOL_WORK = "suites.suite_for_lattice"

# span fields
NAME, START, END, PARENT, THREAD, CPU = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.caches: dict[str, object] = {}
        self.untraced: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None

    def count(self, key: str, amount: int) -> None:
        with self._lock:  # hooks run on pool threads too
            self.counters[key] += amount

    # -- recording -------------------------------------------------------

    def _open(self, name: str, cpu: bool) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._pool_parent
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident(), 0.0]
        if cpu:
            span[CPU] = time.thread_time()
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list, cpu: bool) -> None:
        span[END] = time.perf_counter()
        if cpu:
            span[CPU] = time.thread_time() - span[CPU]
        self._local.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        cpu = name == POOL_WORK
        pool = name == POOL_PARENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, cpu)
            if pool:
                outer, self._pool_parent = self._pool_parent, span
            try:
                result = fn(*args, **kwargs)
            finally:
                if pool:
                    self._pool_parent = outer
                self._close(span, cpu)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name, False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span, False)
                self.count("catalog.lattices_generated", 1)
                yield item

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")
        ]
        hooks = {
            "comaximal_pairs": lambda r: self.count("spectra.points", len(r)),
            "topology_from_subbasis": lambda r: self.count("topology.opens_generated", len(r.opens)),
            "classify_hom": lambda r: self.count("duality.quasi_proper", int(r.quasi_proper)),
        }
        for span_name, fn_names in SPANS.items():
            for fn_name in fn_names:
                original = _defined(modules, fn_name)
                if original is None:
                    self.untraced.append(fn_name)
                    continue
                if hasattr(original, "cache_info"):
                    traced = self.wrap(span_name, original.__wrapped__, hooks.get(fn_name))
                    replacement = functools.lru_cache(maxsize=None)(traced)
                    self.caches[f"{span_name.split('.')[0]}.{fn_name}"] = replacement
                else:
                    replacement = self.wrap(span_name, original, hooks.get(fn_name))
                _rebind(modules, original, replacement)
        span_name, fn_name = ENUMERATE
        original = _defined(modules, fn_name)
        if original is None:
            self.untraced.append(fn_name)
        else:
            _rebind(modules, original, self.wrap_generator(span_name, original))
        # per-lattice suites are looked up through this table at call time
        for module in modules:
            suites = getattr(module, "LATTICE_SUITES", None)
            if suites is not None:
                module.LATTICE_SUITES = tuple(
                    (check, self.wrap(f"suites.{check}", fn)) for check, fn in suites
                )

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, plus pool accounting.

        A span's self time is its duration minus the part of its interval
        covered by its children (children on pool threads may overlap).
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append(span)
        self_s: Counter = Counter()
        calls: Counter = Counter()
        pool_cpu = pool_capacity = 0.0
        for span in self.spans:
            calls[span[NAME]] += 1
            kids = children.get(id(span), ())
            self_s[span[NAME]] += span[END] - span[START] - _covered(span, kids)
            if span[NAME] == POOL_PARENT:
                work = [k for k in kids if k[NAME] == POOL_WORK]
                workers = len({k[THREAD] for k in work}) or 1
                pool_capacity += workers * (span[END] - span[START])
                pool_cpu += sum(k[CPU] for k in work)
        caches = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "caches": caches,
            "pool": {"cpu_s": pool_cpu, "capacity_s": pool_capacity},
            "untraced": self.untraced,
        }

    def span_records(self) -> dict:
        index = {id(span): k for k, span in enumerate(self.spans)}
        names = sorted({span[NAME] for span in self.spans})
        name_id = {name: k for k, name in enumerate(names)}
        threads = {}
        rows = []
        for span in self.spans:
            parent = span[PARENT]
            rows.append(
                [
                    name_id[span[NAME]],
                    round(span[START], 7),
                    round(span[END], 7),
                    -1 if parent is None else index[id(parent)],
                    threads.setdefault(span[THREAD], len(threads)),
                ]
            )
        return {"fields": ["name", "start", "end", "parent", "thread"], "names": names, "spans": rows}


def _defined(modules, fn_name: str):
    """The package function called ``fn_name``, from the module defining it."""
    for module in modules:
        fn = module.__dict__.get(fn_name)
        if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
            return fn
    return None


def _rebind(modules, original, replacement) -> None:
    """Point every package-module global bound to ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(module.__dict__.items()):
            if value is original:
                setattr(module, attr, replacement)


def _covered(span: list, kids) -> float:
    lo, hi = span[START], span[END]
    total = 0.0
    reach = lo
    for start, end in sorted((max(k[START], lo), min(k[END], hi)) for k in kids):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <lattice-spectra arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import importlib

    importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        report_start = time.perf_counter()
        with open(out_path[: -len(".json")] + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh, separators=(",", ":"))
        summary = tracer.summary()
        # writing the report is not tracing overhead; the benchmark subtracts it
        summary["report_s"] = time.perf_counter() - report_start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
