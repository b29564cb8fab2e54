"""Run one benchmark operation with spans recorded around designgate's
public functions.

usage: python3 perfbench/traced.py SPANS_PATH cli ARG...     (as `designgate ARG...`)
       python3 perfbench/traced.py SPANS_PATH deep_u ARG...  (as perfbench/deep_u.py)

Every wrapper lives here; no file of the program changes.  A name is
patched in the module that defines it and in each module that imported it
with ``from ... import ...``, because those look it up in their own
namespace.  Spans (name, start, end, parent) stay in memory and are written
to SPANS_PATH as JSON when the operation returns, with the counters that
ride along, and with the traced names that could not be patched because
the program no longer defines them.  The operation's own output and exit
status are unchanged.

Pool workers inherit the wrappers, but their spans stay in the worker and
are dropped; trace with ``--jobs 1`` to see the work, and with pools to
count them.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent span or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.lambda_keys: set = set()
        self.lengths: set = set()
        self.f_bits: list[int] = []
        self.missing: set[str] = set()

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def open(self, name: str) -> int:
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.spans)
        self.spans.append([idx, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.stack.pop()
        self.spans[span][2] = perf_counter()

    def timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn, before=None):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        data = {"names": self.names, "spans": self.spans, "counts": self.counts,
                "lambda_distinct": len(self.lambda_keys),
                "lengths_computed": len(self.lengths),
                "f_bits": self.f_bits, "missing": sorted(self.missing)}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(data, fh)


def _patch(attr: str, wrapper, modules) -> None:
    """Replace ``attr`` in every module that has it bound to the original."""
    original = getattr(modules[0], attr)
    for mod in modules:
        if mod is not None and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _module(name: str):
    """designgate.<name>, or None once a later version has dropped it."""
    try:
        return importlib.import_module(f"designgate.{name}")
    except ImportError:
        return None


def install(tr: Tracer) -> None:
    cli, combinat, families, gate, gleason, report, store, theorems = map(_module, (
        "cli", "combinat", "families", "gate", "gleason", "report", "store", "theorems"))

    def timed(module, attr, name, importers=(), after=None):
        original = getattr(module, attr, None)
        if original is None:
            tr.missing.add(name)
        else:
            _patch(attr, tr.timed(name, original, after), (module, *importers))

    def counted(module, attr, name, importers=(), before=None):
        original = getattr(module, attr, None)
        if original is None:
            tr.missing.add(name)
        else:
            _patch(attr, tr.counted(name, original, before), (module, *importers))

    timed(gleason, "min_weight_count", "gleason.min_weight_count")
    timed(gleason, "next_weight_count", "gleason.next_weight_count", (theorems,))
    timed(gleason, "extremal_weight_enumerator", "gleason.extremal_weight_enumerator", (cli,))
    # The series for length n = 8a is built exactly when phi^a is formed.
    counted(gleason, "_phi_power", "gleason.series_builds",
            before=lambda args: tr.lengths.add(8 * args[0]))

    timed(families, "lambda_at", "families.lambda_at", (gate, cli),
          after=lambda args, _: tr.lambda_keys.add((args[0].r, args[0].m, args[1])))
    timed(families, "admissible_scan", "families.admissible_scan", (theorems, cli))

    timed(gate, "integrality_gate", "gate.integrality_gate", (theorems, cli))
    timed(gate, "moment_vector", "gate.moment_vector")
    timed(gate, "offset_product_sum", "gate.offset_product_sum",
          after=lambda _, F: tr.f_bits.append(abs(F).bit_length()))

    timed(theorems, "run_theorem", "theorems.run_theorem", (cli,))
    timed(report, "render", "report.render", (cli,),
          after=lambda _, text: tr.count("report.render.bytes", len(text)))

    result_store = getattr(store, "ResultStore", None)
    timed(result_store, "get", "store.get",
          after=lambda _, res: tr.count("store.get.hits", res is not None))
    timed(result_store, "put", "store.put")
    load = getattr(result_store, "_load", None)
    if load is None:
        tr.missing.add("store.load")
    else:
        def counted_load(self):
            fresh = not self._loaded
            load(self)
            if fresh:
                tr.count("store.records_loaded", len(self._cache))
        result_store._load = counted_load

    timed(cli, "main", "cli.main")

    for name in ("binom", "falling", "stirling2", "stirling2_by_formula", "elem_sym",
                 "as_fraction"):
        counted(combinat, name, "combinat.calls", (families, gate))

    def traced_pool(*args, **kwargs):
        # Bound on first use: importing the process pool costs more than
        # most CLI calls that never start one.
        from concurrent.futures.process import ProcessPoolExecutor

        class TracedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._span = tr.open("theorems.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tr.close(self._span)

        return TracedPool(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = traced_pool


def main(argv: list[str]) -> int:
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    tr = Tracer()
    install(tr)
    try:
        if kind == "cli":
            from designgate import cli
            return cli.main(args)
        if kind == "deep_u":
            import deep_u
            return deep_u.main(args)
        raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
