"""The traced run: spans and operation tallies recorded from outside kaluza.

Timing wrappers are installed on the package's public functions in every
module namespace that bound them by name (``kaluza.fastmul.hadamard_pairs``
and ``kaluza.linops.hadamard_pairs`` are separate bindings, and so is
``kaluza.cli.build_pipeline``), and on a few methods.  Each call records a
span (name, start, end, parent span, product id) in memory; the spans are
written out when the run ends and self time is span time minus the time
its child spans cover.  One counted product per engine is run with an
``OpCount``; during it, each wrapper whose call carries the counter also
records the counter's change, so per-stage multiplications and additions
come out attributed without changing the package.  A function
that a later version of the package no longer has is reported as absent.

Run as a script, this file is the traced child process: it runs the
workload's fixed traced work once untraced and once traced, so the
tracing overhead compares like with like.  ``run_traced`` in the parent
adds the set-up figures from fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import bench_core as core

# Layer-qualified public functions: the home module and the name there.
FUNCTIONS = {
    "cayley": ("validate_table",),
    "fixtures": ("printed_mul_matrix", "printed_diagonal_blocks"),
    "number": ("mul_naive", "build_mul_matrix", "mul_dense", "compare_printed_blocks"),
    "linops": (
        "apply_permutation",
        "hadamard_pairs",
        "replicate_pairs",
        "block_diagonal_scale",
        "fan_in_sum",
        "materialize",
    ),
    "fastmul": (
        "compute_c",
        "derive_diagonal_spec",
        "build_pipeline",
        "mul_fast",
        "count_operations",
        "compare_printed_diagonal",
    ),
}
METHODS = {
    "number.KaluzaNumber.init": ("number", "KaluzaNumber", "__init__"),
    "fastmul.DiagonalSpec.materialize": ("fastmul", "DiagonalSpec", "materialize"),
    "fastmul.FactorizedPipeline.init": ("fastmul", "FactorizedPipeline", "__init__"),
    "fastmul.FactorizedPipeline.materialize": ("fastmul", "FactorizedPipeline", "materialize"),
}
KERNELS = ("apply_permutation", "hadamard_pairs", "replicate_pairs",
           "block_diagonal_scale", "fan_in_sum")
# The counted totals the package claims; the traced run refuses to report
# if a counted product disagrees.
EXPECTED_COUNTS = {"naive": (1024, 992), "fast": (512, 544), "preprocessing": (0, 32)}


class Tracer:
    """Spans in parallel lists; parents always precede their children."""

    def __init__(self, opcount_cls=None):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.products = [], []
        self.stack = []
        self.product = None  # set by the benchmark loop around each product
        self.counting = False
        self.opcount_cls = opcount_cls
        self.counts = {}  # span -> (muls, adds, bytes) while counting
        self._restore = []

    def wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, products, stack = self.parents, self.products, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            products.append(self.product)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            if self.counting:
                return self._counted(i, fn, args, kwargs)
            try:
                starts[i] = clock()
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _counted(self, i, fn, args, kwargs):
        counter = next(
            (x for x in (*args, *kwargs.values()) if isinstance(x, self.opcount_cls)), None
        )
        before = counter.as_tuple() if counter is not None else (0, 0)
        try:
            self.starts[i] = time.perf_counter_ns()
            out = fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter_ns()
            self.stack.pop()
        after = counter.as_tuple() if counter is not None else (0, 0)
        # Computed traffic: 8 bytes per float vector entry read or written.
        floats = sum(len(x) for x in (*args, out) if isinstance(x, (list, tuple)))
        self.counts[i] = (after[0] - before[0], after[1] - before[1], 8 * floats)
        return out

    def install(self, k):
        """Wrap every target that exists; return the names that are absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kaluza" or n.startswith("kaluza.")]
        absent = []
        for layer, names in FUNCTIONS.items():
            home = getattr(k, layer, None)
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        for span, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(getattr(k, layer, None), cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                absent.append(span)
                continue
            setattr(cls, meth, self.wrap(span, orig))
            self._restore.append((cls, meth, orig))
        return absent

    def restore(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def spans_jsonl(self) -> str:
        return "".join(
            json.dumps([n, s, e, p, list(pr) if pr else None]) + "\n"
            for n, s, e, p, pr in zip(self.names, self.starts, self.ends,
                                      self.parents, self.products)
        )


class Analysis:
    """Per-(engine, span name) calls, inclusive and self time; counted deltas."""

    def __init__(self, tr: Tracer):
        n = len(tr.starts)
        dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        covered = [0] * n
        top = [""] * n
        for i in range(n):
            p = tr.parents[i]
            if p >= 0:
                covered[p] += dur[i]
                top[i] = top[p]
            else:
                top[i] = tr.names[i]
        self.stats = {}
        self.counted = {}  # (engine, top-level span, name) -> [muls, adds, bytes]
        for i in range(n):
            prod = tr.products[i]
            if prod is None:
                continue
            key = (prod[0], tr.names[i])
            s = self.stats.setdefault(key, [0, 0, 0])
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - covered[i]
            if i in tr.counts:
                c = self.counted.setdefault((prod[0], top[i], tr.names[i]), [0, 0, 0])
                for j in range(3):
                    c[j] += tr.counts[i][j]

    def calls(self, eng, name):
        return self.stats.get((eng, name), (0, 0, 0))[0]

    def per_call(self, eng, name, col=1):
        s = self.stats.get((eng, name))
        return s[col] / s[0] if s and s[0] else None

    def per(self, eng, name, denom, col=1):
        s = self.stats.get((eng, name))
        return s[col] / denom if s and denom else None

    def count(self, eng, top, name, col):
        c = self.counted.get((eng, top, name))
        return c[col] if c else None


def counted_products(k, tracer: Tracer, a, b):
    """One counted product per engine; returns each counter's totals."""
    opcount = tracer.opcount_cls
    tracer.counting = True
    try:
        totals = {}
        tracer.product = ("counted-naive", 0)
        c = opcount()
        k.mul_naive(a, b, c)
        totals["naive"] = c.as_tuple()
        tracer.product = ("counted-dense", 0)
        c = opcount()
        k.mul_dense(a, k.build_mul_matrix(b), c)
        totals["dense"] = c.as_tuple()
        tracer.product = ("counted-fast", 0)
        pre, c = opcount(), opcount()
        k.mul_fast(a, k.build_pipeline(b, pre), c)
        totals["preprocessing"], totals["fast"] = pre.as_tuple(), c.as_tuple()
    finally:
        tracer.counting = False
        tracer.product = None
    return totals


def retained_bytes(k, b):
    """Bytes still allocated after one build_pipeline, while the pipeline lives."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipeline = k.build_pipeline(b)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del pipeline
    return after - before


def counted_metrics(an: Analysis, absent):
    """Exact tallies of the counted products, attributed per stage."""
    m = {}
    for kern in KERNELS:
        name = f"linops.{kern}"
        for col, what, unit in ((0, "muls", "count"), (1, "adds", "count"), (2, "bytes", "B")):
            v = an.count("counted-fast", "fastmul.mul_fast", name, col)
            if v is None and name not in absent:
                v = 0  # present, but the counted apply does not call it
            m[f"{name}.{what}_per_product"] = (v, unit)
    m["fastmul.compute_c.adds_per_call"] = (
        an.count("counted-fast", "fastmul.build_pipeline", "fastmul.compute_c", 1), "count")
    for col, what in ((0, "muls"), (1, "adds")):
        m[f"number.mul_naive.{what}_per_call"] = (
            an.count("counted-naive", "number.mul_naive", "number.mul_naive", col), "count")
    return m


def product_layer_metrics(an: Analysis, products, absent):
    """Per-layer times of a product workload, per product or per call."""
    n_fast = products["fast"]
    m = {}
    for kern in KERNELS:
        m[f"linops.{kern}.ns_per_product"] = (an.per("fast", f"linops.{kern}", n_fast), "ns")
    m["fastmul.mul_fast.ns_per_call"] = (an.per_call("fast", "fastmul.mul_fast"), "ns")
    m["fastmul.mul_fast.self_ns_per_call"] = (an.per_call("fast", "fastmul.mul_fast", 2), "ns")
    m["fastmul.build_pipeline.ns_per_call"] = (an.per_call("fast", "fastmul.build_pipeline"), "ns")
    m["fastmul.build_pipeline.calls_per_product"] = (
        an.calls("fast", "fastmul.build_pipeline") / n_fast, "ratio")
    for span in ("fastmul.compute_c", "fastmul.DiagonalSpec.materialize",
                 "fastmul.FactorizedPipeline.init"):
        m[f"{span}.ns_per_call"] = (an.per_call("fast", span), "ns")
    m["number.mul_naive.ns_per_call"] = (an.per_call("naive", "number.mul_naive"), "ns")
    m["number.build_mul_matrix.ns_per_call"] = (
        an.per_call("dense", "number.build_mul_matrix"), "ns")
    m["number.mul_dense.ns_per_call"] = (an.per_call("dense", "number.mul_dense"), "ns")
    wrap_ns = sum(an.stats.get((e, "number.KaluzaNumber.init"), (0, 0))[1] for e in core.ENGINES)
    m["number.KaluzaNumber.init.ns_per_product"] = (
        None if "number.KaluzaNumber.init" in absent else wrap_ns / sum(products.values()), "ns")
    return m


VERIFY_CALLS = (
    "number.mul_naive", "fastmul.mul_fast", "fastmul.build_pipeline", "linops.materialize",
    "fastmul.FactorizedPipeline.materialize", "fastmul.count_operations",
    "number.compare_printed_blocks", "fastmul.compare_printed_diagonal",
    "cayley.validate_table", "fixtures.printed_mul_matrix", "fixtures.printed_diagonal_blocks",
) + tuple(f"linops.{kern}" for kern in KERNELS)


def verify_layer_metrics(an: Analysis):
    """Per-layer times inside one verify run, where every call is one product's."""
    m = {f"{name}.ns_per_call": (an.per_call("verify", name), "ns") for name in VERIFY_CALLS}
    m["cli.verify.self_s"] = (an.per("verify", "cli.verify", 1e9, 2), "s")
    return m


def traced_child(workload, seed, sizes):
    """The workload's fixed work untraced, then traced; a JSON-able summary."""
    k = core.load_kaluza()
    opcount = getattr(k, "OpCount", None) or getattr(getattr(k, "linops", None), "OpCount", None)
    if workload == "verify_suite":
        stream = k.prng.Stream(seed)
        b, a = k.KaluzaNumber(stream.coeffs_real()), k.KaluzaNumber(stream.coeffs_real())
        (untraced_ns, _, _), scale = core.timed_at_reference(
            lambda: core.run_verify(k, seed, sizes.verify_trials))
        untraced_ns *= scale
    else:
        b, items = core.GROUP_MAKERS[workload](k, k.prng.Stream(seed), sizes)[0]
        a = items[0].a
        tally = core.run_products(k, workload, seed, 0, sizes, groups=sizes.trace_groups)
        untraced_ns = tally.scaled_ns
    retained = retained_bytes(k, b)

    tracer = Tracer(opcount)
    absent = tracer.install(k)
    try:
        totals = counted_products(k, tracer, a, b) if opcount is not None else {}
        if workload == "verify_suite":
            main = k.cli.main
            k.cli.main = tracer.wrap("cli.verify", main)
            tracer.product = ("verify", 0)
            try:
                (traced_ns, code, text), scale = core.timed_at_reference(
                    lambda: core.run_verify(k, seed, sizes.verify_trials))
                traced_ns *= scale
            finally:
                tracer.product = None
                k.cli.main = main
            attempted, failed = core.check_verify_output(code, text)
            correct = failed == 0
        else:
            tally = core.run_products(k, workload, seed, 0, sizes, engines=core.make_engines(k),
                                      groups=sizes.trace_groups, tracer=tracer)
            (attempted, failed), correct = tally.counted(), tally.correct
            traced_ns = tally.scaled_ns
            scale = core.REFERENCE_NS / statistics.median(tally.cal_ns)
    finally:
        tracer.restore()

    an = Analysis(tracer)
    if workload == "verify_suite":
        metrics = verify_layer_metrics(an)
        products = {"verify": 1}
    else:
        metrics = product_layer_metrics(an, tally.products, absent)
        metrics["fastmul.FactorizedPipeline.retained_bytes"] = (retained, "B")
        products = tally.products
    # Times at the reference machine speed, as in the untraced run.
    metrics = {n: (v * scale if v is not None and u in ("ns", "s") else v, u)
               for n, (v, u) in metrics.items()}
    metrics.update(counted_metrics(an, absent))
    metrics["bench.trace_overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    mismatch = {e: totals.get(e) for e, want in EXPECTED_COUNTS.items()
                if totals.get(e) != want}
    core.OUT_DIR.mkdir(exist_ok=True)
    spans_path = core.OUT_DIR / f"{workload}-seed{seed}-trace1.spans.jsonl"
    spans_path.write_text(tracer.spans_jsonl())
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "counted_totals": totals,
        "count_mismatch": mismatch if opcount is not None else {"OpCount": "absent"},
        "absent": absent,
        "products": products,
        "spans": len(tracer.starts),
        "spans_file": str(spans_path.relative_to(core.ROOT)),
    }


def run_traced(k, workload, seed, seconds, sizes=core.Sizes()):
    """Set-up children with -X importtime, then the traced child."""
    setup = core.measure_setup(sizes.setup_reps, importtime=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--sizes", json.dumps(core.asdict(sizes))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=core.ROOT)
    if proc.returncode != 0:
        raise core.BenchError(f"traced child failed: {proc.stderr.strip()[-800:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if child["count_mismatch"]:
        raise core.BenchError(
            f"counted totals differ from the claimed ones: {child['count_mismatch']}"
            f" (want {EXPECTED_COUNTS})")
    metrics = {n: tuple(v) for n, v in child["metrics"].items()}
    for mod in core.LAYER_MODULES:
        metrics[f"{mod}.import_us"] = (setup[f"{mod}.import_us"], "us")
    metrics["fastmul.derive_diagonal_spec.cold_ns"] = (setup["derive_cold_ns"], "ns")
    notes = {
        "bench.trace_overhead_ratio": "traced / untraced time of the same work, one process",
        "fastmul.derive_diagonal_spec.cold_ns": "first call in a fresh interpreter",
        "fastmul.FactorizedPipeline.retained_bytes": "tracemalloc around one build_pipeline",
    }
    for n, (v, _) in metrics.items():
        if v is None:
            notes[n] = "absent: not in this version of the package, or not exercised"
        elif n.endswith("bytes_per_product"):
            notes[n] = "computed: 8 B per float read or written"
    extra = {k_: child[k_] for k_ in ("products", "spans", "spans_file", "counted_totals",
                                      "absent")}
    extra.update(setup_reps=setup["setup_reps"], sizes=core.asdict(sizes))
    return core.emit(workload, seed, seconds, 1, sizes, metrics, notes,
                     child["attempted"], child["failed"], child["correct"], extra)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="traced child of the kaluza benchmark")
    p.add_argument("--workload", choices=core.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", default="{}")
    args = p.parse_args(argv)
    try:
        summary = traced_child(args.workload, args.seed, core.Sizes(**json.loads(args.sizes)))
    except core.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
