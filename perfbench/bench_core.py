"""Seeded, closed-loop benchmark of the kaluza multiplication engines.

One caller in one thread issues the next product only after the previous
one returns; kaluza is a library, not a server.  Every engine is used the
way a caller would use it: the dense matrix and the fast pipeline are
built once per distinct right operand and reused for its left operands,
so the workloads differ in how often that preparation is paid.

Workloads, all generated from ``kaluza.prng.Stream(seed)`` outside every
timed interval:

shared_right
    Groups of one right operand applied to 256 left operands, real
    coefficients in [-1, 1); a run goes through new groups until its time
    is up (16 groups take about 1.5 s).  Reuse factor 256: applying the
    pipeline does almost all of the fast engine's work.
fresh_pairs
    Chunks of 64 new (a, b) pairs, reuse factor 1: building the dense
    matrix or the pipeline is paid on every product.  Of every 8 pairs, 7
    are ordinary (alternately integer-valued in [-1024, 1024] and real)
    and 1 sits at a magnitude edge: alternately a right operand scaled
    to the top of the double range (left scaled by 2**-8 so the direct
    product stays finite) and a left operand in the subnormal range.
    The fast engine is known to fail on these edges; those failures are
    counted, not hidden.
verify_suite
    ``kaluza.cli.main(["verify", ...])`` in-process with stdout captured.

The engines' order rotates from group to group.  Each product is timed on
its own with ``perf_counter_ns``; throughput is products over the sum of
those intervals, per group, and the median over groups is reported.  All
times are scaled to a reference machine speed (see calibrate.py).

Every dense and fast product is compared with ``mul_naive`` right after
its timed interval: bit-exact on integer-valued inputs, within 1e-12
relative to max |naive| on reals; a non-finite result or an exception
fails.  ``attempted`` and ``failed`` count the checks of the first
``Sizes.checked_groups`` groups, which every run completes, so the same
seed gives the same counts however many groups fit in the time.  Later
groups are checked as well: their tallies go into the record, and any
failure there other than the fast engine's known magnitude-edge one
makes the run incorrect.  Only the public entry points listed in
REQUIRED are needed; everything else the traced run wraps is optional.

BENCHMARK.json lists the two product workloads, whose end-to-end metrics
are the same; verify_suite reports ``verify_s`` instead of the product
metrics and is run by name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import asdict, dataclass, field
from pathlib import Path

from calibrate import CAL_REPS, REFERENCE_NS, machine_ns, timed_at_reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("shared_right", "fresh_pairs", "verify_suite")
ENGINES = ("naive", "dense", "fast")
REQUIRED = (
    "KaluzaNumber",
    "mul_naive",
    "build_mul_matrix",
    "mul_dense",
    "build_pipeline",
    "mul_fast",
)

REL_TOL = 1e-12
# Fast-engine latencies go into a histogram with logarithmic bins, 512 per
# doubling (each 0.14% wide), from 1 ns to 2**34 ns; the percentiles of the
# whole run are read from it.  They vary less from run to run than medians
# over blocks of consecutive products did, and the histogram holds the
# run's memory constant however many products fit in the time.
BINS_PER_DOUBLING = 512
HIST_BINS = 34 * BINS_PER_DOUBLING
INT_BOUND = 1024
# Exponents of the magnitude-edge operands in fresh_pairs.
HUGE_EXP = 1024
HUGE_LEFT_EXP = -8
SUBNORMAL_EXPS = (-1060, -1045)

# The one [WARN] section verify is expected to print: typos in the
# transcribed diagonal rendering, frozen by the acceptance tests.
EXPECTED_WARN = (
    "[WARN] rendering check, diagonal tables: 4 mismatches (basis table is authoritative)",
    "block 1, slot 18: derived c23, printed -c22",
    "block 1, slot 19: derived c22, printed -c23",
    "block 12, slot 28: derived c11, printed c10",
    "block 12, slot 29: derived c10, printed c11",
)


class BenchError(Exception):
    """The benchmark cannot produce a result; maps to exit code 2."""


@dataclass(frozen=True)
class Sizes:
    """Amounts of work; the defaults define the benchmark."""

    lefts_per_right: int = 256
    fresh_chunk: int = 64
    verify_trials: int = 200
    setup_reps: int = 31
    trace_groups: int = 8
    checked_groups: int = 32


# --------------------------------------------------------------------------
# loading the package under test


def load_kaluza(root: Path = ROOT):
    """Import kaluza from ``root/src`` and return the package."""
    src = root / "src"
    if not (src / "kaluza" / "__init__.py").is_file():
        raise BenchError(f"no kaluza sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kaluza
    import kaluza.cli
    import kaluza.prng

    if Path(kaluza.__file__).resolve().parent != (src / "kaluza").resolve():
        raise BenchError(f"imported kaluza from {kaluza.__file__}, not from {src}")
    missing = [n for n in REQUIRED if not hasattr(kaluza, n)]
    if missing or not hasattr(kaluza.cli, "main"):
        raise BenchError(f"missing entry points: {missing or ['cli.main']}")
    return kaluza


# --------------------------------------------------------------------------
# inputs


@dataclass
class Item:
    """One left operand, its oracle product and the gate it is held to."""

    a: object
    exact: bool
    edge: bool
    want: tuple = ()


def open_unit(stream) -> float:
    """Uniform in the open interval (-1, 1), so scaling by 2**1024 stays finite."""
    return (2 * stream.bits(52) + 1 - (1 << 52)) / float(1 << 52)


def shared_right_group(k, stream, sizes: Sizes):
    b = k.KaluzaNumber(stream.coeffs_real())
    lefts = [
        Item(k.KaluzaNumber(stream.coeffs_real()), exact=False, edge=False)
        for _ in range(sizes.lefts_per_right)
    ]
    return [(b, lefts)]


def fresh_pairs_group(k, stream, sizes: Sizes):
    sets = []
    ordinary = edges = 0
    for i in range(sizes.fresh_chunk):
        if i % 8 == 7:
            if edges % 2 == 0:
                b = [math.ldexp(open_unit(stream), HUGE_EXP) for _ in range(32)]
                a = [math.ldexp(open_unit(stream), HUGE_LEFT_EXP) for _ in range(32)]
            else:
                e = stream.int_between(*SUBNORMAL_EXPS)
                a = [math.ldexp(open_unit(stream), e) for _ in range(32)]
                b = stream.coeffs_real()
            edges += 1
            exact, edge = False, True
        else:
            exact, edge = ordinary % 2 == 0, False
            if exact:
                a, b = stream.coeffs_int(INT_BOUND), stream.coeffs_int(INT_BOUND)
            else:
                a, b = stream.coeffs_real(), stream.coeffs_real()
            ordinary += 1
        sets.append((k.KaluzaNumber(b), [Item(k.KaluzaNumber(a), exact, edge)]))
    return sets


GROUP_MAKERS = {"shared_right": shared_right_group, "fresh_pairs": fresh_pairs_group}


def reuse_factor(workload: str, sizes: Sizes):
    return {"shared_right": sizes.lefts_per_right, "fresh_pairs": 1}.get(workload)


def make_engines(k):
    """engine -> (prepare a right operand or None, multiply)."""
    return {
        "naive": (None, k.mul_naive),
        "dense": (k.build_mul_matrix, k.mul_dense),
        "fast": (k.build_pipeline, k.mul_fast),
    }


# --------------------------------------------------------------------------
# checks


def passes(got, want, exact: bool) -> bool:
    if not all(math.isfinite(v) for v in want):
        return False  # the inputs are chosen so the oracle stays finite
    if exact:
        return got == want
    if len(got) != len(want) or not all(math.isfinite(v) for v in got):
        return False
    scale = max(abs(v) for v in want) or 1.0
    return max(abs(x - y) for x, y in zip(got, want)) <= REL_TOL * scale


@dataclass
class Tally:
    """Everything a run measured and checked."""

    products: dict = field(default_factory=lambda: dict.fromkeys(ENGINES, 0))
    rates: dict = field(default_factory=lambda: {e: [] for e in ENGINES})
    fast_hist: array = field(default_factory=lambda: array("q", bytes(8 * HIST_BINS)))
    scaled_ns: float = 0.0  # product time of all engines at the reference speed
    cal_ns: list = field(default_factory=list)  # calibration time per engine pass
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # (engine, class) -> count
    unexpected: list = field(default_factory=list)
    groups: int = 0
    checked: tuple | None = None  # (attempted, failed) after the checked groups

    def counted(self):
        """(attempted, failed) of the checked groups, or of all if fewer ran."""
        return self.checked or (self.attempted, self.failed)

    def fail(self, engine: str, item: Item, why: str | None = None) -> None:
        key = (engine, "edge" if item.edge else "ordinary")
        self.failures[key] = self.failures.get(key, 0) + 1
        # The fast engine's failures at the magnitude edges are the known
        # dynamic-range defect; any other failure makes the run incorrect.
        if key != ("fast", "edge") and len(self.unexpected) < 5:
            self.unexpected.append(f"{engine}/{key[1]}: {why or 'wrong result'}")

    def add_latencies(self, scaled_ns) -> None:
        hist = self.fast_hist
        for t in scaled_ns:
            hist[min(int(math.log2(max(t, 1.0)) * BINS_PER_DOUBLING), HIST_BINS - 1)] += 1

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the fast latencies, in ns.

        The ranks in a bin are spread evenly over it on the log scale.
        """
        rank = max(1, math.ceil(q * sum(self.fast_hist)))
        seen = 0
        for i, count in enumerate(self.fast_hist):
            seen += count
            if seen >= rank:
                return 2 ** ((i + (rank - seen + count - 0.5) / count) / BINS_PER_DOUBLING)
        raise BenchError("no fast product completed")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return all(key == ("fast", "edge") for key in self.failures)


def run_group(g: int, sets, engines, k, tally: Tally, tracer=None, checked_groups=0) -> None:
    """Oracle, then every engine over the group's operands, one product at a time.

    Each engine's pass is bracketed by calibration products, and its times
    are scaled to the reference machine speed (see machine_ns).
    """
    mul_naive = k.mul_naive
    for b, items in sets:
        for item in items:
            item.want = mul_naive(item.a, b).coeffs
    # Rotate the engine order so drift on a shared machine hits all alike.
    order = ENGINES[g % 3:] + ENGINES[: g % 3]
    clock = time.perf_counter_ns
    for name in order:
        prepare, multiply = engines[name]
        times = []
        cal = machine_ns(CAL_REPS)
        for b, items in sets:
            prepared = None
            for item in items:
                if tracer is not None:
                    tracer.product = (name, tally.products[name] + len(times))
                try:
                    t0 = clock()
                    if prepared is None:
                        prepared = b if prepare is None else prepare(b)
                    got = multiply(item.a, prepared)
                    t1 = clock()
                except Exception as e:  # a raising engine is a failed check
                    if name != "naive":
                        tally.attempted += 1
                        tally.fail(name, item, repr(e))
                        continue
                    raise BenchError(f"mul_naive raised {e!r}") from e
                finally:
                    if tracer is not None:
                        tracer.product = None
                times.append(t1 - t0)
                if name != "naive":
                    tally.attempted += 1
                    if not passes(got.coeffs, item.want, item.exact):
                        tally.fail(name, item)
        tally.cal_ns.append(statistics.median(cal + machine_ns(CAL_REPS)))
        scale = REFERENCE_NS / tally.cal_ns[-1]
        total = sum(times)
        tally.products[name] += len(times)
        tally.scaled_ns += total * scale
        if total:
            tally.rates[name].append(len(times) * 1e9 / (total * scale))
        if name == "fast":
            tally.add_latencies(t * scale for t in times)
    tally.groups += 1
    if tally.groups == checked_groups:
        tally.checked = (tally.attempted, tally.failed)


def run_products(k, workload, seed, seconds, sizes, engines=None, groups=None, tracer=None):
    """Run groups until ``seconds`` have passed and the checked groups are done.

    With ``groups``, run exactly that many instead.
    """
    engines = engines or make_engines(k)
    make = GROUP_MAKERS[workload]
    stream = k.prng.Stream(seed)
    # Warm-up group, discarded: let lazy set-up finish before timing.
    run_group(0, make(k, stream, sizes), engines, k, Tally())
    tally = Tally()
    start = time.perf_counter()
    while tally.groups == 0 or (
        time.perf_counter() - start < seconds or tally.groups < sizes.checked_groups
        if groups is None else tally.groups < groups
    ):
        run_group(tally.groups, make(k, stream, sizes), engines, k, tally, tracer,
                  sizes.checked_groups)
    return tally


# --------------------------------------------------------------------------
# verify_suite


def check_verify_output(code: int, text: str):
    """(sections reported, sections failed) for one verify run."""
    lines = text.splitlines()
    sections = [ln for ln in lines if ln[:6] in ("[PASS]", "[FAIL]", "[WARN]")]
    failed = sum(ln.startswith("[FAIL]") for ln in sections)
    if code != 0 and not failed:
        failed = 1
    # The one expected warning must appear, with its detail lines, as frozen.
    warns = [i for i, ln in enumerate(lines) if ln.startswith("[WARN]")]
    if len(warns) != 1 or tuple(
        ln.strip() for ln in lines[warns[0]:warns[0] + len(EXPECTED_WARN)]
    ) != EXPECTED_WARN:
        failed += 1
    return max(len(sections), 1), failed


def run_verify(k, seed, trials):
    """One in-process verify run: (wall ns, exit code, captured stdout)."""
    argv = ["verify", "--trials", str(trials), "--seed", str(seed)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter_ns()
        code = k.cli.main(argv)
        t1 = time.perf_counter_ns()
    return t1 - t0, code, buf.getvalue()


def run_verify_suite(k, seed, seconds, sizes, runs=None):
    """Verify runs until ``seconds`` have passed (or exactly ``runs``).

    Returns each run's wall time scaled to the reference speed, in ns.
    """
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not walls or (
        time.perf_counter() - start < seconds if runs is None else len(walls) < runs
    ):
        (ns, code, text), scale = timed_at_reference(
            lambda: run_verify(k, seed, sizes.verify_trials))
        walls.append(ns * scale)
        a, f = check_verify_output(code, text)
        attempted += a
        failed += f
    return walls, attempted, failed


# --------------------------------------------------------------------------
# set-up time, in fresh interpreters

# Set-up child: argv[1] is the package's src, argv[2] this directory.  It
# calibrates itself, because the machine's speed differs between cores,
# and imports nothing else before kaluza, so kaluza pays for its imports.
SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[2])
from calibrate import timed_at_reference

def setup():
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import kaluza
    derive = getattr(kaluza, "derive_diagonal_spec", None)
    c0 = time.perf_counter_ns()
    if derive is not None:
        derive()
    c1 = time.perf_counter_ns()
    a, b = kaluza.KaluzaNumber(range(1, 33)), kaluza.KaluzaNumber(range(2, 34))
    got = kaluza.mul_fast(a, kaluza.build_pipeline(b))
    t1 = time.perf_counter()
    return {
        "setup_s": t1 - t0,
        "derive_cold_ns": None if derive is None else c1 - c0,
        "ok": got.coeffs == kaluza.mul_naive(a, b).coeffs,
    }

rec, scale = timed_at_reference(setup)
rec["scale"] = scale
import json
print(json.dumps(rec))
"""

IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)")
LAYER_MODULES = ("cayley", "fixtures", "number", "linops", "fastmul")


def measure_setup(reps: int, importtime: bool = False, root: Path = ROOT):
    """Median set-up over ``reps`` fresh interpreters (one more is discarded).

    Times are scaled to the reference speed each child measured around itself.
    """
    cmd = [sys.executable, "-I"] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CHILD, str(root / "src"), str(Path(__file__).resolve().parent)]
    runs = []
    for _ in range(reps + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = rec["scale"]
        rec["setup_s"] *= scale
        if rec["derive_cold_ns"] is not None:
            rec["derive_cold_ns"] *= scale
        rec["import_us"] = {
            m.group(2): int(m.group(1)) * scale for m in IMPORT_LINE.finditer(proc.stderr)
        }
        runs.append(rec)
    runs = runs[1:]  # the first child may compile bytecode
    out = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "setup_ok": sum(r["ok"] for r in runs),
        "setup_reps": len(runs),
    }
    colds = [r["derive_cold_ns"] for r in runs if r["derive_cold_ns"] is not None]
    out["derive_cold_ns"] = statistics.median(colds) if colds else None
    for mod in LAYER_MODULES:
        vals = [r["import_us"][f"kaluza.{mod}"] for r in runs if f"kaluza.{mod}" in r["import_us"]]
        out[f"{mod}.import_us"] = statistics.median(vals) if len(vals) == len(runs) else None
    return out


# --------------------------------------------------------------------------
# metadata and reporting


def git_revision(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(workload, seed, seconds, trace, sizes, extra):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "nproc": nproc,
        "platform": platform.platform(),
        "reuse_factor": reuse_factor(workload, sizes),
        "loop": "closed, 1 caller, 1 thread",
        "times": f"scaled to the speed at which the calibration product takes {REFERENCE_NS} ns",
        "waiting_and_retries": "none: no layer queues or retries, so no such metric exists",
    }
    meta.update(extra)
    return meta


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def product_metrics(tally: Tally):
    """End-to-end metrics of a product workload: (metrics, notes)."""
    metrics, notes = {}, {}
    for e in ENGINES:
        if not tally.rates[e]:
            raise BenchError(f"no {e} product completed")
        metrics[f"{e}_products_per_s"] = (statistics.median(tally.rates[e]), "1/s")
        notes[f"{e}_products_per_s"] = (
            f"median over {len(tally.rates[e])} groups of products / summed "
            f"product time; {tally.products[e]} products; reference speed"
        )
    note = (f"over all {tally.products['fast']} fast products of the run, from a histogram "
            "with bins 0.14% wide; builds included where paid; reference speed")
    for q, name in ((0.50, "fast_p50_us"), (0.99, "fast_p99_us")):
        metrics[name] = (tally.latency_percentile(q) / 1e3, "us")
        notes[name] = note
    return metrics, notes


def emit(workload, seed, seconds, trace, sizes, metrics, notes, attempted, failed,
         correct, meta_extra):
    """Print the human report, write the record, print the result line last."""
    meta = metadata(workload, seed, seconds, trace, sizes, meta_extra)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        note = notes.get(name)
        print(f"{name} {shown} {unit}" + (f"  # {note}" if note else ""))
    print(f"failed_fraction {failed / max(attempted, 1):.6g} ratio  "
          f"# {failed} of {attempted} checks failed")
    print("waiting/retries: none (no layer queues or retries)")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    try:
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        record = dict(result, meta=meta, notes=notes)
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    except OSError as e:
        print(f"warning: record not written: {e}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return result


# --------------------------------------------------------------------------
# the untraced run


def run_untraced(k, workload, seed, seconds, sizes=Sizes(), engines=None):
    setup = measure_setup(sizes.setup_reps)
    setup_failed = setup["setup_reps"] - setup["setup_ok"]
    metrics = {"setup_s": (setup["setup_s"], "s")}
    notes = {"setup_s": f"median of {setup['setup_reps']} fresh interpreters, "
                        "import kaluza to first mul_fast result; reference speed"}
    if workload == "verify_suite":
        walls, attempted, failed = run_verify_suite(k, seed, seconds, sizes)
        metrics["verify_s"] = (statistics.median(walls) / 1e9, "s")
        notes["verify_s"] = (f"median of {len(walls)} runs, --trials {sizes.verify_trials}; "
                             "reference speed")
        correct = failed == 0
        extra = {"verify_runs": len(walls), "verify_trials": sizes.verify_trials}
    else:
        tally = run_products(k, workload, seed, seconds, sizes, engines)
        m, n = product_metrics(tally)
        metrics.update(m)
        notes.update(n)
        (attempted, failed), correct = tally.counted(), tally.correct
        extra = {
            "groups": tally.groups,
            "checked_groups": min(sizes.checked_groups, tally.groups),
            "products": tally.products,
            "checks_all_groups": tally.attempted,
            "failures": {f"{e}/{c}": v for (e, c), v in sorted(tally.failures.items())},
            "unexpected_failures": tally.unexpected,
            "calibration_ns_median": statistics.median(tally.cal_ns),
        }
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    notes["peak_rss_mib"] = "ru_maxrss of the process running the workload"
    extra.update(setup_reps=setup["setup_reps"], sizes=asdict(sizes))
    return emit(workload, seed, seconds, 0, sizes, metrics, notes,
                attempted + setup["setup_reps"], failed + setup_failed,
                correct and setup_failed == 0, extra)
