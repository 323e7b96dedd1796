"""Command-line front end: multiply, verify, bench, dump.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Every subcommand is deterministic given its arguments and seed; `verify`
in particular emits a byte-identical report for a fixed seed, so its
output can be diffed across runs and machines.  A seed is an integer in
0..2**63 - 1, the range in which kaluza.prng.Stream gives each its own
stream; any other is a usage error.

Operands are given either as a path to a file or inline as a quoted
string; both hold 32 whitespace-separated decimals, with '#' starting a
comment, parsed by KaluzaNumber.from_text.  Non-finite values are
rejected here at the boundary; the library itself lets them propagate.
"""

import argparse
import math
import os
import sys
import time

from .cayley import QUADRANTS, TABLE, dump_table, validate_table
from .codegen import factorized_engine
from .fastmul import (
    ENGINES,
    PAIRING_PERMUTATION,
    build_pipeline,
    compare_printed_diagonal,
    count_operations,
    derive_diagonal_spec,
    mul_fast,
)
from .linops import lane
from .number import (
    KaluzaNumber,
    build_mul_matrix,
    compare_printed_blocks,
    mul_naive,
)
from .prng import SEED_LIMIT, Stream


class _InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _load_operand(arg: str, origin: str) -> KaluzaNumber:
    """Parse a file path or inline text; reject non-finite values."""
    text = arg
    hint = " (if this was meant as a file path, no such file exists)"
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise _InputError(f"{origin}: cannot read {arg}: {e}") from None
        origin, hint = arg, ""
    try:
        x = KaluzaNumber.from_text(text)
    except ValueError as e:
        msg = str(e)
        # the message quotes the bad token; a path-like inline one was meant as a file
        if msg.endswith("is not a decimal number") and os.sep in msg:
            msg += hint
        raise _InputError(f"{origin}: {msg}") from None
    for i, v in enumerate(x.coeffs):
        if not math.isfinite(v):
            raise _InputError(f"{origin}: coefficient {i}: non-finite value {v!r}")
    return x


def _cmd_multiply(args) -> int:
    a = _load_operand(args.left, "operand 1")
    b = _load_operand(args.right, "operand 2")
    results = []
    for engine in ("naive", "fast") if args.engine == "both" else (args.engine,):
        prepare, multiply = ENGINES[engine]
        results.append(multiply(a, b if prepare is None else prepare(b)))
    for x in results:
        print(x.to_text())
    if len(results) == 2:
        diff = _max_error(x - y for x, y in zip(*(r.coeffs for r in results)))
        print(f"max abs difference: {diff:.17g}")
    return 0


def _fast_differs(a: KaluzaNumber, b: KaluzaNumber) -> bool:
    """Whether the fast product a * b differs from the direct one."""
    return mul_fast(a, build_pipeline(b)).coeffs != mul_naive(a, b).coeffs


def _max_error(diffs) -> float:
    """The largest magnitude among diffs, or NaN if one of them is NaN.

    max() keeps its running value when it meets a NaN, so without the
    check an engine that returned NaN would pass a tolerance.
    """
    worst = 0.0
    for d in diffs:
        if math.isnan(d):
            return d
        worst = max(worst, abs(d))
    return worst


def _fast_rel_error(a: KaluzaNumber, b: KaluzaNumber) -> float:
    """Largest slot error of the fast product against the direct one,
    relative to the direct product's largest magnitude."""
    got = mul_fast(a, build_pipeline(b)).coeffs
    want = mul_naive(a, b).coeffs
    return _max_error(x - y for x, y in zip(got, want)) / (max(map(abs, want)) or 1.0)


def _cmd_verify(args) -> int:
    trials, seed = args.trials, args.seed
    lines: list[str] = []

    def report(ok: bool, text: str, warn: bool = False):
        lines.append(f"[{'PASS' if ok else 'WARN' if warn else 'FAIL'}] {text}")

    # 1. table invariants
    problems = validate_table(TABLE)
    report(
        not problems,
        "basis table: identity row/column, signed permutations, unit squares"
        + ("" if not problems else f" ({len(problems)} violations)"),
    )
    for p in problems[:10]:
        lines.append(f"         {p}")

    basis = [KaluzaNumber.basis(i) for i in range(32)]

    # 2. all 1024 basis products, fast against direct, bit-exact
    bad_pairs = sum(_fast_differs(a, b) for b in basis for a in basis)
    report(
        bad_pairs == 0,
        f"basis products: fast equals direct on all 1024 pairs"
        + ("" if bad_pairs == 0 else f" ({bad_pairs} differ)"),
    )

    # 3. structural properties of the factorization
    report(
        PAIRING_PERMUTATION.is_involution(),
        "pairing permutation: self-inverse on all 32 indices",
    )
    try:
        derive_diagonal_spec()
        report(True, "permuted matrix: all 256 2x2 blocks bisymmetric")
    except ValueError as e:
        report(False, f"permuted matrix: {e}")

    # 4. factorization identity: dense chain vs direct matrix
    stream = Stream(seed)
    operands = basis + [KaluzaNumber(stream.coeffs_real()) for _ in range(20)]
    worst = _max_error(
        x - y
        for b in operands
        for dense_row, direct_row in zip(build_pipeline(b).materialize(), build_mul_matrix(b))
        for x, y in zip(dense_row, direct_row)
    )
    report(
        worst <= 1e-12,
        f"factorization: dense chain matches direct matrix for 32 basis "
        f"and 20 random operands (max abs error {worst:.3g})",
    )

    # 5. concordance with the transcribed renderings (typo report, not failure)
    for label, where, mismatches in (
        ("multiplication matrix", "row {}, column {}", compare_printed_blocks()),
        ("diagonal tables", "block {}, slot {}", compare_printed_diagonal()),
    ):
        report(
            not mismatches,
            f"rendering check, {label}: {len(mismatches)} mismatches"
            + (" (basis table is authoritative)" if mismatches else ""),
            warn=True,
        )
        for i, j, d, p in mismatches:
            lines.append(f"         {where.format(i, j)}: derived {d}, printed {p}")

    # 6. operation counts
    cn = count_operations("naive")
    cf = count_operations("fast")
    cf0 = count_operations("fast", include_preprocessing=False)
    report(
        cn.as_tuple() == (1024, 992) and cf.as_tuple() == (512, 576),
        f"operation counts: naive: {cn.multiplications} mul, {cn.additions} add; "
        f"fast: {cf.multiplications} mul, {cf.additions} add",
    )
    report(
        cf0.as_tuple() == (512, 544),
        f"operation counts: fast without preprocessing: "
        f"{cf0.multiplications} mul, {cf0.additions} add",
    )

    # 7. random equivalence, integer then real, both from the same stream
    def random_pairs(draw):
        for _ in range(trials):
            yield KaluzaNumber(draw()), KaluzaNumber(draw())

    bad = sum(_fast_differs(a, b) for a, b in random_pairs(stream.coeffs_int))
    report(
        bad == 0,
        f"random products, integer coefficients: {trials} trials bit-exact "
        f"(seed {seed})" + ("" if bad == 0 else f", {bad} differ"),
    )
    worst = _max_error(_fast_rel_error(a, b) for a, b in random_pairs(stream.coeffs_real))
    report(
        worst <= 1e-12,
        f"random products, real coefficients: {trials} trials within 1e-12 "
        f"relative (seed {seed}, max {worst:.3g})",
    )

    failed = any(line.startswith("[FAIL]") for line in lines)
    lines.append("result: " + ("FAIL" if failed else "PASS"))
    print("\n".join(lines))
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    reps, seed = args.reps, args.seed
    stream = Stream(seed)
    pairs = [
        (KaluzaNumber(stream.coeffs_real()), KaluzaNumber(stream.coeffs_real()))
        for _ in range(reps)
    ]
    # An engine that prepares its right operand has two rows: reuse, prepared
    # once from the first pair, and rebuild, prepared per product, whose
    # (muls, adds) count the preparation too.  The counts come from
    # count_operations, before the timed loop.
    results = {}
    for engine, (prepare, multiply) in ENGINES.items():
        if prepare is None:
            products = {"direct": multiply}
        else:
            pre = prepare(pairs[0][1])
            products = {
                "reuse": lambda a, b: multiply(a, pre),
                "rebuild": lambda a, b: multiply(a, prepare(b)),
            }
        for mode, product in products.items():
            counts = count_operations(engine, include_preprocessing=mode == "rebuild").as_tuple()
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                product(a, b)
            results[engine, mode] = (time.perf_counter_ns() - t0, counts)

    if args.format == "csv":
        print("engine,mode,reps,total_ns,mean_ns,muls,adds")
        line = "{},{},{},{},{:.1f},{},{}"
    else:
        print(f"{'engine':<8}{'mode':<10}{'reps':>8}{'total_ns':>14}"
              f"{'mean_ns':>12}{'muls':>6}{'adds':>6}")
        line = "{:<8}{:<10}{:>8}{:>14}{:>12.1f}{:>6}{:>6}"
    for (engine, mode), (total, (muls, adds)) in results.items():
        print(line.format(engine, mode, reps, total, total / reps, muls, adds))
    if args.format == "text":
        naive, fast = results["naive", "direct"][0], results["fast", "reuse"][0]
        ratio = naive / fast if fast else float("inf")
        print(f"wall-clock naive/fast(reuse): {ratio:.2f}x (reported, not asserted)")
    return 0


def _fmt_matrix(rows) -> str:
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in rows)


def _dense(stage, width: int) -> list[list[int]]:
    """Entry (i, j), j < width, of a stage is the sign of row i's reference
    to input j, or 0."""
    signs = [{j: s for s, j in row} for row in stage.rows]
    return [[row.get(j, 0) for j in range(width)] for row in signs]


def _cmd_dump(args) -> int:
    what = args.what
    if what in ("table-quadrant", "factors"):
        if args.operand is not None:
            raise _InputError(f"dump {what}: takes no operand")
    elif args.operand is None:
        raise _InputError(f"dump {what}: an operand is required")
    if what == "table-quadrant":
        print(dump_table(args.quadrant))
        return 0
    if what == "mul-matrix":
        print(_fmt_matrix(build_mul_matrix(_load_operand(args.operand, "operand"))))
        return 0
    # The rest print factorized_engine()'s stages, with the 512 lanes block
    # by block: row (column) 32k + m is lane(k, m).
    engine = factorized_engine()
    blocks = [lane(k, m) for k in range(16) for m in range(32)]
    if what == "factors":
        permute, butterfly, replicate = (_dense(stage, 32) for stage in engine.a_stages)
        fan_in = _dense(engine.out_stages[0], engine.rank)
        print(
            "# chain: permute -> hadamard-pairs -> replicate -> diagonal(b) "
            "-> fan-in -> hadamard-pairs -> permute"
        )
        for name, m in (
            ("permute", permute),
            ("hadamard-pairs", butterfly),
            ("replicate", [replicate[i] for i in blocks]),
            ("fan-in", [[row[i] for i in blocks] for row in fan_in]),
        ):
            print(f"# {name} {len(m)}x{len(m[0])}")
            print(_fmt_matrix(m))
    else:  # diagonal: the signed c-value that each lane picks
        signed_c = build_pipeline(_load_operand(args.operand, "operand")).signed_c
        lanes = [s * signed_c[i] for ((s, i),) in engine.b_stages[-1].rows]
        for k in range(16):
            print(f"block {k}: " + " ".join(f"{lanes[i]:.17g}" for i in blocks[32 * k:32 * k + 32]))
    return 0


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:  # not an integer: the message of one out of range
        v = 0
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _seed(text: str) -> int:
    try:
        v = int(text)
    except ValueError:  # not an integer: the message of one out of range
        v = -1
    if not 0 <= v < SEED_LIMIT:
        raise argparse.ArgumentTypeError("must be an integer in 0..2**63 - 1")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaluza",
        description="Multiply 32-dimensional Kaluza numbers and inspect "
        "the factorized fast multiplication pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="multiply two Kaluza numbers")
    p.add_argument("left", help="left operand: file path or 32 inline decimals")
    p.add_argument("right", help="right operand: file path or 32 inline decimals")
    p.add_argument(
        "--engine",
        choices=("naive", "fast", "both"),
        default="fast",
        help="with 'both', prints the naive result line, the fast result "
        "line, then their max absolute difference",
    )
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--trials", type=_positive_int, default=10000,
                   help="random products per equivalence section")
    p.add_argument("--seed", type=_seed, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "bench",
        help="time and count each engine's products over random pairs; an "
        "engine that prepares its right operand both reuses and rebuilds it",
    )
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("dump", help="print the algebra's structures as text")
    p.add_argument(
        "what", choices=("table-quadrant", "mul-matrix", "factors", "diagonal")
    )
    p.add_argument(
        "operand",
        nargs="?",
        help="right operand, required for mul-matrix and diagonal",
    )
    p.add_argument("--quadrant", choices=QUADRANTS, default="NW")
    p.set_defaults(func=_cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader went away mid-dump (e.g. piped to head); suppress the
        # shutdown flush on the dead descriptor and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
