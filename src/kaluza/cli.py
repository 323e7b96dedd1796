"""Command-line front end: multiply, verify, bench, dump.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Every subcommand is deterministic given its arguments and seed; `verify`
in particular emits a byte-identical report for a fixed seed, so its
output can be diffed across runs and machines.

Operands are given either as a path to a file or inline as a quoted
string; both hold 32 whitespace-separated decimals, with '#' starting a
comment, parsed by KaluzaNumber.from_text.  Non-finite values are
rejected here at the boundary; the library itself lets them propagate.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .cayley import QUADRANTS, TABLE, dump_table, validate_table
from .fastmul import (
    PAIRING_PERMUTATION,
    build_pipeline,
    compare_printed_diagonal,
    compute_c,
    count_operations,
    derive_diagonal_spec,
    mul_fast,
)
from .linops import (
    apply_permutation,
    fan_in_sum,
    hadamard_pairs,
    materialize,
    replicate_pairs,
)
from .number import (
    KaluzaNumber,
    build_mul_matrix,
    compare_printed_blocks,
    mul_dense,
    mul_naive,
)
from .prng import Stream


class _InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _load_operand(arg: str, origin: str) -> KaluzaNumber:
    """Parse a file path or inline text; reject non-finite values."""
    text = arg
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise _InputError(f"{origin}: cannot read {arg}: {e}") from None
        origin = arg
    try:
        x = KaluzaNumber.from_text(text)
    except ValueError as e:
        msg = str(e)
        # the message quotes the bad token; a path-like one was meant as a file
        if msg.endswith("is not a decimal number") and os.sep in msg:
            msg += " (if this was meant as a file path, no such file exists)"
        raise _InputError(f"{origin}: {msg}") from None
    for i, v in enumerate(x.coeffs):
        if not math.isfinite(v):
            raise _InputError(f"{origin}: coefficient {i}: non-finite value {v!r}")
    return x


def _cmd_multiply(args) -> int:
    a = _load_operand(args.left, "operand 1")
    b = _load_operand(args.right, "operand 2")
    if args.engine in ("naive", "both"):
        dn = mul_naive(a, b)
    if args.engine in ("fast", "both"):
        df = mul_fast(a, build_pipeline(b))
    if args.engine == "naive":
        print(dn.to_text())
    elif args.engine == "fast":
        print(df.to_text())
    else:
        print(dn.to_text())
        print(df.to_text())
        diff = max(abs(x - y) for x, y in zip(dn.coeffs, df.coeffs))
        print(f"max abs difference: {diff:.17g}")
    return 0


def _basis_numbers():
    return [KaluzaNumber.basis(i) for i in range(32)]


def _vector_rel_error(got: KaluzaNumber, want: KaluzaNumber) -> float:
    scale = max(abs(v) for v in want.coeffs) or 1.0
    return max(abs(x - y) for x, y in zip(got.coeffs, want.coeffs)) / scale


def _cmd_verify(args) -> int:
    trials, seed = args.trials, args.seed
    failed = False
    lines: list[str] = []

    def report(ok: bool, text: str, warn: bool = False):
        nonlocal failed
        if ok:
            lines.append(f"[PASS] {text}")
        elif warn:
            lines.append(f"[WARN] {text}")
        else:
            lines.append(f"[FAIL] {text}")
            failed = True

    # 1. table invariants
    problems = validate_table(TABLE)
    report(
        not problems,
        "basis table: identity row/column, signed permutations, unit squares"
        + ("" if not problems else f" ({len(problems)} violations)"),
    )
    for p in problems[:10]:
        lines.append(f"         {p}")

    basis = _basis_numbers()

    # 2. all 1024 basis products, fast against direct, bit-exact
    bad_pairs = 0
    for b in basis:
        pipe = build_pipeline(b)
        for a in basis:
            if mul_fast(a, pipe).coeffs != mul_naive(a, b).coeffs:
                bad_pairs += 1
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
    worst = 0.0
    for b in operands:
        dense = build_pipeline(b).materialize()
        direct = build_mul_matrix(b).rows
        err = max(
            abs(dense[r][c] - direct[r][c]) for r in range(32) for c in range(32)
        )
        worst = max(worst, err)
    report(
        worst <= 1e-12,
        f"factorization: dense chain matches direct matrix for 32 basis "
        f"and 20 random operands (max abs error {worst:.3g})",
    )

    # 5. concordance with the transcribed renderings (typo report, not failure)
    bm = compare_printed_blocks()
    report(
        len(bm) == 0,
        f"rendering check, multiplication matrix: {len(bm)} mismatches"
        + ("" if not bm else " (basis table is authoritative)"),
        warn=True,
    )
    for r, c, d, p in bm:
        lines.append(f"         row {r}, column {c}: derived {d}, printed {p}")
    dm = compare_printed_diagonal()
    report(
        len(dm) == 0,
        f"rendering check, diagonal tables: {len(dm)} mismatches"
        + ("" if not dm else " (basis table is authoritative)"),
        warn=True,
    )
    for k, m, d, p in dm:
        lines.append(f"         block {k}, slot {m}: derived {d}, printed {p}")

    # 6. operation counts
    cn = count_operations("naive")
    cf = count_operations("fast")
    cf0 = count_operations("fast", include_preprocessing=False)
    ok_counts = (
        cn.as_tuple() == (1024, 992)
        and cf.as_tuple() == (512, 576)
        and cf0.as_tuple() == (512, 544)
    )
    report(
        ok_counts,
        f"operation counts: naive: {cn.multiplications} mul, {cn.additions} add; "
        f"fast: {cf.multiplications} mul, {cf.additions} add",
    )
    report(
        cf0.as_tuple() == (512, 544),
        f"operation counts: fast without preprocessing: "
        f"{cf0.multiplications} mul, {cf0.additions} add",
    )

    # 7. random equivalence, integer then real, both from the same stream
    bad = 0
    for _ in range(trials):
        a = KaluzaNumber(stream.coeffs_int())
        b = KaluzaNumber(stream.coeffs_int())
        if mul_fast(a, build_pipeline(b)).coeffs != mul_naive(a, b).coeffs:
            bad += 1
    report(
        bad == 0,
        f"random products, integer coefficients: {trials} trials bit-exact "
        f"(seed {seed})" + ("" if bad == 0 else f", {bad} differ"),
    )
    worst = 0.0
    for _ in range(trials):
        a = KaluzaNumber(stream.coeffs_real())
        b = KaluzaNumber(stream.coeffs_real())
        worst = max(
            worst, _vector_rel_error(mul_fast(a, build_pipeline(b)), mul_naive(a, b))
        )
    report(
        worst <= 1e-12,
        f"random products, real coefficients: {trials} trials within 1e-12 "
        f"relative (seed {seed}, max {worst:.3g})",
    )

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
    b_fixed = pairs[0][1]
    matrix = build_mul_matrix(b_fixed)
    pipe = build_pipeline(b_fixed)
    rows = [
        ("naive", "direct", 1024, 992, mul_naive),
        ("dense", "reuse", 1024, 992, lambda a, b: mul_dense(a, matrix)),
        ("dense", "rebuild", 1024, 992, lambda a, b: mul_dense(a, build_mul_matrix(b))),
        ("fast", "reuse", 512, 544, lambda a, b: mul_fast(a, pipe)),
        ("fast", "rebuild", 512, 576, lambda a, b: mul_fast(a, build_pipeline(b))),
    ]
    totals = []
    for *_, product in rows:
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            product(a, b)
        totals.append(time.perf_counter_ns() - t0)

    if args.format == "csv":
        print("engine,mode,reps,total_ns,mean_ns,muls,adds")
        line = "{},{},{},{},{:.1f},{},{}"
    else:
        print(f"{'engine':<8}{'mode':<10}{'reps':>8}{'total_ns':>14}"
              f"{'mean_ns':>12}{'muls':>6}{'adds':>6}")
        line = "{:<8}{:<10}{:>8}{:>14}{:>12.1f}{:>6}{:>6}"
    for (engine, mode, muls, adds, _), total in zip(rows, totals):
        print(line.format(engine, mode, reps, total, total / reps, muls, adds))
    if args.format == "text":
        ratio = totals[0] / totals[3] if totals[3] else float("inf")  # naive / fast reuse
        print(f"wall-clock naive/fast(reuse): {ratio:.2f}x (reported, not asserted)")
    return 0


def _fmt_matrix(rows) -> str:
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in rows)


def _cmd_dump(args) -> int:
    what = args.what
    if what == "table-quadrant":
        print(dump_table(TABLE, args.quadrant))
        return 0
    if what == "factors":
        factors = [
            ("permute", lambda x: apply_permutation(PAIRING_PERMUTATION, x), 32),
            ("hadamard-pairs", hadamard_pairs, 32),
            ("replicate", replicate_pairs, 32),
            ("fan-in", fan_in_sum, 512),
        ]
        print(
            "# chain: permute -> hadamard-pairs -> replicate -> diagonal(b) "
            "-> fan-in -> hadamard-pairs -> permute"
        )
        for name, fn, n_in in factors:
            m = materialize(fn, n_in)
            print(f"# {name} {len(m)}x{len(m[0])}")
            print(_fmt_matrix(m))
        return 0
    # the remaining dumps need a right operand
    if args.operand is None:
        raise _InputError(f"dump {what}: an operand is required")
    b = _load_operand(args.operand, "operand")
    if what == "mul-matrix":
        print(_fmt_matrix(build_mul_matrix(b).rows))
    else:  # diagonal
        c = compute_c(b)
        values = derive_diagonal_spec().materialize(c)
        for k in range(16):
            row = values[32 * k : 32 * (k + 1)]
            print(f"block {k}: " + " ".join(f"{v:.17g}" for v in row))
    return 0


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _unsigned_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
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
    p.add_argument("--seed", type=_unsigned_int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time both engines over random products")
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_unsigned_int, default=1)
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
