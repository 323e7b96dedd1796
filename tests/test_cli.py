"""CLI behavior through main(), including exit codes and report shape."""

import hashlib
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kaluza.cli
from kaluza.cayley import VERBATIM_TABLE, CayleyTable
from kaluza.cli import main
from kaluza.linops import Permutation32
from kaluza.number import KaluzaNumber


def vec(index: int, scale: str = "1") -> str:
    parts = ["0"] * 32
    parts[index] = scale
    return " ".join(parts)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_multiply_basis_elements_inline(capsys):
    code, out, _ = run(capsys, "multiply", vec(1), vec(2))
    assert code == 0
    tokens = out.strip().split()
    assert len(tokens) == 32
    assert tokens[6] == "1"
    assert all(t == "0" for i, t in enumerate(tokens) if i != 6)


def test_multiply_single_engine_results_agree(capsys):
    left, right = "1 " * 32, " ".join(str(i) for i in range(32))
    _, out_naive, _ = run(capsys, "multiply", left, right, "--engine", "naive")
    _, out_fast, _ = run(capsys, "multiply", left, right, "--engine", "fast")
    assert out_naive.strip().split() == out_fast.strip().split()


def test_multiply_both_engines_prints_both_lines_and_zero_difference(capsys):
    code, out, _ = run(capsys, "multiply", vec(0), vec(5, "3.5"), "--engine", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == lines[1]
    assert lines[2] == "max abs difference: 0"


def test_multiply_both_engines_reports_a_nan_difference(capsys):
    # The fast engine's range defect: 14 of its slots are NaN and others
    # inf, where the naive product is finite.  Builtin max skips the NaN
    # differences, so the line used to read inf.
    left = [0] * 32
    for i in (0, 8, 12, 18, 20, 21, 28, 30):
        left[i] = 1
    for i in (17, 26, 27):
        left[i] = -1
    right = ["0"] * 30 + ["9e307", "-1.7e308"]
    code, out, _ = run(
        capsys, "multiply", " ".join(map(str, left)), " ".join(right), "--engine", "both"
    )
    assert code == 0
    assert out.splitlines()[2] == "max abs difference: nan"


def test_multiply_reads_operand_files_with_comments(tmp_path, capsys):
    f = tmp_path / "left.txt"
    f.write_text("# left operand\n" + vec(1) + "  # basis\n")
    code, out, _ = run(capsys, "multiply", str(f), vec(2))
    assert code == 0
    assert out.strip().split()[6] == "1"


def test_multiply_rejects_31_values(tmp_path, capsys):
    f = tmp_path / "short.txt"
    f.write_text(" ".join(["1"] * 31) + "\n")
    code, _, err = run(capsys, "multiply", str(f), vec(0))
    assert code == 2
    assert "expected 32 values, found 31" in err


def test_multiply_rejects_a_33rd_value(capsys):
    code, _, err = run(capsys, "multiply", "1 " * 33, vec(0))
    assert code == 2
    assert "33rd value" in err


def test_multiply_rejects_non_finite_values(capsys):
    code, _, err = run(capsys, "multiply", vec(3, "nan"), vec(0))
    assert code == 2
    assert "non-finite" in err
    code, _, err = run(capsys, "multiply", vec(3, "inf"), vec(0))
    assert code == 2
    code, _, err = run(capsys, "multiply", vec(0), vec(31, "-inf"))
    assert code == 2
    assert "operand 2: coefficient 31: non-finite value -inf" in err


def test_parse_errors_carry_line_and_column(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\nx 0\n")
    code, _, err = run(capsys, "multiply", str(f), vec(0))
    assert code == 2
    assert "line 2, column 1" in err
    assert "'x'" in err


def test_undecodable_operand_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"\xff " + vec(0).encode())
    code, _, err = run(capsys, "multiply", str(f), vec(0))
    assert code == 2
    assert f"operand 1: cannot read {f}: 'utf-8' codec can't decode" in err


def test_missing_operand_file_reads_as_a_failed_inline_parse(capsys):
    code, _, err = run(capsys, "multiply", "no/such/file.txt", vec(0))
    assert code == 2
    assert "not a decimal number" in err


def test_operand_file_with_a_slashed_token_gets_no_missing_file_hint(tmp_path, capsys):
    f = tmp_path / "half.txt"
    f.write_text("1/2 " + " ".join(["0"] * 31) + "\n")
    code, _, err = run(capsys, "multiply", str(f), vec(0))
    assert code == 2
    assert err == f"error: {f}: line 1, column 1: '1/2' is not a decimal number\n"


def test_empty_operand_reports_no_location(capsys):
    code, _, err = run(capsys, "multiply", "", vec(0))
    assert code == 2
    assert err == "error: operand 1: expected 32 values, found 0\n"


def test_directory_operand_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "multiply", str(tmp_path), vec(0))
    assert code == 2
    assert f"cannot read {tmp_path}:" in err


def test_verify_small_run_passes_and_is_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--trials", "60", "--seed", "9")
    assert code == 0
    code2, out2, _ = run(capsys, "verify", "--trials", "60", "--seed", "9")
    assert code2 == 0
    assert out1 == out2  # byte-identical for a fixed seed
    assert "naive: 1024 mul, 992 add; fast: 512 mul, 576 add" in out1
    assert "fast without preprocessing: 512 mul, 544 add" in out1
    assert out1.strip().endswith("result: PASS")


def test_verify_reports_the_diagonal_rendering_mismatches_as_warnings(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "1")
    assert code == 0  # warnings do not fail the run
    assert "[WARN] rendering check, diagonal tables: 4 mismatches" in out
    assert "block 1, slot 18: derived c23, printed -c22" in out
    assert "block 1, slot 19: derived c22, printed -c23" in out
    assert "block 12, slot 28: derived c11, printed c10" in out
    assert "block 12, slot 29: derived c10, printed c11" in out
    assert "[PASS] rendering check, multiplication matrix: 0 mismatches" in out
    assert "[FAIL]" not in out


def _slot_5(selects, wrong):
    """Patches cli's mul_fast: slot 5 becomes wrong(slot 5) in the products
    whose left operand's coefficients `selects` picks."""
    def patch(mul_fast):
        def product(a, pipe):
            out = mul_fast(a, pipe).coeffs
            return KaluzaNumber(out[:5] + (wrong(out[5]),) + out[6:] if selects(a.coeffs) else out)
        return product
    return patch


def _extra_counts(extra):
    """Patches cli's count_operations: extra(engine, include_preprocessing)
    more (multiplications, additions) on each tally."""
    def patch(count_operations):
        def counts(engine, include_preprocessing=True):
            counter = count_operations(engine, include_preprocessing)
            counter.count(*extra(engine, include_preprocessing))
            return counter
        return counts
    return patch


def _entry_3_7(wrong):
    """Patches cli's build_mul_matrix: entry (3, 7) becomes wrong(entry)."""
    def patch(build_mul_matrix):
        def rows(b):
            m = [list(row) for row in build_mul_matrix(b)]
            m[3][7] = wrong(m[3][7])
            return m
        return rows
    return patch


def _cell_0_3(table):
    rows = [list(r) for r in table.entries]
    rows[0][3] = (1, 4)
    return CayleyTable(rows)


# One case per [PASS]/[FAIL] check of `verify`, each wrong in one input: the
# name patched in kaluza.cli, the patch (a function of the name's value), the
# trials, and the one [FAIL] line the run must give.
VERIFY_FAILURES = {
    "table": ("TABLE", _cell_0_3, 1,
              "basis table: identity row/column, signed permutations, unit squares (3 violations)"),
    "basis": ("mul_fast", _slot_5(lambda c: c.count(0.0) == 31, lambda v: v + 1.0), 1,
              "basis products: fast equals direct on all 1024 pairs (1024 differ)"),
    "involution": ("PAIRING_PERMUTATION", lambda p: Permutation32([1, 2, 0, *range(3, 32)]), 1,
                   "pairing permutation: self-inverse on all 32 indices"),
    "bisymmetry": ("derive_diagonal_spec", lambda derive: lambda: derive(VERBATIM_TABLE), 1,
                   "permuted matrix: block (9, 1) of the permuted matrix is not bisymmetric: "
                   "[[-b22, -b26], [-b26, b22]]"),
    "factorization": ("build_mul_matrix", _entry_3_7(lambda v: v + 1.0), 1,
                      "factorization: dense chain matches direct matrix for 32 basis and 20 "
                      "random operands (max abs error 1)"),
    "factorization-nan": ("build_mul_matrix", _entry_3_7(lambda v: math.nan), 1,
                          "factorization: dense chain matches direct matrix for 32 basis and 20 "
                          "random operands (max abs error nan)"),
    "counts": ("count_operations", _extra_counts(lambda engine, prep: (int(engine == "naive"), 0)), 1,
               "operation counts: naive: 1025 mul, 992 add; fast: 512 mul, 576 add"),
    "counts-per-product": ("count_operations", _extra_counts(lambda engine, prep: (0, int(not prep))), 1,
                           "operation counts: fast without preprocessing: 512 mul, 545 add"),
    "integer": ("mul_fast", _slot_5(lambda c: c.count(0.0) < 31 and all(map(float.is_integer, c)),
                                    lambda v: v + 1.0), 1,
                "random products, integer coefficients: 1 trials bit-exact (seed 1), 1 differ"),
    "real": ("mul_fast", _slot_5(lambda c: not all(map(float.is_integer, c)), lambda v: v + 1e-9), 1,
             "random products, real coefficients: 1 trials within 1e-12 relative (seed 1, max 3.23e-10)"),
    # slot 5, not 0: a plain max() skips a NaN that does not come first
    "real-nan": ("mul_fast", _slot_5(lambda c: not all(map(float.is_integer, c)), lambda v: math.nan), 50,
                 "random products, real coefficients: 50 trials within 1e-12 relative (seed 1, max nan)"),
}


@pytest.mark.parametrize("case", VERIFY_FAILURES)
def test_verify_fails_each_check_on_a_wrong_input(capsys, monkeypatch, case):
    name, patch, trials, fail = VERIFY_FAILURES[case]
    monkeypatch.setattr(kaluza.cli, name, patch(getattr(kaluza.cli, name)))
    code, out, _ = run(capsys, "verify", "--trials", str(trials), "--seed", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [f"[FAIL] {fail}"]
    assert out.strip().endswith("result: FAIL")


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "1.5"):
        code, _, err = run(capsys, "verify", "--trials", trials)
        assert code == 2, trials
        assert err.endswith("must be a positive integer\n"), trials


def test_bench_csv_shape_and_counts(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "5", "--seed", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "engine,mode,reps,total_ns,mean_ns,muls,adds"
    rows = [line.split(",") for line in lines[1:]]
    counts = {(r[0], r[1]): (r[5], r[6]) for r in rows}
    expected = {
        ("naive", "direct"): ("1024", "992"),
        ("dense", "reuse"): ("1024", "992"),
        ("dense", "rebuild"): ("1024", "992"),
        ("fast", "reuse"): ("512", "544"),
        ("fast", "rebuild"): ("512", "576"),
    }
    assert len(rows) == len(expected)
    assert list(counts.items()) == list(expected.items())
    for r in rows:
        reps, total, mean = int(r[2]), int(r[3]), float(r[4])
        assert reps == 5
        assert abs(mean * reps - total) <= 0.01 * total + 1


def test_bench_text_reports_wall_clock_without_asserting_it(capsys):
    code, out, _ = run(capsys, "bench", "--reps", "3")
    assert code == 0
    assert "wall-clock" in out
    assert "reported, not asserted" in out


def test_dump_table_quadrants(capsys):
    code, out, _ = run(capsys, "dump", "table-quadrant")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0].split()[0] == "1"
    assert lines[1].split()[2] == "e6"
    code, out, _ = run(capsys, "dump", "table-quadrant", "--quadrant", "SE")
    assert out.strip().splitlines()[15].split()[15] == "-1"


def test_dump_mul_matrix_of_e1(capsys):
    code, out, _ = run(capsys, "dump", "mul-matrix", vec(1))
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 32 and all(len(r) == 32 for r in rows)
    assert rows[0][1] == "1"
    assert rows[6][2] == "-1"


def test_dump_diagonal_of_one_starts_with_halves(capsys):
    code, out, _ = run(capsys, "dump", "diagonal", vec(0))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("block 0: 0.5 0.5 0 ")


def _dumped(out, header, rows):
    """The token grid of the matrix that follows header in a dump."""
    lines = out.splitlines()
    start = lines.index(header) + 1
    grid = [line.split() for line in lines[start : start + rows]]
    assert len(grid) == rows
    return grid


def test_dump_factors_includes_a_symmetric_permutation_matrix(capsys):
    code, out, _ = run(capsys, "dump", "factors")
    assert code == 0
    grid = _dumped(out, "# permute 32x32", 32)
    for r in range(32):
        assert sorted(grid[r]) == ["0"] * 31 + ["1"]
        for c in range(32):
            assert grid[r][c] == grid[c][r]
    # sixteen copies of H2 = [[1, 1], [1, -1]] on the diagonal
    h2 = [["1", "1"], ["1", "-1"]]
    for r, row in enumerate(_dumped(out, "# hadamard-pairs 32x32", 32)):
        assert row == [h2[r % 2][c % 2] if r // 2 == c // 2 else "0" for c in range(32)]
    # row 32k+m copies pair member 2k + m%2
    for r, row in enumerate(_dumped(out, "# replicate 512x32", 512)):
        k, m = divmod(r, 32)
        assert row == ["1" if c == 2 * k + m % 2 else "0" for c in range(32)]
    # row m sums columns 32k+m
    for m, row in enumerate(_dumped(out, "# fan-in 32x512", 32)):
        assert row == ["1" if c % 32 == m else "0" for c in range(512)]


# -0.0, the smallest subnormal and a value whose square overflows, then 1..29
FROZEN_OPERAND = "-0.0 5e-324 1e300 " + " ".join(str(i) for i in range(1, 30))
# sha256 of stdout; any change to these outputs has to be made on purpose
FROZEN_SHA256 = {
    ("dump", "factors"):
        "feb632ce7dc084d9766a7e6b27e345a01f09e1c1ceb045912b0c5a605ec0cf69",
    ("dump", "mul-matrix", FROZEN_OPERAND):
        "f9956b4c4df4c7a03cf0464948078163c1d649b053462a9099ba8a955ec2236f",
    ("dump", "diagonal", FROZEN_OPERAND):
        "7e3e4c8be2feff4ce103f2f40a1ae89bbba04b20225d86b23db81d3e928fbdea",
    ("multiply", FROZEN_OPERAND, FROZEN_OPERAND, "--engine", "both"):
        "1fec92093fa424c5078a466e00a74c4ad4f9b89b6b53f01283767e34a2e5fc2b",
    ("multiply", FROZEN_OPERAND, FROZEN_OPERAND, "--engine", "naive"):
        "4a1fa31211a5bac96057fb15362c9d3eb5f9bb84e88d40351d59b067628d6287",
    ("multiply", FROZEN_OPERAND, FROZEN_OPERAND, "--engine", "fast"):
        "35b1a03c66b3e373b42a7d1e0b0e4ae77292a2c31131ed34995b5af10b6762c6",
    ("dump", "table-quadrant", "--quadrant", "NW"):
        "543963c94a8b414d2920798624fddd841907fd844f606985f17c78cfcd006efe",
    ("dump", "table-quadrant", "--quadrant", "NE"):
        "72c427e245fa8406dd5e6b6963be9f75668cf44e54e2e1f7507c294483529963",
    ("dump", "table-quadrant", "--quadrant", "SW"):
        "ceac72a725d65bcf91d78c6b325b39774f4b93221a513a935c642f41a9bb77df",
    ("dump", "table-quadrant", "--quadrant", "SE"):
        "7d28e330233cb9cc9e6426db84df4d4fb992ca51748bdcf889144953086c7840",
}


def test_dump_and_multiply_outputs_keep_their_frozen_sha256(capsys):
    got = {}
    for argv in FROZEN_SHA256:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        got[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert got == FROZEN_SHA256


def test_a_reader_that_goes_away_mid_dump_ends_it_quietly():
    # dump factors prints 69,824 bytes, more than a pipe holds, so the child
    # is still writing when the reader closes its end after one line
    env = dict(os.environ, PYTHONPATH=str(Path(kaluza.cli.__file__).resolve().parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "kaluza.cli", "dump", "factors"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    ) as child:
        assert child.stdout.readline().startswith(b"# chain: ")
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (0, b"")


def test_dump_takes_an_operand_exactly_when_it_needs_one(capsys):
    for what in ("mul-matrix", "diagonal"):
        code, _, err = run(capsys, "dump", what)
        assert code == 2
        assert "operand is required" in err
    # an operand that a dump never reads is refused, not ignored
    for argv in (("factors", "not a number"), ("table-quadrant", "/nonexistent")):
        code, out, err = run(capsys, "dump", *argv)
        assert (code, out, err) == (2, "", f"error: dump {argv[0]}: takes no operand\n")


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("seed", [2**63, -1, "abc"])
def test_a_seed_outside_the_stream_range_is_a_usage_error(capsys, command, seed):
    code, out, err = run(capsys, command, "--trials" if command == "verify" else "--reps", "1",
                         f"--seed={seed}")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --seed: must be an integer in 0..2**63 - 1\n")


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_console_script_is_cli_main(capsys):
    # README's usage runs the installed `kaluza` command; pyproject.toml names
    # its target, read with a regex because tomllib is 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    script = re.search(r'^\[project\.scripts\]\nkaluza = "([\w.]+):(\w+)"$', text, re.M)
    module, name = script.groups()
    target = getattr(importlib.import_module(module), name)
    assert target is kaluza.cli.main
    assert target(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: kaluza ")
