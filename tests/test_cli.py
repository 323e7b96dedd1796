"""CLI behavior through main(), including exit codes and report shape."""

import pytest

from kaluza.cli import main


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


def test_verify_rejects_nonpositive_trials(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "0")
    assert code == 2


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


def test_dump_factors_includes_a_symmetric_permutation_matrix(capsys):
    code, out, _ = run(capsys, "dump", "factors")
    assert code == 0
    lines = out.splitlines()

    def block(header, rows):
        start = lines.index(header) + 1
        grid = [line.split() for line in lines[start : start + rows]]
        assert len(grid) == rows
        return grid

    grid = block("# permute 32x32", 32)
    for r in range(32):
        assert sorted(grid[r]) == ["0"] * 31 + ["1"]
        for c in range(32):
            assert grid[r][c] == grid[c][r]
    # sixteen copies of H2 = [[1, 1], [1, -1]] on the diagonal
    h2 = [["1", "1"], ["1", "-1"]]
    for r, row in enumerate(block("# hadamard-pairs 32x32", 32)):
        assert row == [h2[r % 2][c % 2] if r // 2 == c // 2 else "0" for c in range(32)]
    # row 32k+m copies pair member 2k + m%2
    for r, row in enumerate(block("# replicate 512x32", 512)):
        k, m = divmod(r, 32)
        assert row == ["1" if c == 2 * k + m % 2 else "0" for c in range(32)]
    # row m sums columns 32k+m
    for m, row in enumerate(block("# fan-in 32x512", 32)):
        assert row == ["1" if c % 32 == m else "0" for c in range(512)]


def test_dump_requires_an_operand_when_one_is_needed(capsys):
    for what in ("mul-matrix", "diagonal"):
        code, _, err = run(capsys, "dump", what)
        assert code == 2
        assert "operand is required" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
