"""Acceptance gate: the README's checklist, one test per shipped claim.

Each test prints one summary line so a verbose run reads as a checklist.
Where a module test repeated one of these claims, the inputs only it
checked moved here (the integer pairs at +/-2**23 into 04, the exact
basis matrices into 05) and the duplicate went.  The totals of 01-03 and
the involution of 07 are still restated in test_fastmul.py and
test_number.py.  The per-stage tallies live in test_fastmul.py, and
verify's failure paths in test_cli.py.  Wall-clock speed is never
asserted anywhere; only operation counts and numerical agreement are.
"""

from bitmask_oracle import oracle_basis_mul
from kaluza.cayley import TABLE, validate_table
from kaluza.fastmul import (
    PAIRING_PERMUTATION,
    build_pipeline,
    compare_printed_diagonal,
    count_operations,
    mul_fast,
)
from kaluza.linops import OpCount
from kaluza.number import (
    KaluzaNumber,
    build_mul_matrix,
    compare_printed_blocks,
    mul_naive,
    symbolic_mul_matrix,
)
from kaluza.prng import Stream

E = [KaluzaNumber.basis(i) for i in range(32)]
# The fast engine is bit-exact on integers while 64*max|a|*max|b| <= 2**53.
INT_BOUND = 2**23


def test_01_multiplication_counts_are_exactly_1024_naive_and_512_fast():
    c = OpCount()
    mul_naive(KaluzaNumber(range(32)), KaluzaNumber(range(1, 33)), c)
    assert c.multiplications == 1024
    c = OpCount()
    pipe = build_pipeline(KaluzaNumber(range(1, 33)), c)
    mul_fast(KaluzaNumber(range(32)), pipe, c)
    assert c.multiplications == 512
    assert count_operations("naive").multiplications == 1024
    assert count_operations("fast").multiplications == 512
    print("[PASS] multiplications: naive 1024, fast 512 (preprocessing included)")


def test_02_addition_counts_are_exactly_992_naive_and_576_fast():
    c = OpCount()
    mul_naive(KaluzaNumber(range(32)), KaluzaNumber(range(1, 33)), c)
    assert c.additions == 992
    pre = OpCount()
    pipe = build_pipeline(KaluzaNumber(range(1, 33)), pre)
    assert pre.additions == 32  # preprocessing share
    per_call = OpCount()
    mul_fast(KaluzaNumber(range(32)), pipe, per_call)
    assert per_call.additions == 544  # pipeline share
    assert count_operations("fast").additions == 544 + 32 == 576
    print("[PASS] additions: naive 992, fast 576 = 544 pipeline + 32 preprocessing")


def test_03_total_operation_reduction_is_46_percent():
    naive = sum(count_operations("naive").as_tuple())
    fast = sum(count_operations("fast").as_tuple())
    assert naive == 2016
    assert fast == 1088
    reduction = round(100.0 * (1.0 - fast / naive), 1)
    assert reduction == 46.0
    print(f"[PASS] total operations: 1088 vs 2016, reduction {reduction}%")


def test_04_fast_engine_equals_naive_on_basis_integer_and_real_inputs():
    for j in range(32):
        pipe = build_pipeline(E[j])
        for i in range(32):
            assert mul_fast(E[i], pipe).coeffs == mul_naive(E[i], E[j]).coeffs, (i, j)
    stream = Stream(1)
    for _ in range(10**4):
        a = KaluzaNumber(stream.coeffs_int(bound=1024))
        b = KaluzaNumber(stream.coeffs_int(bound=1024))
        assert mul_fast(a, build_pipeline(b)).coeffs == mul_naive(a, b).coeffs
    # every coefficient at the integer bound +/-2**23 of the fast engine
    for xs, ys in (
        ([INT_BOUND] * 32, [INT_BOUND] * 32),
        ([-INT_BOUND] * 32, [INT_BOUND] * 32),
        ([INT_BOUND, -INT_BOUND] * 16, [-INT_BOUND, -INT_BOUND, INT_BOUND, INT_BOUND] * 8),
    ):
        a, b = KaluzaNumber(xs), KaluzaNumber(ys)
        assert mul_fast(a, build_pipeline(b)).coeffs == mul_naive(a, b).coeffs
    worst = 0.0
    for _ in range(10**4):
        a = KaluzaNumber(stream.coeffs_real())
        b = KaluzaNumber(stream.coeffs_real())
        got = mul_fast(a, build_pipeline(b)).coeffs
        want = mul_naive(a, b).coeffs
        scale = max(abs(v) for v in want) or 1.0
        errors = [abs(g - w) / scale for g, w in zip(got, want)]
        assert all(e <= 1e-12 for e in errors)
        worst = max(worst, *errors)
    print(
        f"[PASS] equivalence: 1024 basis pairs, 10^4 integer pairs and 3 at +/-2^23 "
        f"bit-exact, 10^4 real pairs within {worst:.3g} <= 1e-12"
    )


def test_05_factorized_chain_materializes_to_the_direct_matrix():
    stream = Stream(5)
    operands = list(E) + [KaluzaNumber(stream.coeffs_real()) for _ in range(20)]
    worst = 0.0
    for n, b in enumerate(operands):
        dense = build_pipeline(b).materialize()
        direct = build_mul_matrix(b)
        if n < 32:  # a basis operand's matrix holds only 0 and +-1, exactly
            assert dense == [list(row) for row in direct], n
        errors = [abs(dense[r][c] - direct[r][c]) for r in range(32) for c in range(32)]
        assert all(e <= 1e-12 for e in errors)
        worst = max(worst, *errors)
    print(
        f"[PASS] factorization identity: 32 basis operands exact, 52 operands "
        f"within {worst:.3g} <= 1e-12"
    )


def test_06_every_2x2_block_of_the_permuted_matrix_is_bisymmetric():
    # checked directly on the permuted symbolic matrix, not via the
    # derivation code whose premise this is
    sym = symbolic_mul_matrix()
    pm = PAIRING_PERMUTATION.map
    checked = 0
    for r in range(16):
        for k in range(16):
            a = sym[pm[2 * r]][pm[2 * k]]
            b = sym[pm[2 * r]][pm[2 * k + 1]]
            c = sym[pm[2 * r + 1]][pm[2 * k]]
            d = sym[pm[2 * r + 1]][pm[2 * k + 1]]
            assert a == d and b == c, (r, k)
            checked += 1
    assert checked == 256
    print("[PASS] bisymmetry: all 256 2x2 blocks have equal diagonals")


def test_07_pairing_permutation_is_an_involution():
    m = PAIRING_PERMUTATION.map
    assert all(m[m[i]] == i for i in range(32))
    print("[PASS] involution: permutation composed with itself is the identity")


def test_08_concordance_reports_match_their_frozen_contents():
    block_report = compare_printed_blocks()
    diag_report = compare_printed_diagonal()
    for r, c, d, p in block_report:
        print(f"matrix rendering mismatch: row {r}, column {c}: derived {d}, printed {p}")
    for k, m, d, p in diag_report:
        print(f"diagonal rendering mismatch: block {k}, slot {m}: derived {d}, printed {p}")
    # discrepancies are typos in the typeset rendering and warn rather
    # than fail; what must hold is that the reports are exactly the known
    # ones, so any regression in table or derivation surfaces here.  The
    # four diagonal slots were frozen from a by-hand recheck of the
    # underlying table cells.
    assert block_report == []
    assert diag_report == [
        (1, 18, "c23", "-c22"),
        (1, 19, "c22", "-c23"),
        (12, 28, "c11", "c10"),
        (12, 29, "c10", "c11"),
    ]
    print(
        "[PASS] concordance: matrix rendering clean, diagonal rendering has "
        "the 4 known typos (warnings, not failures)"
    )


def test_09_embedded_table_is_valid_and_matches_the_generator_oracle():
    assert validate_table(TABLE) == []
    for i in range(32):
        for j in range(32):
            assert TABLE.entries[i][j] == oracle_basis_mul(i, j)
    print("[PASS] table validity: identity, signed permutations, unit squares")
