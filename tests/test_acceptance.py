"""Acceptance gate: the README's checklist, one test per shipped claim.

Each test prints one summary line so a verbose run reads as a checklist.
Each claim has its home here, and module tests that only repeated one
went.  The counted totals live in 01: every engine's, with and without
preparation, the 46.0% reduction and one preparation shared by five
products; the tally of each stage that sums to them is in
test_fastmul.py.  07 pins the pairing map.
verify's failure paths are in test_cli.py.  Wall-clock speed is never
asserted anywhere; only operation counts and numerical agreement are.
"""

import pytest
from bitmask_oracle import oracle_basis_mul

from kaluza.cayley import TABLE, validate_table
from kaluza.fastmul import (
    ENGINES,
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
    totals = {
        engine: (
            count_operations(engine).as_tuple(),
            count_operations(engine, include_preprocessing=False).as_tuple(),
        )
        for engine in ENGINES
    }
    assert totals == {
        "naive": ((1024, 992), (1024, 992)),
        "dense": ((1024, 992), (1024, 992)),
        "fast": ((512, 544 + 32), (512, 544)),
    }
    # one preparation serves every product on its pipeline
    counter = OpCount()
    pipe = build_pipeline(KaluzaNumber(range(2, 34)), counter)
    for i in range(5):
        mul_fast(KaluzaNumber(range(i, i + 32)), pipe, counter)
    assert counter.as_tuple() == (5 * 512, 32 + 5 * 544)
    naive, fast = (sum(totals[engine][0]) for engine in ("naive", "fast"))
    assert (naive, fast) == (2016, 1088)
    reduction = round(100.0 * (1.0 - fast / naive), 1)
    assert reduction == 46.0
    with pytest.raises(ValueError, match=f"one of {', '.join(ENGINES)}, got 'vedic'"):
        count_operations("vedic")
    print(
        "[PASS] operation counts: naive and dense 1024 mul, 992 add; fast 512 mul, "
        f"576 add = 544 per product + 32 preprocessing; 1088 vs 2016, reduction {reduction}%"
    )


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
    assert m == (
        0, 1, 2, 6, 4, 8, 3, 7, 5, 9, 10, 16, 12, 18, 14, 20,
        11, 17, 13, 19, 15, 21, 22, 26, 24, 28, 23, 27, 25, 29, 30, 31,
    )
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
