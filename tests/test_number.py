"""KaluzaNumber and the contracts of the direct engines.

Parsing and the package exports; the layout of the multiplication matrix
and the dense engine's shape check; associativity, which checks the
table erratum; the symbolic matrix and its guards; and the input domain
of naive and dense: exact at their integer bound, and within the
recursive summation bound beyond it.  That naive and dense equal the
algebra's product on every input is proved once, on formal symbols, in
test_symbolic.py; the golden naive and dense digests in test_fastmul.py
freeze their float bits.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaluza
from bitmask_oracle import oracle_basis_mul, oracle_mul
from kaluza.cayley import TABLE, VERBATIM_TABLE, CayleyTable
from kaluza.linops import OpCount
from kaluza.number import (
    KaluzaNumber,
    build_mul_matrix,
    compare_printed_blocks,
    mul_dense,
    mul_naive,
    symbolic_mul_matrix,
)


def test_construction_and_text_round_trip():
    x = KaluzaNumber(range(32))
    assert KaluzaNumber.from_text(x.to_text()) == x
    assert KaluzaNumber.from_text("1 " * 32) == KaluzaNumber([1.0] * 32)
    with pytest.raises(ValueError, match=r"^line 1, column 63: 'x' is not a decimal number$"):
        KaluzaNumber.from_text("1 " * 31 + "x")
    with pytest.raises(ValueError, match=r"^line 2, column 3: 'x' is not a decimal number$"):
        KaluzaNumber.from_text("1 2\n3 x 4\n")
    with pytest.raises(ValueError, match=r"^line 1, column 65: unexpected 33rd value '1'$"):
        KaluzaNumber.from_text("1 " * 33)
    with pytest.raises(
        ValueError,
        match=r"^expected 32 values, found 31 \(last one at line 3, column 3\)$",
    ):
        KaluzaNumber.from_text("1 " * 30 + "\n # two\n  1\n")
    with pytest.raises(ValueError, match=r"^expected 32 values, found 0$"):
        KaluzaNumber.from_text("")
    with pytest.raises(ValueError, match=r"^expected 32 values, found 0$"):
        KaluzaNumber.from_text("# no values\n  # none here either\n")
    with pytest.raises(ValueError):
        KaluzaNumber(range(31))
    for index in (-1, 32):  # -1 would index from the end and give e31
        with pytest.raises(IndexError, match=rf"^basis index must be in 0\.\.31, got {index}$"):
            KaluzaNumber.basis(index)


def test_from_text_ignores_comments():
    text = "# a comment line\n" + " ".join(str(i) for i in range(16)) + \
        "  # trailing\n" + " ".join(str(i) for i in range(16, 32)) + "\n"
    assert KaluzaNumber.from_text(text) == KaluzaNumber(range(32))


def test_package_exports_resolve_without_duplicates():
    assert len(set(kaluza.__all__)) == len(kaluza.__all__)
    for name in kaluza.__all__:
        assert hasattr(kaluza, name), name
    namespace = {}
    exec("from kaluza import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kaluza.__all__)


def test_package_exports_only_the_entry_points_callers_import():
    # Everything else imports from its module: kaluza.cayley, .number, .linops or .fastmul.
    assert sorted(kaluza.__all__) == [
        "KaluzaNumber",
        "OpCount",
        "__version__",
        "build_mul_matrix",
        "build_pipeline",
        "derive_diagonal_spec",
        "mul_dense",
        "mul_fast",
        "mul_naive",
    ]


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=32, max_size=32),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=32, max_size=32),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=32, max_size=32),
)
def test_multiplication_is_associative(xs, ys, zs):
    a, b, c = KaluzaNumber(xs), KaluzaNumber(ys), KaluzaNumber(zs)
    left = mul_naive(mul_naive(a, b), c)
    right = mul_naive(a, mul_naive(b, c))
    assert list(left.coeffs) == list(right.coeffs)


def test_mul_matrix_places_signed_copies_bit_for_bit():
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan]
    b = KaluzaNumber(specials + [float(i) for i in range(1, 27)])
    m = build_mul_matrix(b)
    for k, row in enumerate(symbolic_mul_matrix()):
        for i, (s, j) in enumerate(row):
            want = b.coeffs[j] if s > 0 else -b.coeffs[j]
            assert struct.pack("<d", m[k][i]) == struct.pack("<d", want)


def test_dense_rejects_a_matrix_that_is_not_32_by_32():
    a = KaluzaNumber(range(32))
    rows = build_mul_matrix(KaluzaNumber(range(1, 33)))
    counter = OpCount()
    for bad in (
        rows[:31],
        rows + rows[:1],
        (rows[0][:31],) + rows[1:],
        (rows[0] + (1.0,),) + rows[1:],
    ):
        with pytest.raises(ValueError):
            mul_dense(a, bad, counter)
    assert counter.as_tuple() == (0, 0)  # a rejected matrix counts nothing


def _same_sign_slot_operands(m: int, k: int):
    """Integer operands with every coefficient +-m whose 32 terms in
    output slot k all equal +m*m, and their exact product."""
    a, b = [m] * 32, [0] * 32
    for row in TABLE.entries:
        for j, (s, slot) in enumerate(row):
            if slot == k:
                b[j] = s * m
    exact = oracle_mul(a, b)
    assert exact[k] == 32 * m * m
    return KaluzaNumber(a), KaluzaNumber(b), exact


def test_direct_engines_are_exact_at_their_integer_bound():
    # 32 * max|a| * max|b| = 2**53 with |coefficients| = 2**24: the slot
    # whose terms share one sign reaches 2**53, and no partial sum of any
    # slot leaves the range where doubles hold every integer
    for k in range(32):
        a, b, exact = _same_sign_slot_operands(2**24, k)
        assert list(map(int, mul_naive(a, b).coeffs)) == exact, k
        assert list(map(int, mul_dense(a, build_mul_matrix(b)).coeffs)) == exact, k


# Every finite double times 2**1074 is an integer, so a product of two is
# an integer over SCALE**2; the test below works in those integers.
SCALE = 2**1074
GAMMA_32 = 32 * Fraction(1, 2**53) / (1 - 32 * Fraction(1, 2**53))
ORACLE = [[oracle_basis_mul(i, j) for j in range(32)] for i in range(32)]
wide_vec = st.lists(
    st.floats(min_value=-(2.0**505), max_value=2.0**505, allow_nan=False, allow_infinity=False),
    min_size=32, max_size=32,
)


def _scaled(v: float, scale: int) -> int:
    """v * scale, exactly, for a scale that clears v's power-of-two denominator."""
    n, d = v.as_integer_ratio()
    return n * (scale // d)


@settings(max_examples=200, deadline=None)
@given(wide_vec, wide_vec)
def test_direct_engines_stay_within_the_recursive_summation_bound(xs, ys):
    # Each slot sums 32 products left to right, so with u = 2**-53 its
    # error is at most gamma_32 * sum |a_i * b_j|, plus 2**-1074 for each
    # product that underflows.  With |coefficients| <= 2**505 no partial
    # sum can overflow.
    ax, bx = [_scaled(x, SCALE) for x in xs], [_scaled(y, SCALE) for y in ys]
    exact, magnitude = [0] * 32, [0] * 32
    for i, x in enumerate(ax):
        for j, y in enumerate(bx):
            s, k = ORACLE[i][j]
            p = x * y
            exact[k] += s * p
            magnitude[k] += abs(p)
    a, b = KaluzaNumber(xs), KaluzaNumber(ys)
    for got in (mul_naive(a, b), mul_dense(a, build_mul_matrix(b))):
        for k, v in enumerate(got.coeffs):
            error = abs(_scaled(v, SCALE**2) - exact[k])
            assert error <= GAMMA_32 * magnitude[k] + 32 * SCALE, (k, v)


def test_symbolic_matrix_entries():
    sym = symbolic_mul_matrix()
    assert sym[0][0] == (1, 0)  # output 0 takes +b0 from a0
    assert sym[1][0] == (1, 1)  # output 1 takes +b1 from a0
    # each row references every b-index exactly once
    for row in sym:
        assert sorted(j for _, j in row) == list(range(32))


def test_symbolic_matrix_refuses_entries_outside_the_signed_indices():
    # Unchecked, (1, -1) in place of row 5's (1, 31) would index the grid
    # from the end and give TABLE's matrix, so derive_diagonal_spec would
    # succeed on it, and a sign of 3 would be kept.  No table holds either.
    for entry in ((1, -1), (3, 31)):
        rows = [list(r) for r in TABLE.entries]
        rows[5][26] = entry
        with pytest.raises(ValueError, match=rf"^entry \({entry[0]}, {entry[1]}\) is not a sign"):
            CayleyTable(rows)
    # A table can hold a row that is not a signed permutation (validate_table
    # reports it); unchecked, the repeated entry would overwrite a grid cell
    # and leave another None.
    rows = [list(r) for r in TABLE.entries]
    rows[3][6] = rows[3][5]
    with pytest.raises(ValueError, match=r"^table row 3 is not a signed permutation$"):
        symbolic_mul_matrix(CayleyTable(rows))


def test_printed_block_comparison_reports_the_verbatim_table_typo():
    # the uncorrected table flips the sign of the one matrix cell fed by
    # entry (2, 22), and the report pinpoints it
    assert compare_printed_blocks(VERBATIM_TABLE) == [(13, 2, "-b22", "b22")]
