"""KaluzaNumber arithmetic against the independent oracle."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmask_oracle import oracle_mul
from kaluza.cayley import VERBATIM_TABLE
from kaluza.linops import OpCount
from kaluza.number import (
    KaluzaNumber,
    add,
    build_mul_matrix,
    compare_printed_blocks,
    mul_dense,
    mul_naive,
    symbolic_mul_matrix,
)

E = [KaluzaNumber.basis(i) for i in range(32)]

int_vec = st.lists(
    st.integers(min_value=-(2**20), max_value=2**20), min_size=32, max_size=32
)
real_vec = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=32, max_size=32
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
    with pytest.raises(ValueError):
        KaluzaNumber(range(31))


def test_from_text_ignores_comments():
    text = "# a comment line\n" + " ".join(str(i) for i in range(16)) + \
        "  # trailing\n" + " ".join(str(i) for i in range(16, 32)) + "\n"
    assert KaluzaNumber.from_text(text) == KaluzaNumber(range(32))


def test_add_identities_and_count():
    x = KaluzaNumber(range(32))
    c = OpCount()
    assert add(x, KaluzaNumber([0] * 32), c) == x
    assert c.as_tuple() == (0, 32)
    two_e1 = add(E[1], E[1])
    assert two_e1.coeffs[1] == 2.0 and sum(v != 0 for v in two_e1.coeffs) == 1
    a = add(E[0], E[5])
    b = add(KaluzaNumber.basis(0, 2.0), KaluzaNumber.basis(5, -1.0))
    assert add(a, b) == KaluzaNumber.basis(0, 3.0)


def test_one_is_the_multiplicative_identity():
    x = KaluzaNumber(range(32))
    assert mul_naive(E[0], x) == x
    assert mul_naive(x, E[0]) == x


def test_basis_product_examples():
    assert mul_naive(E[1], E[2]) == E[6]
    assert mul_naive(E[2], E[1]) == KaluzaNumber.basis(6, -1.0)
    assert mul_naive(add(E[1], E[2]), E[3]) == add(E[7], E[10])


def test_multiplication_is_not_commutative():
    assert mul_naive(E[1], E[2]) != mul_naive(E[2], E[1])


def test_naive_count_is_exact():
    c = OpCount()
    mul_naive(KaluzaNumber(range(32)), KaluzaNumber(range(1, 33)), c)
    assert c.as_tuple() == (1024, 992)


def test_naive_matches_oracle_on_all_basis_pairs():
    for i in range(32):
        for j in range(32):
            got = mul_naive(E[i], E[j]).coeffs
            assert list(got) == oracle_mul(E[i].coeffs, E[j].coeffs), (i, j)


@settings(max_examples=200)
@given(int_vec, int_vec)
def test_naive_matches_oracle_bit_exact_on_integers(xs, ys):
    got = mul_naive(KaluzaNumber(xs), KaluzaNumber(ys)).coeffs
    assert list(got) == oracle_mul([float(v) for v in xs], [float(v) for v in ys])


@settings(max_examples=100)
@given(int_vec, int_vec, int_vec, st.integers(min_value=-64, max_value=64))
def test_bilinearity_in_the_left_operand(xs, xs2, ys, alpha):
    a = KaluzaNumber(xs)
    a2 = KaluzaNumber(xs2)
    b = KaluzaNumber(ys)
    lhs = mul_naive(KaluzaNumber([alpha * u + v for u, v in zip(xs, xs2)]), b)
    rhs = [
        alpha * u + v
        for u, v in zip(mul_naive(a, b).coeffs, mul_naive(a2, b).coeffs)
    ]
    assert list(lhs.coeffs) == rhs  # integer inputs keep everything exact


@settings(max_examples=100)
@given(int_vec, int_vec, int_vec, st.integers(min_value=-64, max_value=64))
def test_bilinearity_in_the_right_operand(xs, ys, ys2, alpha):
    a = KaluzaNumber(xs)
    b = KaluzaNumber(ys)
    b2 = KaluzaNumber(ys2)
    lhs = mul_naive(a, KaluzaNumber([alpha * u + v for u, v in zip(ys, ys2)]))
    rhs = [
        alpha * u + v
        for u, v in zip(mul_naive(a, b).coeffs, mul_naive(a, b2).coeffs)
    ]
    assert list(lhs.coeffs) == rhs


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


def test_zero_operand_gives_zero():
    zero = KaluzaNumber([0] * 32)
    assert mul_naive(zero, KaluzaNumber(range(32))) == zero
    assert mul_naive(KaluzaNumber(range(32)), zero) == zero


def test_mul_matrix_of_one_is_the_identity():
    m = build_mul_matrix(E[0])
    for r in range(32):
        for c in range(32):
            assert m.rows[r][c] == (1.0 if r == c else 0.0)


def test_mul_matrix_of_e1_known_entries():
    m = build_mul_matrix(E[1])
    assert m.rows[0][1] == 1.0  # e1 * e1 = 1
    assert m.rows[6][2] == -1.0  # e2 * e1 = -e6


def test_mul_matrix_places_signed_copies_bit_for_bit():
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan]
    b = KaluzaNumber(specials + [float(i) for i in range(1, 27)])
    m = build_mul_matrix(b)
    for k, row in enumerate(symbolic_mul_matrix()):
        for i, (s, j) in enumerate(row):
            want = b.coeffs[j] if s > 0 else -b.coeffs[j]
            assert struct.pack("<d", m.rows[k][i]) == struct.pack("<d", want)


def test_dense_apply_equals_naive_on_all_basis_pairs():
    for j in range(32):
        m = build_mul_matrix(E[j])
        for i in range(32):
            assert mul_dense(E[i], m).coeffs == mul_naive(E[i], E[j]).coeffs


@settings(max_examples=100)
@given(int_vec, int_vec)
def test_dense_apply_equals_naive_bit_exact(xs, ys):
    a, b = KaluzaNumber(xs), KaluzaNumber(ys)
    c = OpCount()
    got = mul_dense(a, build_mul_matrix(b), c)
    assert c.as_tuple() == (1024, 992)
    assert got.coeffs == mul_naive(a, b).coeffs


def test_dense_apply_on_identity_matrix_and_zero_vector():
    m = build_mul_matrix(E[0])
    x = KaluzaNumber(range(32))
    zero = KaluzaNumber([0] * 32)
    assert mul_dense(x, m) == x
    assert mul_dense(zero, m) == zero


def test_symbolic_matrix_entries():
    sym = symbolic_mul_matrix()
    assert sym[0][0] == (1, 0)  # output 0 takes +b0 from a0
    assert sym[1][0] == (1, 1)  # output 1 takes +b1 from a0
    # each row references every b-index exactly once
    for row in sym:
        assert sorted(j for _, j in row) == list(range(32))


def test_printed_block_rendering_matches_the_derivation():
    assert compare_printed_blocks() == []


def test_printed_block_comparison_reports_the_verbatim_table_typo():
    # the uncorrected table flips the sign of the one matrix cell fed by
    # entry (2, 22), and the report pinpoints it
    assert compare_printed_blocks(VERBATIM_TABLE) == [(13, 2, "-b22", "b22")]
