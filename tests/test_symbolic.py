"""Exactness by symbolic execution: each engine run on formal symbols.

The committed engines run unchanged on the polynomial scalar of
symbolic.py, with a = (a0, ..., a31) and b = (b0, ..., b31).  Only the
name KaluzaNumber in kaluza.number is replaced, by a wrapper that skips
the float() pass; the operands are such wrappers.  Every output slot
must equal the structure tensor exactly, which proves the engine
bilinear and equal to the algebra's product for every input, with each
rational coefficient (the factorized engine's 1/2 and the butterflies'
doublings) exact.

The factorized engine is also checked stage by stage: each fixed stage
equals the factor matrix that `kaluza dump factors` prints (test_cli
freezes that output by its sha256, with the 512 lanes in block order),
and the diagonal entry in lane lane(k, m) equals the eigenvalue of its
2x2 block of M(b).
"""

from fractions import Fraction

import pytest
from bitmask_oracle import oracle_basis_mul
from symbolic import Poly, symbols

import kaluza.number
from kaluza.fastmul import ENGINES, PAIRING_PERMUTATION, build_pipeline, coefficient_pairs
from kaluza.linops import (
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    lane,
    materialize,
    replicate_pairs,
)
from kaluza.number import build_mul_matrix

A, B = symbols("a"), symbols("b")


class Raw:
    """A KaluzaNumber that keeps its coefficients as given."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)


@pytest.fixture
def symbolic(monkeypatch):
    monkeypatch.setattr(kaluza.number, "KaluzaNumber", Raw)
    return Raw(A), Raw(B)


@pytest.fixture(scope="module")
def structure_tensor():
    """Slot k of a * b: the sum of s * a_i * b_j over e_i * e_j = s * e_k,
    from the generator relations, not from the package's table."""
    slots = [Poly({}) for _ in range(32)]
    for i in range(32):
        for j in range(32):
            s, k = oracle_basis_mul(i, j)
            slots[k] += s * A[i] * B[j]
    return tuple(slots)


def test_structure_tensor_has_one_term_per_basis_pair(structure_tensor):
    assert sorted(m for slot in structure_tensor for m in slot.terms) == sorted(
        (f"a{i}", f"b{j}") for i in range(32) for j in range(32)
    )


def test_naive_engine_is_exactly_the_structure_tensor(symbolic, structure_tensor):
    a, b = symbolic
    _, mul_naive = ENGINES["naive"]
    assert mul_naive(a, b).coeffs == structure_tensor


def test_dense_engine_is_exactly_the_structure_tensor(symbolic, structure_tensor):
    a, b = symbolic
    build_mul_matrix, mul_dense = ENGINES["dense"]
    assert mul_dense(a, build_mul_matrix(b)).coeffs == structure_tensor


def test_fast_engine_is_exactly_the_structure_tensor(symbolic, structure_tensor):
    a, b = symbolic
    build_pipeline, mul_fast = ENGINES["fast"]
    assert mul_fast(a, build_pipeline(b)).coeffs == structure_tensor


def test_every_registered_engine_has_a_whole_product_proof():
    covered = {n[5:n.index("_engine_")] for n in globals() if "_engine_is_exactly_" in n}
    assert covered == set(ENGINES)


@pytest.mark.parametrize(
    "stage, n",
    [
        (lambda x: apply_permutation(PAIRING_PERMUTATION, x), 32),
        (hadamard_pairs, 32),
        (replicate_pairs, 32),
        (fan_in_sum, 512),
    ],
    ids=["permute", "hadamard-pairs", "replicate", "fan-in"],
)
def test_each_fixed_stage_is_exactly_its_factor_matrix(stage, n):
    x = list(symbols("x", n))
    m = materialize(stage, n)
    want = [Poly({}) for _ in m]
    for r, row in enumerate(m):
        for c, entry in enumerate(row):
            if entry:
                want[r] += entry * x[c]
    assert stage(x) == want


def test_each_diagonal_entry_is_the_eigenvalue_of_its_block(symbolic):
    _, b = symbolic
    m = build_mul_matrix(b)
    # the lanes the diagonal scale multiplies by, read off on ones
    diagonal = block_diagonal_scale([1] * 512, build_pipeline(b).signed_c)
    half = Fraction(1, 2)
    pairs = coefficient_pairs()
    for k, (uk, vk) in enumerate(pairs):
        for r, (ur, _) in enumerate(pairs):
            a, b = m[ur][uk], m[ur][vk]
            assert diagonal[lane(k, 2 * r)] == (a + b) * half, (r, k)
            assert diagonal[lane(k, 2 * r + 1)] == (a - b) * half, (r, k)
