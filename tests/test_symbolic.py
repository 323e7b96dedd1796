"""Exactness by symbolic execution: each engine run on formal symbols.

The committed engines run unchanged on the polynomial scalar of
symbolic.py, with a = (a0, ..., a31) and b = (b0, ..., b31).  Only the
name KaluzaNumber in kaluza.number is replaced, by a wrapper that skips
the float() pass; the operands are such wrappers.  Every output slot
must equal the structure tensor exactly, which proves the engine
bilinear and equal to the algebra's product for every input, with each
rational coefficient (the factorized engine's 1/2 and the butterflies'
doublings) exact.

The factorized engine is also checked stage by stage.  Each hand-written
kernel, run on symbols, equals every stage of codegen.factorized_engine()
that it runs, on both sides of the chain where a stage appears twice;
those stages are the factor matrices that `kaluza dump factors` prints
(test_cli freezes that output by its sha256).  And the diagonal entry in
lane lane(k, m) equals the eigenvalue of its 2x2 block of M(b).
"""

from fractions import Fraction

import pytest
from bitmask_oracle import oracle_basis_mul
from symbolic import Poly, symbols

import kaluza.number
from kaluza.codegen import factorized_engine
from kaluza.fastmul import ENGINES, PAIRING_PERMUTATION, build_pipeline, coefficient_pairs
from kaluza.linops import (
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    lane,
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


# the description's fixed stages, which the hand-written kernels run
FACTORIZED = factorized_engine()
(PERMUTE, BUTTERFLY, REPLICATE), (FAN_IN, OUT_BUTTERFLY, OUT_PERMUTE) = (
    FACTORIZED.a_stages, FACTORIZED.out_stages
)


@pytest.mark.parametrize(
    "kernel, stages, width",
    [
        (lambda x: apply_permutation(PAIRING_PERMUTATION, x), (PERMUTE, OUT_PERMUTE), 32),
        (hadamard_pairs, (BUTTERFLY, OUT_BUTTERFLY), 32),
        (replicate_pairs, (REPLICATE,), 32),
        (fan_in_sum, (FAN_IN,), FACTORIZED.rank),
    ],
    ids=["permute", "hadamard-pairs", "replicate", "fan-in"],
)
def test_each_fixed_stage_is_exactly_its_factor_matrix(kernel, stages, width):
    for stage in stages:
        x = symbols("x", width)
        want = [stage.scale * sum((s * x[j] for s, j in row), Poly({})) for row in stage.rows]
        assert kernel(list(x)) == want


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
