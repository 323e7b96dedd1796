"""Kaluza numbers: a 32-dimensional hypercomplex algebra.

Products can be taken directly from the basis multiplication table (1024
real multiplications, 992 additions) or through a factorized pipeline of
permutations, pairwise butterflies, one 512-entry diagonal, and a fan-in
sum (512 multiplications, 576 additions including the one-time pairing
of the right operand).  Both engines are exactly instrumented and agree
bit-exactly on integer inputs with 64*max|a|*max|b| <= 2**53, for example
|coefficients| <= 2**23; the bound is not checked.
"""

from .cayley import (
    ERRATA,
    QUADRANTS,
    TABLE,
    VERBATIM_TABLE,
    CayleyTable,
    basis_mul,
    dump_table,
    validate_table,
)
from .fastmul import (
    PAIRING_PERMUTATION,
    CVector,
    DiagonalSpec,
    FactorizedPipeline,
    build_pipeline,
    coefficient_pairs,
    compare_printed_diagonal,
    compute_c,
    count_operations,
    derive_diagonal_spec,
    mul_fast,
)
from .linops import (
    OpCount,
    Permutation32,
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    materialize,
    replicate_pairs,
)
from .number import (
    KaluzaNumber,
    MulMatrix,
    add,
    build_mul_matrix,
    compare_printed_blocks,
    mul_dense,
    mul_naive,
    symbolic_mul_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CVector",
    "CayleyTable",
    "DiagonalSpec",
    "ERRATA",
    "FactorizedPipeline",
    "KaluzaNumber",
    "MulMatrix",
    "OpCount",
    "PAIRING_PERMUTATION",
    "Permutation32",
    "QUADRANTS",
    "TABLE",
    "VERBATIM_TABLE",
    "add",
    "apply_permutation",
    "basis_mul",
    "block_diagonal_scale",
    "build_mul_matrix",
    "build_pipeline",
    "coefficient_pairs",
    "compare_printed_blocks",
    "compare_printed_diagonal",
    "compute_c",
    "count_operations",
    "derive_diagonal_spec",
    "dump_table",
    "fan_in_sum",
    "hadamard_pairs",
    "materialize",
    "mul_dense",
    "mul_fast",
    "mul_naive",
    "replicate_pairs",
    "symbolic_mul_matrix",
    "validate_table",
    "__version__",
]
