"""Kaluza numbers: a 32-dimensional hypercomplex algebra.

Products can be taken directly from the basis multiplication table (1024
real multiplications, 992 additions) or through a factorized pipeline of
permutations, pairwise butterflies, a 512-lane diagonal scale by the 64
signed c-values of the right operand, and a fan-in sum (512
multiplications, 576 additions including the one-time pairing of the
right operand, which build_pipeline does in one generated pass from the
operand's coefficients).  Both engines are exactly instrumented.  The
integer bounds within which they agree bit for bit are stated in
README.md ("How the fast engine works").

The top level holds the engines' entry points.  Everything else imports
from its module: kaluza.cayley, .number, .linops or .fastmul.
"""

from .fastmul import build_pipeline, derive_diagonal_spec, mul_fast
from .linops import OpCount
from .number import KaluzaNumber, build_mul_matrix, mul_dense, mul_naive

__version__ = "0.1.0"

__all__ = [
    "KaluzaNumber",
    "OpCount",
    "build_mul_matrix",
    "build_pipeline",
    "derive_diagonal_spec",
    "mul_dense",
    "mul_fast",
    "mul_naive",
    "__version__",
]
