"""Factorized multiplication: the same product at half the multiplications.

Reordering the basis so that paired coefficients sit adjacently turns
every 2x2 block of the multiplication matrix into a bisymmetric one,
[[A, B], [B, A]], and such a block diagonalizes through the 2x2 Hadamard
butterfly with eigenvalues (A+B)/2 and (A-B)/2.  Sharing the butterflies
along whole block rows and block columns yields

    permute -> butterfly -> replicate -> diagonal -> fan-in -> butterfly -> permute

at 512 real multiplications and 544 real additions per product, plus 32
one-time additions to prepare the right operand (the c-vector, which
carries the factor 1/2).  The direct method costs 1024 and 992.

The 512 diagonal entries are not stored numerically by the derivation:
each one is a signed reference into the 32-entry c-vector, extracted
mechanically from the permuted symbolic matrix.  A separately transcribed
rendering of those references is kept in fixtures and diffed against the
derivation as a typo cross-check.

mul_fast is the one description of the chain; the dense matrix of a
pipeline, checked against the direct one, is built by running mul_fast
itself.  A prepared right operand is plain data: compute_c returns the
32 c-values as a tuple and FactorizedPipeline holds only the diagonal.
"""

from __future__ import annotations

from functools import cache

from .cayley import CayleyTable
from .fixtures import diff_printed, printed_diagonal_blocks, signed_token
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
    mul_naive,
    signed_gather,
    symbolic_mul_matrix,
    with_negations,
)

# Reorder that puts each paired coefficient next to its partner: slots
# (2t, 2t+1) pick up the pair (map[2t], map[2t+1]).  It is an involution,
# so the same permutation opens and closes the pipeline.
PAIRING_PERMUTATION = Permutation32(
    (0, 1, 2, 6, 4, 8, 3, 7, 5, 9, 10, 16, 12, 18, 14, 20,
     11, 17, 13, 19, 15, 21, 22, 26, 24, 28, 23, 27, 25, 29, 30, 31)
)


def coefficient_pairs() -> tuple[tuple[int, int], ...]:
    """The sixteen (u, v) coefficient pairs, in c-vector order."""
    m = PAIRING_PERMUTATION.map
    return tuple((m[2 * t], m[2 * t + 1]) for t in range(16))


def compute_c(b: KaluzaNumber, counter: OpCount | None = None) -> tuple[float, ...]:
    """The c-vector: pair up the right operand and halve.

    32 additions, 0 multiplications.  c[2t] = (b_u + b_v)/2 and
    c[2t+1] = (b_u - b_v)/2 for the t-th pair (u, v) of
    coefficient_pairs(); these 32 values are the only distinct
    magnitudes on the 512-entry diagonal.  Implemented as the same
    permute-then-butterfly used by the pipeline itself; the halving is a
    power-of-two scale and stays off the books.
    """
    paired = apply_permutation(PAIRING_PERMUTATION, b.coeffs)
    mixed = hadamard_pairs(paired, counter)
    return tuple([v * 0.5 for v in mixed])


class DiagonalSpec:
    """Sixteen blocks of 32 signed references into the c-vector.

    Block k holds the diagonal slice that scales replicated pair block k;
    slot m of block k is the eigenvalue s_m of the (row pair m//2, column
    pair k) bisymmetric block.
    """

    __slots__ = ("blocks", "_gather")

    def __init__(self, blocks):
        bl = tuple(tuple((int(s), int(j)) for (s, j) in block) for block in blocks)
        if len(bl) != 16 or any(len(b) != 32 for b in bl):
            raise ValueError("expected 16 blocks of 32 signed c-references")
        for block in bl:
            for s, j in block:
                if s not in (1, -1) or not 0 <= j <= 31:
                    raise ValueError(f"bad signed c-reference ({s}, {j})")
        self.blocks = bl
        self._gather = signed_gather(ref for block in bl for ref in block)

    def materialize(self, c: tuple[float, ...]) -> tuple[float, ...]:
        """Concrete 512-entry diagonal from the 32-tuple c.

        Sign application only, nothing counted.
        """
        if len(c) != 32:
            raise ValueError(f"expected 32 c-values, got {len(c)}")
        return self._gather(with_negations(c))


def _half_combo_refs():
    # (sign_u, u, sign_v, v) of a halved two-term combination -> (sign, c-index)
    refs = {}
    for t, (u, v) in enumerate(coefficient_pairs()):
        refs[(1, u, 1, v)] = (1, 2 * t)
        refs[(-1, u, -1, v)] = (-1, 2 * t)
        refs[(1, u, -1, v)] = (1, 2 * t + 1)
        refs[(-1, u, 1, v)] = (-1, 2 * t + 1)
    return refs


@cache
def derive_diagonal_spec(table: CayleyTable | None = None) -> DiagonalSpec:
    """Extract the diagonal references from the permuted symbolic matrix.

    Permute rows and columns of the symbolic multiplication matrix with
    the pairing order, cut the result into 2x2 blocks, require each block
    to be bisymmetric, and resolve each block's half-sum/half-difference
    eigenvalues to signed c-references.  Raises if a block is not
    bisymmetric or an eigenvalue is not expressible as +/- one c-value;
    either would mean the basis table and the pairing order disagree.
    Computed once per table.
    """
    sym = symbolic_mul_matrix(table)
    pm = PAIRING_PERMUTATION.map
    perm_sym = [[sym[pm[r]][pm[c]] for c in range(32)] for r in range(32)]

    refs = _half_combo_refs()

    def resolve(first, second, r, k):
        (sa, ja), (sb, jb) = first, second
        hit = refs.get((sa, ja, sb, jb)) or refs.get((sb, jb, sa, ja))
        if hit is None:
            raise ValueError(
                f"block ({r}, {k}): eigenvalue "
                f"({signed_token(sa, ja, 'b')} {'+' if sb > 0 else '-'} b{jb})/2 "
                f"is not +/- one c-value"
            )
        return hit

    blocks = []
    for k in range(16):
        block = []
        for r in range(16):
            a = perm_sym[2 * r][2 * k]
            b = perm_sym[2 * r][2 * k + 1]
            c = perm_sym[2 * r + 1][2 * k]
            d = perm_sym[2 * r + 1][2 * k + 1]
            if a != d or b != c:
                raise ValueError(
                    f"block ({r}, {k}) of the permuted matrix is not bisymmetric: "
                    f"[[{signed_token(*a, 'b')}, {signed_token(*b, 'b')}], "
                    f"[{signed_token(*c, 'b')}, {signed_token(*d, 'b')}]]"
                )
            # s_{2r} = (A+B)/2, s_{2r+1} = (A-B)/2
            block.append(resolve(a, b, r, k))
            block.append(resolve(a, (-b[0], b[1]), r, k))
        blocks.append(block)
    return DiagonalSpec(blocks)


def compare_printed_diagonal():
    """Diff the derived diagonal references against their rendering.

    Returns (block, slot, derived token, printed token) for every
    disagreement.  The derivation is authoritative (it is generated from
    the basis table), so mismatches document typos in the rendering.
    """
    return diff_printed(derive_diagonal_spec().blocks, printed_diagonal_blocks(), "c")


class FactorizedPipeline:
    """The 512-entry diagonal of a fixed right operand.

    Immutable after construction; mul_fast applies it to as many left
    operands as desired at 512 multiplications and 544 additions each.
    """

    __slots__ = ("diagonal",)

    def __init__(self, c: tuple[float, ...]):
        self.diagonal = derive_diagonal_spec().materialize(c)

    def materialize(self) -> list[list[float]]:
        """Dense 32x32 matrix of mul_fast with this pipeline, built from unit
        vectors (verification aid)."""
        return materialize(lambda x: mul_fast(KaluzaNumber(x), self).coeffs, 32)


def build_pipeline(b: KaluzaNumber, counter: OpCount | None = None) -> FactorizedPipeline:
    """Preprocess a right operand into a reusable pipeline.

    Costs 32 additions (the c-vector); expanding the c-values onto the
    512-entry diagonal applies signs only and is free.
    """
    return FactorizedPipeline(compute_c(b, counter))


def mul_fast(a: KaluzaNumber, p: FactorizedPipeline, counter: OpCount | None = None) -> KaluzaNumber:
    """Multiply via a prebuilt pipeline: 512 multiplications, 544 additions."""
    x = apply_permutation(PAIRING_PERMUTATION, a.coeffs)
    x = hadamard_pairs(x, counter)  # 32 additions
    x = replicate_pairs(x)
    x = block_diagonal_scale(x, p.diagonal, counter)  # 512 multiplications
    x = fan_in_sum(x, counter)  # 480 additions
    x = hadamard_pairs(x, counter)  # 32 additions
    x = apply_permutation(PAIRING_PERMUTATION, x)
    return KaluzaNumber(x)


def count_operations(engine: str, include_preprocessing: bool = True) -> OpCount:
    """Run one instrumented product on fixed operands and return the tally."""
    a = KaluzaNumber(range(1, 33))
    b = KaluzaNumber(range(2, 34))
    counter = OpCount()
    if engine == "naive":
        mul_naive(a, b, counter)
    elif engine == "fast":
        pre = OpCount()
        pipeline = build_pipeline(b, pre)
        mul_fast(a, pipeline, counter)
        if include_preprocessing:
            counter.count(pre.multiplications, pre.additions)
    else:
        raise ValueError(f"engine must be 'naive' or 'fast', got {engine!r}")
    return counter
