"""Factorized multiplication: the same product at half the multiplications.

The coefficient pairs are the orbits {u, e1*u} of left multiplication by
e1, which commutes with the multiplication matrix: each partner is read
from the basis table's e1 row, and the paper's order of the sixteen first
members is the only pairing data.  Reordering the basis so that paired
coefficients sit adjacently turns every 2x2 block of the multiplication
matrix into a bisymmetric one, [[A, B], [B, A]], and such a block
diagonalizes through the 2x2 Hadamard butterfly with eigenvalues (A+B)/2
and (A-B)/2.  Sharing the butterflies along whole block rows and block
columns yields

    permute -> butterfly -> replicate -> diagonal -> fan-in -> butterfly -> permute

at 512 real multiplications and 544 real additions per product, plus 32
one-time additions to prepare the right operand (the c-vector, which
carries the factor 1/2).  The direct method costs 1024 and 992.

The 512 diagonal entries are not stored numerically by the derivation:
each one is a signed reference into the 32-entry c-vector, resolved in
closed form from the 2x2 blocks of the symbolic matrix over the sixteen
coefficient pairs, and python -m kaluza.codegen compiles them into the
generated diagonal scale.  A separately transcribed rendering of those
references is kept in fixtures and diffed against the derivation as a
typo cross-check.

codegen.factorized_engine() is the one description of the chain:
python -m kaluza.codegen writes its arithmetic stages, the tests prove
it and check each kernel against it, and kaluza dump prints it.
mul_fast runs the chain; the dense matrix of a pipeline, checked
against the direct one, is built by running mul_fast itself.  A
prepared right operand is plain data: compute_c turns the right
operand's coefficients into the 32 c-values and their negations in one
generated pass, and FactorizedPipeline holds only those 64 floats; the
diagonal's 512 lanes (linops.lane) are never built as data.
"""

from functools import cache

from . import _factorized
from .cayley import TABLE, CayleyTable, format_ref, signed_refs
from .fixtures import diff_printed, printed_diagonal_blocks
from .linops import (
    OpCount,
    Permutation32,
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    lane,
    materialize,
    replicate_pairs,
)
from .number import (KaluzaNumber, build_mul_matrix, mul_dense, mul_naive,
                     symbolic_mul_matrix, wrap_result)

# The first member u of each coefficient pair, in the paper's order; u is
# the lower index of its orbit {u, e1*u}.  coefficient_pairs reads each
# partner from the table, so this is the only pairing data.
_ORBIT_ORDER = (0, 2, 4, 3, 5, 10, 12, 14, 11, 13, 15, 22, 24, 23, 25, 30)


def coefficient_pairs(table: CayleyTable | None = None) -> tuple[tuple[int, int], ...]:
    """The sixteen (u, v) coefficient pairs of a table (TABLE if None), in
    c-vector order.

    Pair t is the orbit {u, e1*u} of left multiplication by e1, for the
    t-th first member u of the paper's orbit order: v is read from the
    table's e1 row, entries[1][u], which holds +e_v.  Raises ValueError
    if the order does not name each of the sixteen orbits once.
    derive_diagonal_spec refuses the pairs of an order that names a
    partner in place of its orbit's lower index, and those of a table
    whose e1 row holds -e_v: its blocks are not bisymmetric.
    """
    e1 = (TABLE if table is None else table).entries[1]
    pairs = tuple((u, e1[u][1]) for u in _ORBIT_ORDER)
    if sorted(i for pair in pairs for i in pair) != list(range(32)):
        raise ValueError(f"orbit order {_ORBIT_ORDER} does not name each of the 16 orbits once")
    return pairs


# Reorder that puts each paired coefficient next to its partner: slots
# (2t, 2t+1) pick up pair t.  For the paper's order it is an involution,
# so the same permutation opens and closes the pipeline.
PAIRING_PERMUTATION = Permutation32(i for pair in coefficient_pairs() for i in pair)


def compute_c(b: KaluzaNumber, counter: OpCount | None = None) -> tuple[float, ...]:
    """The 64 signed c-values of b: pair up the right operand, halve, negate.

    32 additions, 0 multiplications.  c[2t] = (b_u + b_v)/2 and
    c[2t+1] = (b_u - b_v)/2 for the t-th pair (u, v) of
    coefficient_pairs(), and entry 32 + j is -c[j]; these are the only
    distinct values on the 512-entry diagonal.  Runs as the straight-line
    _factorized.signed_c_values (DiagonalSpec.materialize), which
    python -m kaluza.codegen writes from coefficient_pairs(): each value
    is the sum or difference, then the halving, a power-of-two scale that
    stays off the books, and each negation is free.  It counts only after
    the pass returns, so a rejected input counts nothing.
    """
    c = derive_diagonal_spec().materialize(b.coeffs)
    if counter is not None:
        counter.count(*_factorized.SIGNED_C_VALUES_OPS, stage="prepare")
    return c


class DiagonalSpec:
    """Sixteen blocks of 32 signed references into the c-vector.

    Block k holds the diagonal entries that scale pair block k; slot m of
    block k is the eigenvalue s_m of the (row pair m//2, column pair k)
    bisymmetric block, and it scales lane lane(k, m).  Only the blocks
    that the generated _factorized.diagonal_scale resolves can be
    materialized.
    """

    __slots__ = ("blocks", "_generated")

    def __init__(self, blocks):
        self.blocks = signed_refs(blocks, 16, 32)
        self._generated = None  # whether the generated module has these blocks; see materialize

    def _generated_from_blocks(self) -> bool:
        # b_u = 4t + 3 and b_v = -1 for pair t = (u, v) give c_j = j + 1
        # exactly, so on ones the generated diagonal scale reads back as
        # s * (j + 1) in the lane of each reference it was generated from.
        # A module that cannot run on these inputs is stale too: one with
        # another argument list raises TypeError, another length ValueError.
        b = [0] * 32
        for t, (u, v) in enumerate(coefficient_pairs()):
            b[u], b[v] = 4 * t + 3, -1
        try:
            compiled = _factorized.diagonal_scale((1,) * 512, _factorized.signed_c_values(b))
        except (TypeError, ValueError):
            return False
        return all(
            compiled[lane(k, m)] == s * (j + 1)
            for k, block in enumerate(self.blocks) for m, (s, j) in enumerate(block)
        )

    def materialize(self, b: tuple[float, ...]) -> tuple[float, ...]:
        """The 64 signed c-values that the generated diagonal scale reads,
        from the 32 coefficients b of a right operand, in one generated
        pass; linops.block_diagonal_scale picks each lane's.

        compute_c counts the pass's 32 additions.  Raises ValueError if
        _factorized.diagonal_scale was generated from other blocks, which
        the first call checks: the generator builds a spec while the module
        may be stale, so building one runs no generated code.
        """
        if len(b) != 32:
            raise ValueError(f"expected 32 coefficients, got {len(b)}")
        if self._generated is None:
            self._generated = self._generated_from_blocks()
        if not self._generated:
            raise ValueError(
                "_factorized.diagonal_scale was generated from other blocks; "
                "regenerate it with python -m kaluza.codegen"
            )
        return _factorized.signed_c_values(b)


@cache
def derive_diagonal_spec(table: CayleyTable | None = None) -> DiagonalSpec:
    """Resolve each 2x2 block over the coefficient pairs to two c-references.

    Each pair is an orbit {u, e1*u} of left multiplication by e1, which
    commutes with M(b); so the block at (row pair r, column pair k) is
    [[A, B], [B, A]] with A = +/-b_u, B = +/-b_v for one pair t = (u, v),
    and its eigenvalues (A+B)/2, (A-B)/2 are +/-c[2t] or +/-c[2t+1].
    The pairs are coefficient_pairs(table), so an order that does not
    name each of that table's orbits once is refused first.  Raises if a
    block is not bisymmetric or (A, B) is not such a pair in that order:
    the table and the pairing would disagree.  Cached per table.
    """
    sym = symbolic_mul_matrix(table)
    pairs = coefficient_pairs(table)
    pair_index = {pair: t for t, pair in enumerate(pairs)}
    blocks = [[] for _ in pairs]
    for k, (uk, vk) in enumerate(pairs):
        for r, (ur, vr) in enumerate(pairs):
            a, b, c, d = sym[ur][uk], sym[ur][vk], sym[vr][uk], sym[vr][vk]
            if a != d or b != c:
                raise ValueError(
                    f"block ({r}, {k}) of the permuted matrix is not bisymmetric: "
                    f"[[{format_ref(a, 'b')}, {format_ref(b, 'b')}], "
                    f"[{format_ref(c, 'b')}, {format_ref(d, 'b')}]]"
                )
            t = pair_index.get((a[1], b[1]))
            if t is None:
                raise ValueError(
                    f"block ({r}, {k}): A = {format_ref(a, 'b')} and B = "
                    f"{format_ref(b, 'b')} do not refer to a pair's first "
                    f"member and its partner"
                )
            # s_{2r} = (A+B)/2 and s_{2r+1} = (A-B)/2, each +/- c[2t] or c[2t+1]
            sa, sb = a[0], b[0]
            blocks[k] += [(sa, 2 * t + (sa != sb)), (sa, 2 * t + (sa == sb))]
    return DiagonalSpec(blocks)


def compare_printed_diagonal():
    """Diff the derived diagonal references against their rendering.

    Returns (block, slot, derived token, printed token) for every
    disagreement.  The derivation is authoritative (it is generated from
    the basis table), so mismatches document typos in the rendering.
    """
    return diff_printed(derive_diagonal_spec().blocks, printed_diagonal_blocks(), "c")


class FactorizedPipeline:
    """The 64 signed c-values of a fixed right operand b, which the diagonal
    scale reads (compute_c).

    Immutable after construction; mul_fast applies it to as many left
    operands as desired at 512 multiplications and 544 additions each.
    b is a KaluzaNumber, whose coefficients are already floats, so a
    pipeline holds only floats without a float() pass of its own.
    """

    __slots__ = ("signed_c",)

    def __init__(self, b: KaluzaNumber, counter: OpCount | None = None):
        self.signed_c = compute_c(b, counter)

    def materialize(self) -> list[list[float]]:
        """Dense 32x32 matrix of mul_fast with this pipeline, built from unit
        vectors (verification aid)."""
        return materialize(lambda x: mul_fast(KaluzaNumber(x), self).coeffs, 32)


def build_pipeline(b: KaluzaNumber, counter: OpCount | None = None) -> FactorizedPipeline:
    """Preprocess a right operand into a reusable pipeline.

    Costs 32 additions (the c-values); negating them applies signs only
    and is free.
    """
    return FactorizedPipeline(b, counter)


def mul_fast(a: KaluzaNumber, p: FactorizedPipeline, counter: OpCount | None = None) -> KaluzaNumber:
    """Multiply via a prebuilt pipeline: 512 multiplications, 544 additions.

    Every value is a float from a or from the pipeline, so the result is
    wrapped without a float() pass.
    """
    x = apply_permutation(PAIRING_PERMUTATION, a.coeffs)
    x = hadamard_pairs(x, counter)  # 32 additions
    x = replicate_pairs(x)
    x = block_diagonal_scale(x, p.signed_c, counter)  # 512 multiplications
    x = fan_in_sum(x, counter)  # 480 additions
    x = hadamard_pairs(x, counter)  # 32 additions
    x = apply_permutation(PAIRING_PERMUTATION, x)
    return wrap_result(tuple(x))


# Every engine by name: (prepare a right operand, or None to take it as it
# is; multiply), each taking an optional OpCount last.  It sits here, in the
# lowest module that sees all three engines.
ENGINES = {
    "naive": (None, mul_naive),
    "dense": (build_mul_matrix, mul_dense),
    "fast": (build_pipeline, mul_fast),
}


def count_operations(engine: str, include_preprocessing: bool = True) -> OpCount:
    """Run one instrumented product on fixed operands and return the tally."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
    prepare, multiply = ENGINES[engine]
    a = KaluzaNumber(range(1, 33))
    b = KaluzaNumber(range(2, 34))
    counter = OpCount()
    if prepare is not None:
        b = prepare(b, counter if include_preprocessing else None)
    multiply(a, b, counter)
    return counter
