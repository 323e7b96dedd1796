"""Kaluza numbers and the direct, table-driven multiplication.

The direct product accumulates all 1024 signed coefficient products, so
it doubles as the oracle that every faster engine is checked against.
It runs as straight-line code generated from the basis table
(_direct.py, written by ``python -m kaluza.codegen``): one left-nested
sum per output slot, its terms in table-row order.  The dense product
has the same shape by hand, one left-nested sum per matrix row.
The integer bounds within which each engine is bit-exact, and the
dynamic range within which its results stay finite, are stated once, in
README.md ("How the fast engine works"); nothing here checks them at
run time.
"""

from functools import cache

from . import _direct, fixtures
from .cayley import TABLE, CayleyTable
from .linops import OpCount


class KaluzaNumber:
    """32 real coefficients over the basis (1, e1, ..., e31)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = tuple(map(float, coeffs))
        if len(c) != 32:
            raise ValueError(f"expected 32 coefficients, got {len(c)}")
        self.coeffs = c

    @classmethod
    def basis(cls, index: int) -> "KaluzaNumber":
        if not 0 <= index <= 31:
            raise IndexError(f"basis index must be in 0..31, got {index}")
        c = [0.0] * 32
        c[index] = 1.0
        return cls(c)

    @classmethod
    def from_text(cls, text: str) -> "KaluzaNumber":
        """Parse 32 whitespace-separated decimals; '#' starts a comment.

        Raises ValueError naming the 1-based line and column of a token
        that is not a decimal or comes after the 32nd value.  Any token
        float() accepts is taken, non-finite ones included.
        """
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            end = 0
            for tok in body.split():
                start = body.index(tok, end)
                end = start + len(tok)
                where = f"line {lineno}, column {start + 1}"
                if len(values) == 32:
                    raise ValueError(f"{where}: unexpected 33rd value {tok!r}")
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ValueError(f"{where}: {tok!r} is not a decimal number") from None
        if len(values) != 32:
            found = f"expected 32 values, found {len(values)}"
            raise ValueError(f"{found} (last one at {where})" if values else found)
        return cls(values)

    def to_text(self) -> str:
        return " ".join(f"{v:.17g}" for v in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, KaluzaNumber) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = [
            (f"{v:g}" if i == 0 else f"{v:g}*e{i}")
            for i, v in enumerate(self.coeffs)
            if v != 0.0
        ]
        return f"KaluzaNumber<{' + '.join(terms) if terms else '0'}>"


def wrap_result(coeffs: tuple) -> KaluzaNumber:
    """A KaluzaNumber around a generated engine's 32-tuple, as it is.

    No float() pass and no length check: products and sums of the floats
    in KaluzaNumbers and pipelines are floats, and the generated code
    returns exactly 32 of them.
    """
    out = object.__new__(KaluzaNumber)
    out.coeffs = coeffs
    return out


def mul_naive(a: KaluzaNumber, b: KaluzaNumber, counter: OpCount | None = None) -> KaluzaNumber:
    """Direct product: route all 1024 signed terms through the table.

    Exactly 1024 real multiplications and 992 real additions: each output
    slot takes one term from every table row, and its first term, from
    the identity row, is a move, not an addition.  The straight-line code
    in _direct.py, generated from the table, sums each slot in row order;
    the counts are tallied from that code.
    """
    out = _direct.mul_direct(a.coeffs, b.coeffs)
    if counter is not None:
        counter.count(*_direct.MUL_DIRECT_OPS, stage="direct")
    return wrap_result(out)


@cache
def symbolic_mul_matrix(table: CayleyTable | None = None):
    """The multiplication matrix with symbolic entries.

    Grid entry (k, i) is the signed b-index that multiplies a_i into
    output coefficient k: e_i * e_j = sign * e_k puts (sign, j) there.
    Each (k, i) slot is hit exactly once because every table row is a
    signed permutation.  Computed once per table.
    """
    t = (TABLE if table is None else table).entries
    grid = [[None] * 32 for _ in range(32)]
    for i in range(32):
        for j in range(32):
            s, k = t[i][j]
            if grid[k][i] is not None:
                raise ValueError(f"table row {i} is not a signed permutation")
            grid[k][i] = (s, j)
    return tuple(tuple(row) for row in grid)


def build_mul_matrix(b: KaluzaNumber, counter: OpCount | None = None) -> tuple[tuple[float, ...], ...]:
    """The 32 rows of M(b), with mul(a, b) = M(b) applied to a.

    Every entry is a signed copy of one b-coefficient, never a sum: the
    straight-line _direct.mul_matrix, generated from symbolic_mul_matrix(),
    negates each coefficient it needs once and lays out the rows: no
    arithmetic.  KaluzaNumber has already validated those coefficients.
    """
    if counter is not None:
        counter.count(*_direct.MUL_MATRIX_OPS, stage="prepare")
    return _direct.mul_matrix(b.coeffs)


def mul_dense(a: KaluzaNumber, rows, counter: OpCount | None = None) -> KaluzaNumber:
    """Plain dense matrix-vector product: 1024 multiplications, 992 additions.

    Each row is one left-nested sum r0*a0 + r1*a1 + ... + r31*a31.  A row
    that is not 32 entries long, or a matrix that is not 32 rows, raises
    ValueError and counts nothing.  Its tally is mul_naive's (same shape).
    """
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
     a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31) = a.coeffs
    out = KaluzaNumber([
        r0 * a0 + r1 * a1 + r2 * a2 + r3 * a3 + r4 * a4 + r5 * a5 + r6 * a6 + r7 * a7
        + r8 * a8 + r9 * a9 + r10 * a10 + r11 * a11 + r12 * a12 + r13 * a13 + r14 * a14
        + r15 * a15 + r16 * a16 + r17 * a17 + r18 * a18 + r19 * a19 + r20 * a20 + r21 * a21
        + r22 * a22 + r23 * a23 + r24 * a24 + r25 * a25 + r26 * a26 + r27 * a27 + r28 * a28
        + r29 * a29 + r30 * a30 + r31 * a31
        for (r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15,
             r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31)
        in rows
    ])
    if counter is not None:
        counter.count(*_direct.MUL_DIRECT_OPS, stage="direct")
    return out


def compare_printed_blocks(table: CayleyTable | None = None):
    """Diff the derived symbolic matrix against its reference rendering.

    Returns (row, column, derived token, printed token) for every cell
    that disagrees.  The basis table is authoritative, so a mismatch
    documents a typo in the rendering, not an error in the derivation.
    """
    return fixtures.diff_printed(
        symbolic_mul_matrix(table), fixtures.printed_mul_matrix(), "b"
    )
