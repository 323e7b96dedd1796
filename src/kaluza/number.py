"""Kaluza numbers and the direct, table-driven multiplication.

The direct product accumulates all 1024 signed coefficient products, so
it doubles as the oracle that every faster engine is checked against.
Floating-point note (nothing here is checked at run time): table signs
are +/-1, so with integer coefficients and 32*max|a|*max|b| <= 2**53
every intermediate is exact and results are bit-exact; the factorized
engine needs 64*max|a|*max|b| <= 2**53, e.g. |coefficients| <= 2**23.
Results stay finite while 32*max|a|*max|b| <= 2**1023 here.  The
factorized engine doubles a and b in butterflies, sums 16 diagonal
products and doubles again, so it needs max|a|, max|b| <= 2**1022 and
64*max|a|*max|b| <= 2**1023; b = [1e308]*32 times e0 gives NaN.  Its
halving also loses subnormals: 2**-1074*e3 times e0 gives 0.0, not
5e-324.  Non-finite inputs propagate per IEEE semantics.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter, neg

from . import fixtures
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


# Flattened table rows for the hot loop below.
_SIGNS = tuple(tuple(s for s, _ in row) for row in TABLE.entries)
_INDICES = tuple(tuple(k for _, k in row) for row in TABLE.entries)


def mul_naive(a: KaluzaNumber, b: KaluzaNumber, counter: OpCount | None = None) -> KaluzaNumber:
    """Direct product: route all 1024 signed terms through the table.

    Exactly 1024 real multiplications and 992 real additions: the
    identity row deposits the first term into every output slot (a move,
    not an addition), and each of the remaining 31 rows adds one term
    per column.
    """
    av, bv = a.coeffs, b.coeffs
    a0 = av[0]
    out = [a0 * bj for bj in bv]  # row 0 is the identity row: e0*ej = ej
    for i in range(1, 32):
        ai = av[i]
        signs = _SIGNS[i]
        idxs = _INDICES[i]
        for j in range(32):
            t = ai * bv[j]
            if signs[j] < 0:
                out[idxs[j]] -= t
            else:
                out[idxs[j]] += t
    if counter is not None:
        counter.count(mults=1024, adds=992)
    return KaluzaNumber(out)


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


def with_negations(values: tuple) -> tuple:
    """The 32 values followed by their negations (free sign changes)."""
    return values + tuple(map(neg, values))


def signed_gather(refs) -> itemgetter:
    """Precomputed gather that copies +v_j or -v_j for each (sign, j) in refs.

    Apply it to with_negations(v): slot j holds +v_j, slot 32 + j -v_j.
    """
    return itemgetter(*(j if s > 0 else 32 + j for (s, j) in refs))


# symbolic_mul_matrix() and symbolic_mul_matrix(None) are separate cache keys;
# passing None, as the table=None callers do, derives the default table once.
_ROW_GATHERS = tuple(signed_gather(row) for row in symbolic_mul_matrix(None))


def build_mul_matrix(b: KaluzaNumber) -> tuple[tuple[float, ...], ...]:
    """The 32 rows of M(b), with mul(a, b) = M(b) applied to a.

    Every entry is a signed copy of one b-coefficient, never a sum: each
    row is one precomputed gather over b's coefficients and their
    negations.  KaluzaNumber has already validated those coefficients.
    """
    signed = with_negations(b.coeffs)
    return tuple([g(signed) for g in _ROW_GATHERS])


def mul_dense(a: KaluzaNumber, rows, counter: OpCount | None = None) -> KaluzaNumber:
    """Plain dense matrix-vector product: 1024 multiplications, 992 additions."""
    av = a.coeffs
    out = []
    for row in rows:
        acc = row[0] * av[0]
        for i in range(1, 32):
            acc += row[i] * av[i]
        out.append(acc)
    if counter is not None:
        counter.count(mults=1024, adds=992)
    return KaluzaNumber(out)


def compare_printed_blocks(table: CayleyTable | None = None):
    """Diff the derived symbolic matrix against its reference rendering.

    Returns (row, column, derived token, printed token) for every cell
    that disagrees.  The basis table is authoritative, so a mismatch
    documents a typo in the rendering, not an error in the derivation.
    """
    return fixtures.diff_printed(
        symbolic_mul_matrix(table), fixtures.printed_mul_matrix(), "b"
    )
