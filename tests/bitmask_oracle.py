"""Independent reconstruction of the 32-element basis, for cross-checking.

The algebra is generated by five anticommuting units g1..g5 with squares
(+1, +1, -1, -1, -1).  A basis element is a subset of generators, encoded
as a 5-bit mask (bit g-1 set means g participates), and the table index
orders subsets by size and then lexicographically by generator tuple,
which reproduces the library's e0..e31 numbering.

Nothing here imports the package's table or multiplication code; the
only shared ground is the index convention, pinned below by construction.
"""

MASK_OF_INDEX = sorted(
    range(32),
    key=lambda m: (bin(m).count("1"), [g for g in range(5) if m >> g & 1]),
)
INDEX_OF_MASK = [0] * 32
for _i, _m in enumerate(MASK_OF_INDEX):
    INDEX_OF_MASK[_m] = _i

# squares of g1..g5; bit positions 0..4
_GEN_SQUARE = (1, 1, -1, -1, -1)


def oracle_basis_mul(i: int, j: int) -> tuple[int, int]:
    """Product e_i * e_j as (sign, index), from the generator relations."""
    a, b = MASK_OF_INDEX[i], MASK_OF_INDEX[j]
    # swaps needed to interleave the two ascending generator strings
    swaps = 0
    t = a >> 1
    while t:
        swaps += bin(t & b).count("1")
        t >>= 1
    sign = -1 if swaps & 1 else 1
    common = a & b
    for g in range(5):
        if common >> g & 1:
            sign *= _GEN_SQUARE[g]
    return sign, INDEX_OF_MASK[a ^ b]


def oracle_mul(x, y):
    """The product x * y of two coefficient vectors, term by term from
    the generator relations.  On integers every sum is a Python int, so
    the result is exact at any size: the one exact product the tests
    compare the engines with."""
    out = [0] * 32
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            s, k = oracle_basis_mul(i, j)
            out[k] += s * xi * yj
    return out
