"""Reference renderings kept as concordance fixtures.

Two structures that this package derives from the basis table were also
rendered, cell by cell, in the typeset reference material: the dense
multiplication matrix (as signed b-coefficient symbols) and the sixteen
32-entry diagonal blocks of the factorized pipeline (as signed c-vector
symbols).  Those renderings are transcribed here verbatim; cayley's
parse_grid reads them and its format_ref prints their tokens.

They are never used to build anything.  The embedded basis table is the
only ground truth; the derivations are mechanical.  Diffing the derived
structures against these transcriptions (diff_printed, behind
number.compare_printed_blocks and fastmul.compare_printed_diagonal)
therefore doubles as a typo report for the renderings themselves, and
the known typos are listed in the README.
"""

from .cayley import format_ref, parse_grid, signed_refs

# 32x32 grid; entry (k, i) is the signed b-coefficient that multiplies a_i
# into output coefficient k.  Tokens "bJ" / "-bJ".
PRINTED_MUL_MATRIX_TEXT = """\
  b0   b1   b2  -b3  -b4  -b5  -b6   b7   b8   b9  b10  b11  b12 -b13 -b14 -b15  b16  b17  b18 -b19 -b20 -b21 -b22 -b23 -b24  b25  b26  b27  b28 -b29 -b30 -b31
  b1   b0  -b6   b7   b8   b9   b2  -b3  -b4  -b5  b16  b17  b18 -b19 -b20 -b21  b10  b11  b12 -b13 -b14 -b15  b26  b27  b28 -b29 -b22 -b23 -b24  b25 -b31 -b30
  b2   b6   b0  b10  b11  b12  -b1 -b16 -b17 -b18  -b3  -b4  -b5 -b22 -b23 -b24  -b7  -b8  -b9 -b26 -b27 -b28 -b13 -b14 -b15 -b30  b19  b20  b21  b31  b25  b29
  b3   b7  b10   b0  b13  b14 -b16  -b1 -b19 -b20  -b2 -b22 -b23  -b4  -b5 -b25  -b6 -b26 -b27  -b8  -b9 -b29 -b11 -b12 -b30 -b15  b17  b18  b31  b21  b24  b28
  b4   b8  b11 -b13   b0  b15 -b17  b19  -b1 -b21  b22  -b2 -b24   b3  b25  -b5  b26  -b6 -b28   b7  b29  -b9  b10  b30 -b12  b14 -b16 -b31  b18 -b20 -b23 -b27
  b5   b9  b12 -b14 -b15   b0 -b18  b20  b21  -b1  b23  b24  -b2 -b25   b3   b4  b27  b28  -b6 -b29   b7   b8 -b30  b10  b11 -b13  b31 -b16 -b17  b19  b22  b26
  b6   b2  -b1 -b16 -b17 -b18   b0  b10  b11  b12  -b7  -b8  -b9 -b26 -b27 -b28  -b3  -b4  -b5 -b22 -b23 -b24  b19  b20  b21  b31 -b13 -b14 -b15 -b30  b29  b25
  b7   b3 -b16  -b1 -b19 -b20  b10   b0  b13  b14  -b6 -b26 -b27  -b8  -b9 -b29  -b2 -b22 -b23  -b4  -b5 -b25  b17  b18  b31  b21 -b11 -b12 -b30 -b15  b28  b24
  b8   b4 -b17  b19  -b1 -b21  b11 -b13   b0  b15  b26  -b6 -b28   b7  b29  -b9  b22  -b2 -b24   b3  b25  -b5 -b16 -b31  b18 -b20  b10  b30 -b12  b14 -b27 -b23
  b9   b5 -b18  b20  b21  -b1  b12 -b14 -b15   b0  b27  b28  -b6 -b29   b7   b8  b23  b24  -b2 -b25   b3   b4  b31 -b16 -b17  b19 -b30  b10  b11 -b13  b26  b22
 b10  b16   b3  -b2 -b22 -b23  -b7   b6  b26  b27   b0  b13  b14 -b11 -b12 -b30   b1  b19  b20 -b17 -b18 -b31  -b4  -b5 -b25  b24   b8   b9  b29 -b28 -b15 -b21
 b11  b17   b4  b22  -b2 -b24  -b8 -b26   b6  b28 -b13   b0  b15  b10  b30 -b12 -b19   b1  b21  b16  b31 -b18   b3  b25  -b5 -b23  -b7 -b29   b9  b27  b14  b20
 b12  b18   b5  b23  b24  -b2  -b9 -b27 -b28   b6 -b14 -b15   b0 -b30  b10  b11 -b20 -b21   b1 -b31  b16  b17 -b25   b3   b4  b22  b29  -b7  -b8 -b26 -b13 -b19
 b13  b19  b22   b4  -b3 -b25 -b26  -b8   b7  b29 -b11  b10  b30   b0  b15 -b14 -b17  b16  b31   b1  b21 -b20   b2  b24 -b23  -b5  -b6 -b28  b27   b9  b12  b18
 b14  b20  b23   b5  b25  -b3 -b27  -b9 -b29   b7 -b12 -b30  b10 -b15   b0  b13 -b18 -b31  b16 -b21   b1  b19 -b24   b2  b22   b4  b28  -b6 -b26  -b8 -b11 -b17
 b15  b21  b24 -b25   b5  -b4 -b28  b29  -b9   b8  b30 -b12  b11  b14 -b13   b0  b31 -b18  b17  b20 -b19   b1  b23 -b22   b2  -b3 -b27  b26  -b6   b7  b10  b16
 b16  b10  -b7   b6  b26  b27   b3  -b2 -b22 -b23   b1  b19  b20 -b17 -b18 -b31   b0  b13  b14 -b11 -b12 -b30   b8   b9  b29 -b28  -b4  -b5 -b25  b24 -b21 -b15
 b17  b11  -b8 -b26   b6  b28   b4  b22  -b2 -b24 -b19   b1  b21  b16  b31 -b18 -b13   b0  b15  b10  b30 -b12  -b7 -b29   b9  b27   b3  b25  -b5 -b23  b20  b14
 b18  b12  -b9 -b27 -b28   b6   b5  b23  b24  -b2 -b20 -b21   b1 -b31  b16  b17 -b14 -b15   b0 -b30  b10  b11  b29  -b7  -b8 -b26 -b25   b3   b4  b22 -b19 -b13
 b19  b13 -b26  -b8   b7  b29  b22   b4  -b3 -b25 -b17  b16  b31   b1  b21 -b20 -b11  b10  b30   b0  b15 -b14  -b6 -b28  b27   b9   b2  b24 -b23  -b5  b18  b12
 b20  b14 -b27  -b9 -b29   b7  b23   b5  b25  -b3 -b18 -b31  b16 -b21   b1  b19 -b12 -b30  b10 -b15   b0  b13  b28  -b6 -b26  -b8 -b24   b2  b22   b4 -b17 -b11
 b21  b15 -b28  b29  -b9   b8  b24 -b25   b5  -b4  b31 -b18  b17  b20 -b19   b1  b30 -b12  b11  b14 -b13   b0 -b27  b26  -b6   b7  b23 -b22   b2  -b3  b16  b10
 b22  b26  b13 -b11  b10  b30 -b19  b17 -b16 -b31   b4  -b3 -b25   b2  b24 -b23   b8  -b7 -b29   b6  b28 -b27   b0  b15 -b14  b12  -b1 -b21  b20 -b18  -b5  -b9
 b23  b27  b14 -b12 -b30  b10 -b20  b18  b31 -b16   b5  b25  -b3 -b24   b2  b22   b9  b29  -b7 -b28   b6  b26 -b15   b0  b13 -b11  b21  -b1 -b19  b17   b4   b8
 b24  b28  b15  b30 -b12  b11 -b21 -b31  b18 -b17 -b25   b5  -b4  b23 -b22   b2 -b29   b9  -b8  b27 -b26   b6  b14 -b13   b0  b10 -b20  b19  -b1 -b16  -b3  -b7
 b25  b29  b30  b15 -b14  b13 -b31 -b21  b20 -b19 -b24  b23 -b22   b5  -b4   b3 -b28  b27 -b26   b9  -b8   b7  b12 -b11  b10   b0 -b18  b17 -b16  -b1  -b2  -b6
 b26  b22 -b19  b17 -b16 -b31  b13 -b11  b10  b30   b8  -b7 -b29   b6  b28 -b27   b4  -b3 -b25   b2  b24 -b23  -b1 -b21  b20 -b18   b0  b15 -b14  b12  -b9  -b5
 b27  b23 -b20  b18  b31 -b16  b14 -b12 -b30  b10   b9  b29  -b7 -b28   b6  b26   b5  b25  -b3 -b24   b2  b22  b21  -b1 -b19  b17 -b15   b0  b13 -b11   b8   b4
 b28  b24 -b21 -b31  b18 -b17  b15  b30 -b12  b11 -b29   b9  -b8  b27 -b26   b6 -b25   b5  -b4  b23 -b22   b2 -b20  b19  -b1 -b16  b14 -b13   b0  b10  -b7  -b3
 b29  b25 -b31 -b21  b20 -b19  b30  b15 -b14  b13 -b28  b27 -b26   b9  -b8   b7 -b24  b23 -b22   b5  -b4   b3 -b18  b17 -b16  -b1  b12 -b11  b10   b0  -b6  -b2
 b30  b31  b25 -b24  b23 -b22 -b29  b28 -b27  b26  b15 -b14  b13  b12 -b11  b10  b21 -b20  b19  b18 -b17  b16   b5  -b4   b3  -b2  -b9   b8  -b7   b6   b0   b1
 b31  b30 -b29  b28 -b27  b26  b25 -b24  b23 -b22  b21 -b20  b19  b18 -b17  b16  b15 -b14  b13  b12 -b11  b10  -b9   b8  -b7   b6   b5  -b4   b3  -b2   b1   b0
"""

# 16 rows of 32 tokens; row k holds the rendered diagonal block k, i.e. the
# signed c-references s_0..s_31 for block column k.  Tokens "cJ" / "-cJ".
PRINTED_DIAGONAL_TEXT = """\
  c0   c1   c2   c3   c4   c5   c6   c7   c8   c9  c10  c11  c12  c13  c14  c15  c16  c17  c18  c19  c20  c21  c22  c23  c24  c25  c26  c27  c28  c29  c30  c31
  c3   c2   c1   c0  c17  c16  c11  c10  c13  c12   c7   c6   c9   c8  c27  c26   c5   c4 -c22 -c23  c25  c24  c19  c18  c21  c20  c15  c14  c31  c30  c29  c28
 -c5  -c4  c17  c16   c1   c0  c19  c18 -c21 -c20 -c23 -c22  c25  c24  c29  c28  -c3  -c2  -c7  -c6   c9   c8  c11  c10 -c13 -c12 -c31 -c30 -c15 -c14  c27  c26
 -c7  -c6  c11  c10 -c19 -c18   c1   c0 -c15 -c14  -c3  -c2  c27  c26   c9   c8  c23  c22   c5   c4 -c29 -c28 -c17 -c16  c31  c30 -c13 -c12  c21  c20 -c25 -c24
 -c9  -c8  c13  c12  c21  c20  c15  c14   c1   c0 -c27 -c26  -c3  -c2  -c7  -c6 -c25 -c24 -c29 -c28  -c5  -c4  c31  c30  c17  c16  c11  c10  c19  c18 -c23 -c22
 c10  c11  -c6  -c7  c22  c23  -c2  -c3  c26  c27   c0   c1 -c14 -c15 -c12 -c13 -c18 -c19 -c16 -c17  c30  c31   c4   c5 -c28 -c29   c8   c9 -c24 -c25  c20  c21
 c12  c13  -c8  -c9 -c24 -c25 -c26 -c27  -c2  -c3  c14  c15   c0   c1  c10  c11  c20  c21  c30  c31  c16  c17 -c28 -c29  -c4  -c5  -c6  -c7 -c22 -c23  c18  c19
-c14 -c15 -c26 -c27  c28  c29  -c8  -c9   c6   c7 -c12 -c13  c10  c11   c0   c1  c30  c31  c20  c21 -c18 -c19  c24  c25 -c22 -c23   c2   c3  -c4  -c5 -c16 -c17
 c16  c17  -c4  -c5  -c2  -c3 -c22 -c23  c24  c25  c18  c19 -c20 -c21 -c30 -c31   c0   c1  c10  c11 -c12 -c13  -c6  -c7   c8   c9  c28  c29  c26  c27 -c14 -c15
-c18 -c19 -c22 -c23   c6   c7  -c4  -c5 -c28 -c29 -c16 -c17 -c30 -c31 -c20 -c21  c10  c11   c0   c1  c14  c15   c2   c3  c26  c27 -c24 -c25   c8   c9  c12  c13
-c20 -c21 -c24 -c25  -c8  -c9 -c28 -c29   c4   c5 -c30 -c31  c16  c17  c18  c19 -c12 -c13 -c14 -c15   c0   c1 -c26 -c27   c2   c3  c22  c23   c6   c7  c10  c11
-c23 -c22 -c19 -c18  c11  c10 -c17 -c16 -c31 -c30  -c5  -c4 -c29 -c28 -c25 -c24   c7   c6   c3   c2  c27  c26   c1   c0  c15  c14 -c21 -c20  c13  c12   c9   c8
-c25 -c24 -c21 -c20 -c13 -c12 -c31 -c30  c17  c16 -c29 -c28   c5   c4  c23  c22  -c9  -c8 -c27 -c26   c3   c2 -c15 -c14   c1   c0  c19  c18  c10  c11   c7   c6
-c27 -c26 -c15 -c14  c31  c30 -c13 -c12  c11  c10  -c9  -c8   c7   c6   c3   c2  c29  c28  c25  c24 -c23 -c22  c21  c20 -c19 -c18   c1   c0 -c17 -c16  -c5  -c4
 c29  c28 -c31 -c30  c15  c14 -c21 -c20 -c19 -c18  c25  c24  c23  c22   c5   c4 -c27 -c26  -c9  -c8  -c7  -c6  c13  c12  c11  c10 -c17 -c16   c1   c0  -c3  -c2
-c30 -c31  c28  c29 -c26 -c27  c24  c25  c22  c23 -c20 -c21 -c18 -c19 -c16 -c17  c14  c15  c12  c13  c10  c11  -c8  -c9  -c6  -c7   c4   c5  -c2  -c3   c0   c1
"""


def diff_printed(derived, printed, letter: str):
    """(row, column, derived token, printed token) for every cell that differs.

    Both grids hold (sign, index) pairs and have the same shape.
    """
    return [
        (r, c, format_ref(d, letter), format_ref(p, letter))
        for r, (d_row, p_row) in enumerate(zip(derived, printed))
        for c, (d, p) in enumerate(zip(d_row, p_row))
        if d != p
    ]


def printed_mul_matrix():
    """The rendered multiplication matrix as a 32x32 grid of (sign, b-index)."""
    return signed_refs(parse_grid(PRINTED_MUL_MATRIX_TEXT, "b"), 32, 32)


def printed_diagonal_blocks():
    """The rendered diagonal as 16 blocks of 32 (sign, c-index) references."""
    return signed_refs(parse_grid(PRINTED_DIAGONAL_TEXT, "c"), 16, 32)
