"""The basis multiplication table for Kaluza numbers.

A Kaluza number has one real unit (index 0) and 31 imaginary units
e1..e31.  The product of any two basis elements is another basis element
up to sign, so the whole algebra is pinned down by a 32x32 table of
signed indices.  The table is embedded below as a plain-text grid,
transcribed from the typeset reference tables, so it can be audited cell
by cell.

The typeset source contains a single sign error at row e2, column e22
(printed -e13).  Three independent checks agree it must be +e13: the
reference rendering of the dense multiplication matrix implies +e13, the
rendering of its permuted form implies +e13, and with -e13 the products
(e2*e2)*e22 and e2*(e2*e22) disagree while every other cell of the table
is associativity-consistent.  The correction is applied on load; ERRATA
records it, and the verbatim transcription is kept so nothing is patched
silently.
"""

from __future__ import annotations

QUADRANTS = ("NW", "NE", "SW", "SE")

# Row i, column j holds the token for e_i * e_j (index 0 is the real unit).
# Tokens: "1", "-1", "eK", "-eK".
VERBATIM_TABLE_TEXT = """\
   1   e1   e2   e3   e4   e5   e6   e7   e8   e9  e10  e11  e12  e13  e14  e15  e16  e17  e18  e19  e20  e21  e22  e23  e24  e25  e26  e27  e28  e29  e30  e31
  e1    1   e6   e7   e8   e9   e2   e3   e4   e5  e16  e17  e18  e19  e20  e21  e10  e11  e12  e13  e14  e15  e26  e27  e28  e29  e22  e23  e24  e25  e31  e30
  e2  -e6    1  e10  e11  e12  -e1 -e16 -e17 -e18   e3   e4   e5  e22  e23  e24  -e7  -e8  -e9 -e26 -e27 -e28 -e13  e14  e15  e30 -e19 -e20 -e21 -e31  e25 -e29
  e3  -e7 -e10   -1  e13  e14  e16   e1 -e19 -e20   e2 -e22 -e23  -e4  -e5  e25  -e6  e26  e27   e8   e9 -e29  e11  e12 -e30 -e15 -e17 -e18  e31  e21  e24 -e28
  e4  -e8 -e11 -e13   -1  e15  e17  e19   e1 -e21  e22   e2 -e24   e3 -e25  -e5 -e26  -e6  e28  -e7  e29   e9 -e10  e30  e12  e14  e16 -e31 -e18 -e20 -e23  e27
  e5  -e9 -e12 -e14 -e15   -1  e18  e20  e21   e1  e23  e24   e2  e25   e3   e4 -e27 -e28  -e6 -e29  -e7  -e8 -e30 -e10 -e11 -e13  e31  e16  e17  e19  e22 -e26
  e6  -e2   e1  e16  e17  e18   -1 -e10 -e11 -e12   e7   e8   e9  e26  e27  e28  -e3  -e4  -e5 -e22 -e23 -e24  e19  e20  e21  e31 -e13 -e14 -e15 -e30  e29 -e25
  e7  -e3 -e16  -e1  e19  e20  e10    1 -e13 -e14   e6 -e26 -e27  -e8  -e9  e29  -e2  e22  e23   e4   e5 -e25  e17  e18 -e31 -e21 -e11 -e12  e30  e15  e28 -e24
  e8  -e4 -e17 -e19  -e1  e21  e11  e13    1 -e15  e26   e6 -e28   e7 -e29  -e9 -e22  -e2  e24  -e3  e25   e5 -e16  e31  e18  e20  e10 -e30 -e12 -e14 -e27  e23
  e9  -e5 -e18 -e20 -e21  -e1  e12  e14  e15    1  e27  e28   e6  e29   e7   e8 -e23 -e24  -e2 -e25  -e3  -e4 -e31 -e16 -e17 -e19  e30  e10  e11  e13  e26 -e22
 e10  e16  -e3  -e2  e22  e23  -e7  -e6  e26  e27    1 -e13 -e14 -e11 -e12  e30   e1 -e19 -e20 -e17 -e18  e31   e4   e5 -e25 -e24   e8   e9 -e29 -e28  e15  e21
 e11  e17  -e4 -e22  -e2  e24  -e8 -e26  -e6  e28  e13    1 -e15  e10 -e30 -e12  e19   e1 -e21  e16 -e31 -e18  -e3  e25   e5  e23  -e7  e29   e9  e27 -e14 -e20
 e12  e18  -e5 -e23 -e24  -e2  -e9 -e27 -e28  -e6  e14  e15    1  e30  e10  e11  e20  e21   e1  e31  e16  e17 -e25  -e3  -e4 -e22 -e29  -e7  -e8 -e26  e13  e19
 e13  e19  e22   e4  -e3  e25  e26   e8  -e7  e29  e11 -e10  e30   -1  e15 -e14  e17 -e16  e31  -e1  e21 -e20  -e2  e24 -e23  -e5  -e6  e28 -e27  -e9 -e12 -e18
 e14  e20  e23   e5 -e25  -e3  e27   e9 -e29  -e7  e12 -e30 -e10 -e15   -1  e13  e18 -e31 -e16 -e21  -e1  e19 -e24  -e2  e22   e4 -e28  -e6  e26   e8  e11  e17
 e15  e21  e24  e25   e5  -e4  e28  e29   e9  -e8  e30  e12 -e11  e14 -e13   -1  e31  e18 -e17  e20 -e19  -e1  e23 -e22  -e2  -e3  e27 -e26  -e6  -e7 -e10 -e16
 e16  e10  -e7  -e6  e26  e27  -e3  -e2  e22  e23   e1 -e19 -e20 -e17 -e18  e31    1 -e13 -e14 -e11 -e12  e30   e8   e9 -e29 -e28   e4   e5 -e25 -e24  e21  e15
 e17  e11  -e8 -e26  -e6  e28  -e4 -e22  -e2  e24  e19   e1 -e21  e16 -e31 -e18  e13    1 -e15  e10 -e30 -e12  -e7  e29   e9  e27  -e3  e25   e5  e23 -e20 -e14
 e18  e12  -e9 -e27 -e28  -e6  -e5 -e23 -e24  -e2  e20  e21   e1  e31  e16  e17  e14  e15    1  e30  e10  e11 -e29  -e7  -e8 -e26 -e25  -e3  -e4 -e22  e19  e13
 e19  e13  e26   e8  -e7  e29  e22   e4  -e3  e25  e17 -e16  e31  -e1  e21 -e20  e11 -e10  e30   -1  e15 -e14  -e6  e28 -e27  -e9  -e2  e24 -e23  -e5 -e18 -e12
 e20  e14  e27   e9 -e29  -e7  e23   e5 -e25  -e3  e18 -e31 -e16 -e21  -e1  e19  e12 -e30 -e10 -e15   -1  e13 -e28  -e6  e26   e8 -e24  -e2  e22   e4  e17  e11
 e21  e15  e28  e29   e9  -e8  e24  e25   e5  -e4  e31  e18 -e17  e20 -e19  -e1  e30  e12 -e11  e14 -e13   -1  e27 -e26  -e6  -e7  e23 -e22  -e2  -e3 -e16 -e10
 e22 -e26  e13  e11 -e10  e30 -e19 -e17  e16 -e31   e4  -e3  e25  -e2  e24 -e23  -e8   e7 -e29   e6 -e28  e27   -1  e15 -e14 -e12   e1 -e21  e20  e18  -e5   e9
 e23 -e27  e14  e12 -e30 -e10 -e20 -e18  e31  e16   e5 -e25  -e3 -e24  -e2  e22  -e9  e29   e7  e28   e6 -e26 -e15   -1  e13  e11  e21   e1 -e19 -e17   e4  -e8
 e24 -e28  e15  e30  e12 -e11 -e21 -e31 -e18  e17  e25   e5  -e4  e23 -e22  -e2 -e29  -e9   e8 -e27  e26   e6  e14 -e13   -1 -e10 -e20  e19   e1  e16  -e3   e7
 e25 -e29 -e30 -e15  e14 -e13  e31  e21 -e20  e19  e24 -e23  e22  -e5   e4  -e3 -e28  e27 -e26   e9  -e8   e7  e12 -e11  e10    1 -e18  e17 -e16  -e1  -e2   e6
 e26 -e22  e19  e17 -e16  e31 -e13 -e11  e10 -e30   e8  -e7  e29  -e6  e28 -e27  -e4   e3 -e25   e2 -e24  e23  -e1  e21 -e20 -e18    1 -e15  e14  e12  -e9   e5
 e27 -e23  e20  e18 -e31 -e16 -e14 -e12  e30  e10   e9 -e29  -e7 -e28  -e6  e26  -e5  e25   e3  e24   e2 -e22 -e21  -e1  e19  e17  e15    1 -e13 -e11   e8  -e4
 e28 -e24  e21  e31  e18 -e17 -e15 -e30 -e12  e11  e29   e9  -e8  e27 -e26  -e6 -e25  -e5   e4 -e23  e22   e2  e20 -e19  -e1 -e16 -e14  e13    1  e10  -e7   e3
 e29 -e25 -e31 -e21  e20 -e19  e30  e15 -e14  e13  e28 -e27  e26  -e9   e8  -e7 -e24  e23 -e22   e5  -e4   e3  e18 -e17  e16   e1 -e12  e11 -e10   -1  -e6   e2
 e30  e31 -e25 -e24  e23 -e22 -e29 -e28  e27 -e26  e15 -e14  e13 -e12  e11 -e10  e21 -e20  e19 -e18  e17 -e16   e5  -e4   e3   e2   e9  -e8   e7   e6   -1  -e1
 e31  e30 -e29 -e28  e27 -e26 -e25 -e24  e23 -e22  e21 -e20  e19 -e18  e17 -e16  e15 -e14  e13 -e12  e11 -e10   e9  -e8   e7   e6   e5  -e4   e3   e2  -e1   -1
"""

# (row, column, corrected token).  VERBATIM_TABLE_TEXT keeps the printed
# value; the operative TABLE gets the correction.
ERRATA = ((2, 22, "e13"),)


def parse_token(tok: str) -> tuple[int, int]:
    """(sign, index) of a basis token: e_i * e_j = sign * e_index."""
    sign = -1 if tok.startswith("-") else 1
    body = tok[1:] if tok[0] in "+-" else tok
    if body == "1":
        return (sign, 0)
    if body.startswith("e") and body[1:].isdigit():
        index = int(body[1:])
        if 1 <= index <= 31:
            return (sign, index)
    raise ValueError(f"bad basis token {tok!r}")


def format_token(p: tuple[int, int]) -> str:
    sign, index = p
    body = "1" if index == 0 else f"e{index}"
    return f"-{body}" if sign < 0 else body


class CayleyTable:
    """Immutable 32x32 grid of (sign, index) pairs; rows are left factors.

    The constructor checks only the shape.  Content rules (identity row
    and column, signed-permutation rows and columns, unit squares on the
    diagonal) are checked by validate_table, which reports violations as
    data instead of refusing to build the object.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple((int(s), int(k)) for (s, k) in row) for row in entries)
        if len(rows) != 32 or any(len(r) != 32 for r in rows):
            raise ValueError("expected a 32x32 grid of (sign, index) entries")
        self.entries = rows

    @classmethod
    def from_text(cls, text: str) -> "CayleyTable":
        rows = [[parse_token(t) for t in line.split()] for line in text.strip().splitlines()]
        return cls(rows)

    def entry(self, i: int, j: int) -> tuple[int, int]:
        if not (0 <= i <= 31 and 0 <= j <= 31):
            raise IndexError(f"basis indices must be in 0..31, got ({i}, {j})")
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, CayleyTable) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


VERBATIM_TABLE = CayleyTable.from_text(VERBATIM_TABLE_TEXT)


def _apply_errata(table: CayleyTable) -> CayleyTable:
    rows = [list(r) for r in table.entries]
    for i, j, token in ERRATA:
        rows[i][j] = parse_token(token)
    return CayleyTable(rows)


TABLE = _apply_errata(VERBATIM_TABLE)


def basis_mul(i: int, j: int) -> tuple[int, int]:
    """Product of basis elements e_i and e_j (e_0 is the real unit)."""
    return TABLE.entry(i, j)


def validate_table(table: CayleyTable) -> list[str]:
    """Check every table invariant; a clean table yields an empty list.

    Violations come back as human-readable strings naming the rule and
    the offending row/column, so callers can print them directly.
    """
    problems = []
    ent = table.entries

    for i in range(32):
        for j in range(32):
            s, k = ent[i][j]
            if s not in (1, -1):
                problems.append(f"entry ({i}, {j}): sign {s} is not +1 or -1")
            if not 0 <= k <= 31:
                problems.append(f"entry ({i}, {j}): result index {k} out of range")

    for j in range(32):
        if ent[0][j] != (1, j):
            problems.append(
                f"identity-row violation at (0, {j}): got {format_token(ent[0][j])}, "
                f"want {format_token((1, j))}"
            )
    for i in range(32):
        if ent[i][0] != (1, i):
            problems.append(
                f"identity-column violation at ({i}, 0): got {format_token(ent[i][0])}, "
                f"want {format_token((1, i))}"
            )

    for i in range(32):
        seen = {}
        for j in range(32):
            seen.setdefault(ent[i][j][1], []).append(j)
        for k, cols in seen.items():
            if len(cols) > 1:
                problems.append(
                    f"row {i}: signed-permutation violation, result index {k} "
                    f"appears in columns {cols}"
                )
    for j in range(32):
        seen = {}
        for i in range(32):
            seen.setdefault(ent[i][j][1], []).append(i)
        for k, rows_ in seen.items():
            if len(rows_) > 1:
                problems.append(
                    f"column {j}: signed-permutation violation, result index {k} "
                    f"appears in rows {rows_}"
                )

    for i in range(32):
        if ent[i][i][1] != 0:
            problems.append(
                f"diagonal violation at ({i}, {i}): square is "
                f"{format_token(ent[i][i])}, not +1 or -1"
            )

    return problems


def dump_table(table: CayleyTable, quadrant: str) -> str:
    """Render one 16x16 quadrant (NW, NE, SW or SE) as a text grid.

    Deterministic formatting.  Joining the four quadrants row by row
    gives text that CayleyTable.from_text parses back.
    """
    try:
        qi = QUADRANTS.index(quadrant.upper())
    except ValueError:
        raise ValueError(f"quadrant must be one of {', '.join(QUADRANTS)}") from None
    r0 = 16 * (qi // 2)
    c0 = 16 * (qi % 2)
    lines = []
    for i in range(r0, r0 + 16):
        cells = [format_token(table.entries[i][j]) for j in range(c0, c0 + 16)]
        lines.append(" ".join(c.rjust(4) for c in cells).rstrip())
    return "\n".join(lines) + "\n"
