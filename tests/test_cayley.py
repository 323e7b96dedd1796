"""Basis table: ground truth, validation, quadrant rendering."""

import json
import math
import re

import pytest

import kaluza.cayley as cayley
from bitmask_oracle import oracle_basis_mul
from kaluza.cayley import (
    ERRATA,
    QUADRANTS,
    TABLE,
    VERBATIM_TABLE,
    VERBATIM_TABLE_TEXT,
    CayleyTable,
    dump_table,
    format_ref,
    parse_grid,
    validate_table,
)
from kaluza.fixtures import PRINTED_DIAGONAL_TEXT, PRINTED_MUL_MATRIX_TEXT


def test_known_cells():
    assert TABLE.entries[0][17] == (1, 17)
    assert TABLE.entries[1][2] == (1, 6)
    assert TABLE.entries[2][1] == (-1, 6)
    assert TABLE.entries[3][3] == (-1, 0)
    assert TABLE.entries[31][31] == (-1, 0)


def test_errata_is_the_only_difference_from_the_verbatim_text():
    diffs = [
        (i, j)
        for i in range(32)
        for j in range(32)
        if VERBATIM_TABLE.entries[i][j] != TABLE.entries[i][j]
    ]
    assert diffs == [(i, j) for i, j, _ in ERRATA] == [(2, 22)]
    assert VERBATIM_TABLE.entries[2][22] == (-1, 13)
    assert TABLE.entries[2][22] == (1, 13)


def test_corrected_cell_agrees_with_oracle_and_verbatim_does_not():
    assert TABLE.entries[2][22] == oracle_basis_mul(2, 22)
    assert VERBATIM_TABLE.entries[2][22] != oracle_basis_mul(2, 22)


def test_token_round_trip():
    for tok in ("1", "-1", "e6", "-e31"):
        assert format_ref(parse_grid(tok)[0][0]) == tok
    assert parse_grid("1") == [[(1, 0)]]
    assert parse_grid("-e13") == [[(-1, 13)]]
    with pytest.raises(ValueError):
        parse_grid("e32")
    with pytest.raises(ValueError):
        parse_grid("x3")


@pytest.mark.parametrize("letter", ["e", "b", "c"])
def test_parse_grid_is_the_inverse_of_format_ref(letter):
    for ref in [(s, k) for s in (1, -1) for k in range(32)]:
        assert parse_grid(format_ref(ref, letter), letter) == [[ref]]


def test_parse_grid_rejects_every_spelling_no_printer_writes():
    spellings = [
        ("+e3", "e"), ("e03", "e"), ("e\u0663", "e"), ("e0", "e"), ("+1", "e"),
        ("+c3", "c"), ("c03", "c"), ("b32", "b"), ("1", "b"), ("b4", "c"),
    ]
    for token, letter in spellings:
        with pytest.raises(ValueError, match=f"^bad {letter}-token {re.escape(repr(token))}$"):
            parse_grid(token, letter)


def test_every_embedded_token_is_the_printed_form_of_its_pair():
    for text, letter in (
        (VERBATIM_TABLE_TEXT, "e"),
        (PRINTED_MUL_MATRIX_TEXT, "b"),
        (PRINTED_DIAGONAL_TEXT, "c"),
    ):
        printed = [[format_ref(ref, letter) for ref in row] for row in parse_grid(text, letter)]
        assert printed == [line.split() for line in text.strip().splitlines()]


def test_validation_names_a_duplicated_row_entry():
    rows = [list(r) for r in TABLE.entries]
    rows[5][6] = rows[5][5]  # duplicate a result index within row 5
    report = validate_table(CayleyTable(rows))
    assert any(r.startswith("row 5: signed-permutation") for r in report)
    # the duplicate also breaks column 6's permutation property
    assert any(r.startswith("column 6:") for r in report)


def test_validation_names_an_identity_row_violation():
    rows = [list(r) for r in TABLE.entries]
    rows[0][3] = (1, 4)
    report = validate_table(CayleyTable(rows))
    assert any(r.startswith("identity-row violation at (0, 3)") for r in report)


def test_validation_flags_bad_sign_and_bad_index():
    # a sign other than +/-1 or an index outside 0..31 cannot enter a table,
    # so validate_table never sees one
    rows = [list(r) for r in TABLE.entries]
    for entry in ((2, 40), (2, 4), (1, 40)):
        rows[4][4] = entry
        want = rf"^entry \({entry[0]}, {entry[1]}\) is not a sign \+/-1 and an index 0\.\.31$"
        with pytest.raises(ValueError, match=want):
            CayleyTable(rows)


def test_validation_reports_every_violation_in_rule_order():
    rows = [list(r) for r in TABLE.entries]
    rows[5][6] = rows[5][5]
    rows[0][3] = (1, 4)
    rows[4][4] = (1, 4)
    rows[7][0] = (1, 8)
    assert validate_table(CayleyTable(rows)) == [
        "identity-row violation at (0, 3): got e4, want e3",
        "identity-column violation at (7, 0): got e8, want e7",
        "row 0: signed-permutation violation, result index 4 appears in columns [3, 4]",
        "row 4: signed-permutation violation, result index 4 appears in columns [0, 4]",
        "row 5: signed-permutation violation, result index 0 appears in columns [5, 6]",
        "row 7: signed-permutation violation, result index 8 appears in columns [0, 13]",
        "column 0: signed-permutation violation, result index 8 appears in rows [7, 8]",
        "column 3: signed-permutation violation, result index 4 appears in rows [0, 13]",
        "column 4: signed-permutation violation, result index 4 appears in rows [0, 4]",
        "column 6: signed-permutation violation, result index 0 appears in rows [5, 6]",
        "diagonal violation at (4, 4): square is e4, not +1 or -1",
    ]


def test_dump_round_trips_through_quadrant_parsing():
    nw, ne, sw, se = (dump_table(q).splitlines() for q in QUADRANTS)
    rows = [w + " " + e for w, e in zip(nw, ne)] + [w + " " + e for w, e in zip(sw, se)]
    assert CayleyTable.from_text("\n".join(rows)) == TABLE


def test_dump_rejects_unknown_quadrant():
    with pytest.raises(ValueError):
        dump_table("north")


def test_diagonal_squares():
    # e1..e5 square to +1, +1, -1, -1, -1; beyond that alternates by grade
    squares = [TABLE.entries[i][i] for i in range(32)]
    assert squares[0] == (1, 0)
    assert [s for s, _ in squares[1:6]] == [1, 1, -1, -1, -1]
    assert all(k == 0 for _, k in squares)
    # grade-5 element squares to -1
    assert squares[31] == (-1, 0)


def test_constructor_rejects_bad_shape():
    with pytest.raises(ValueError):
        CayleyTable([[(1, 0)] * 32] * 31)
    with pytest.raises(ValueError):
        CayleyTable([[(1, 0)] * 31] * 32)


def test_from_text_parses_each_distinct_token_once(monkeypatch):
    # the work is per distinct token, not per cell: the 64 pairs are
    # printed once each, and each of the 1024 cells is one lookup
    per_token = tuple(
        tuple(parse_grid(t)[0][0] for t in line.split())
        for line in VERBATIM_TABLE_TEXT.strip().splitlines()
    )
    calls = []
    monkeypatch.setattr(
        cayley, "format_ref", lambda ref, letter="e": calls.append(ref) or format_ref(ref, letter)
    )
    assert CayleyTable.from_text(VERBATIM_TABLE_TEXT).entries == per_token
    assert len(calls) == len(set(calls)) == 64


def test_from_text_names_the_first_bad_token_in_row_major_order():
    rows = [line.split() for line in VERBATIM_TABLE_TEXT.strip().splitlines()]
    rows[1][20] = "x9"  # first in row-major order, last in sorted order
    rows[3][5] = "e40"
    with pytest.raises(ValueError, match=r"^bad e-token 'x9'$"):
        CayleyTable.from_text("\n".join(" ".join(r) for r in rows))


def test_from_text_rejects_a_31_row_grid():
    text = "\n".join(VERBATIM_TABLE_TEXT.strip().splitlines()[:31])
    with pytest.raises(ValueError, match=r"^expected a 32x32 grid"):
        CayleyTable.from_text(text)


def test_constructor_rejects_non_integral_entries():
    rows = [list(r) for r in TABLE.entries]
    rows[3][5] = (-1.7, 14.9)  # used to build as (-1, 14), which validate_table accepts
    want = r"^entry \(-1\.7, 14\.9\) is not a sign \+/-1 and an index 0\.\.31$"
    with pytest.raises(ValueError, match=want):
        CayleyTable(rows)
    # int() accepts digit strings, and raises OverflowError on infinity
    for entry in (("1", "14"), (math.inf, 0), (1, math.inf), (math.nan, 14), (-1, math.nan)):
        rows[3][5] = entry
        with pytest.raises(ValueError, match="is not a sign"):
            CayleyTable(rows)
    # a grid of JSON lists takes the retry path, which names a bare number the same way
    rows = json.loads(json.dumps(TABLE.entries))
    rows[3][5] = 5
    with pytest.raises(ValueError, match=r"^entry 5 is not a sign \+/-1 and an index 0\.\.31$"):
        CayleyTable(rows)
    # and so is a cell that stays unhashable once its outer list is a tuple
    for entry, shown in (({}, r"\{\}"), ([[1], 0], r"\(\[1\], 0\)")):
        rows[3][5] = entry
        with pytest.raises(ValueError, match=rf"^entry {shown} is not a sign \+/-1 and an index 0\.\.31$"):
            CayleyTable(rows)


def test_constructor_accepts_integral_floats_bools_and_json_pairs():
    rows = json.loads(json.dumps([[[float(s), float(k)] for s, k in r] for r in TABLE.entries]))
    rows[0][1] = [True, 1]
    table = CayleyTable(rows)
    assert table == TABLE
    assert CayleyTable(iter([iter(r) for r in rows])) == TABLE  # one-shot rows are read once
    assert {type(x) for r in table.entries for p in r for x in p} == {int}
