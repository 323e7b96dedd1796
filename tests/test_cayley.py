"""Basis table: ground truth, validation, quadrant rendering."""

import pytest

from bitmask_oracle import oracle_basis_mul
from kaluza.cayley import (
    ERRATA,
    QUADRANTS,
    TABLE,
    VERBATIM_TABLE,
    CayleyTable,
    basis_mul,
    dump_table,
    format_token,
    parse_token,
    validate_table,
)


def test_every_cell_matches_the_generator_oracle():
    # all 1024 products, against an independently constructed algebra
    for i in range(32):
        for j in range(32):
            assert basis_mul(i, j) == oracle_basis_mul(i, j), (i, j)


def test_known_cells():
    assert basis_mul(0, 17) == (1, 17)
    assert basis_mul(1, 2) == (1, 6)
    assert basis_mul(2, 1) == (-1, 6)
    assert basis_mul(3, 3) == (-1, 0)
    assert basis_mul(31, 31) == (-1, 0)


def test_errata_is_the_only_difference_from_the_verbatim_text():
    diffs = [
        (i, j)
        for i in range(32)
        for j in range(32)
        if VERBATIM_TABLE.entries[i][j] != TABLE.entries[i][j]
    ]
    assert diffs == [(i, j) for i, j, _ in ERRATA] == [(2, 22)]
    assert VERBATIM_TABLE.entry(2, 22) == (-1, 13)
    assert TABLE.entry(2, 22) == (1, 13)


def test_corrected_cell_agrees_with_oracle_and_verbatim_does_not():
    assert TABLE.entry(2, 22) == oracle_basis_mul(2, 22)
    assert VERBATIM_TABLE.entry(2, 22) != oracle_basis_mul(2, 22)


def test_entry_rejects_out_of_range_indices():
    with pytest.raises(IndexError):
        TABLE.entry(32, 0)
    with pytest.raises(IndexError):
        TABLE.entry(0, -1)
    with pytest.raises(IndexError):
        basis_mul(5, 99)


def test_token_round_trip():
    for tok in ("1", "-1", "e6", "-e31"):
        assert format_token(parse_token(tok)) == tok
    assert parse_token("1") == (1, 0)
    assert parse_token("-e13") == (-1, 13)
    with pytest.raises(ValueError):
        parse_token("e32")
    with pytest.raises(ValueError):
        parse_token("x3")


def test_embedded_table_validates_clean():
    assert validate_table(TABLE) == []


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
    rows = [list(r) for r in TABLE.entries]
    rows[4][4] = (2, 40)
    report = validate_table(CayleyTable(rows))
    assert any("sign 2" in r for r in report)
    assert any("index 40 out of range" in r for r in report)


def test_dump_cells():
    nw = dump_table(TABLE, "NW").splitlines()
    assert nw[1].split()[2] == "e6"  # row e1, column e2
    assert nw[0].split()[0] == "1"
    ne = dump_table(TABLE, "NE").splitlines()
    assert ne[1].split()[0] == "e10"  # row e1, column e16
    se = dump_table(TABLE, "SE").splitlines()
    assert se[15].split()[15] == "-1"  # row e31, column e31


def test_dump_round_trips_through_quadrant_parsing():
    nw, ne, sw, se = (dump_table(TABLE, q).splitlines() for q in QUADRANTS)
    rows = [w + " " + e for w, e in zip(nw, ne)] + [w + " " + e for w, e in zip(sw, se)]
    assert CayleyTable.from_text("\n".join(rows)) == TABLE


def test_dump_rejects_unknown_quadrant():
    with pytest.raises(ValueError):
        dump_table(TABLE, "north")


def test_diagonal_squares():
    # e1..e5 square to +1, +1, -1, -1, -1; beyond that alternates by grade
    squares = [TABLE.entry(i, i) for i in range(32)]
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
