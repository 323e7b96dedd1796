"""Write the straight-line direct product from the multiplication matrix.

    python -m kaluza.codegen

regenerates ``_direct.py`` next to this file.  Output slot k of a * b is
row k of M(b) applied to a: entry i of row k of symbolic_mul_matrix() is
(s, j), where e_i * e_j = s*e_k, and contributes s * a_i * b_j.  The
generated function returns one expression per slot, with its 32 terms in
column order (i = 0..31), left-nested, so the matrix alone fixes the
order of its additions: a negative entry becomes ``acc - a_i * b_j``,
never a negation.  The module is committed, because unmarshalling its
bytecode is cheaper than compiling the source at import.  Its operation
counts are tallied from the terms it emits.
"""

from __future__ import annotations

from pathlib import Path

from .number import symbolic_mul_matrix

TARGET = Path(__file__).with_name("_direct.py")
HEADER = "# generated by python -m kaluza.codegen from TABLE; do not edit\n"
TERMS_PER_LINE = 8


def source() -> str:
    """The text of the generated module."""
    mults = adds = 0
    body = []
    for row in symbolic_mul_matrix():
        terms = [f"{'-' if s < 0 else '+'} a{i} * b{j}" for i, (s, j) in enumerate(row)]
        mults += len(terms)
        adds += len(terms) - 1
        sign, term = terms[0].split(" ", 1)
        terms[0] = term if sign == "+" else "-" + term
        lines = (
            " ".join(terms[n:n + TERMS_PER_LINE])
            for n in range(0, len(terms), TERMS_PER_LINE)
        )
        body.append("        " + "\n        ".join(lines) + ",\n")
    a_names = ", ".join(f"a{i}" for i in range(32))
    b_names = ", ".join(f"b{i}" for i in range(32))
    return (
        HEADER
        + '"""Straight-line direct product: one left-nested sum per output slot."""\n\n'
        + f"MULTIPLICATIONS = {mults}\n"
        + f"ADDITIONS = {adds}\n\n\n"
        + "def mul_direct(av, bv):\n"
        + f"    {a_names} = av\n"
        + f"    {b_names} = bv\n"
        + "    return (\n"
        + "".join(body)
        + "    )\n"
    )


if __name__ == "__main__":
    TARGET.write_text(source())
    print(f"wrote {TARGET.name}")
