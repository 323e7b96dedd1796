"""Write the straight-line product modules from their shapes.

    python -m kaluza.codegen

regenerates ``_direct.py`` and ``_factorized.py`` next to this file.

``_direct.py`` holds the direct product and M(b).  Output slot k of a * b
is row k of M(b) applied to a: entry i of row k of symbolic_mul_matrix()
is (s, j), where e_i * e_j = s*e_k, and contributes s * a_i * b_j.  The
generated mul_direct returns one expression per slot, with its 32 terms
in column order (i = 0..31), left-nested, so the matrix alone fixes the
order of its additions: a negative entry becomes ``acc - a_i * b_j``,
never a negation.  mul_matrix returns the same matrix over values: entry
(s, j) is b_j, or n_j = -b_j, bound once per call.

``_factorized.py`` holds the preparation of a right operand and one
function per arithmetic stage of the factorized chain, at its pipeline
size: the c-values (32 -> 32, the sum and difference of each coefficient
pair, halved), the diagonal (32 -> 512, a signed copy of one c-value per
lane, as derive_diagonal_spec() resolves it), the pair butterfly
(32 -> 32), the diagonal scale (512 x 512) and the fan-in (512 -> 32,
each slot left-nested in block order).  The 512 lanes are lane-major
(linops.lane), so replication is a list repetition and is not
generated.  Every output entry is one expression, so the generator
alone fixes the order of each function's floating-point operations.

Every function of both modules comes from one emitter, _stage, and each
module from one assembler, _module, which writes the NAME_OPS tally of
each function NAME: its (multiplications, additions), counted from the
operators of its output expressions.  The c-values' halving is a
power-of-two scale and is not counted.  Both modules are committed,
because unmarshalling their bytecode is cheaper than compiling the
source at import.
"""

from pathlib import Path

from .fastmul import coefficient_pairs, derive_diagonal_spec
from .linops import lane
from .number import symbolic_mul_matrix

HEADER = "# generated by python -m kaluza.codegen"
TERMS_PER_LINE = 8
NAMES_PER_LINE = 16
# The c-values' halving: a power-of-two scale, exact and off the books.
HALF = " * 0.5"


def _lines(items: list[str], per_line: int) -> str:
    """items joined by ", ", per_line to an indented line ending in a comma."""
    return "".join(
        f"        {', '.join(items[n:n + per_line])},\n" for n in range(0, len(items), per_line)
    )


def _unpack(prefix: str, n: int) -> str:
    """Bind prefix0..prefix{n-1} from the sequence named prefix.

    The target list is continued with backslashes, not parenthesized: the
    parser backtracks over a parenthesized one, and compiling the module
    from source then takes about 1 MB more memory at its peak.
    """
    names = [f"{prefix}{i}" for i in range(n)]
    rows = (", ".join(names[k:k + NAMES_PER_LINE]) for k in range(0, n, NAMES_PER_LINE))
    return "    " + ", \\\n    ".join(rows) + f" = {prefix}\n"


def _negations(prefix: str, refs) -> str:
    """Bind n{j} = -prefix{j} once for each j that a (sign, j) in refs negates."""
    negated = sorted({j for s, j in refs if s < 0})
    return "".join(f"    n{j} = -{prefix}{j}\n" for j in negated)


def _signed(prefix: str, refs) -> list[str]:
    """The local that holds each signed reference: prefix{j} or n{j}."""
    return [f"{prefix}{j}" if s > 0 else f"n{j}" for s, j in refs]


def _stage(
    name: str, doc: str, sizes: dict[str, int], slots: list[str], per_line: int,
    brackets: str = "[]", negations: str = "",
):
    """A generated function, which unpacks each argument into named
    locals, binds the negations, and returns its slots as a list or tuple;
    and its (multiplications, additions) tally, counted from the operators
    in its output slots, where the HALF scale is free."""
    text = " ".join(slots)
    tally = (
        text.count(" * ") - text.count(HALF),
        text.count(" + ") + text.count(" - "),
    )
    source = (
        f"def {name}({', '.join(sizes)}):\n"
        f'    """{doc}"""\n'
        + "".join(_unpack(arg, n) for arg, n in sizes.items())
        + negations
        + f"    return {brackets[0]}\n"
        + _lines(slots, per_line)
        + f"    {brackets[1]}\n"
    )
    return name, tally, source


def _module(doc: str, stages) -> str:
    """A generated module: its docstring, the NAME_OPS tally of each
    function, then the functions."""
    return (
        HEADER + "; do not edit\n"
        + f'"""{doc}"""\n\n'
        + "".join(f"{name.upper()}_OPS = {tally}\n" for name, tally, _ in stages)
        + "".join(f"\n\n{source}" for _, _, source in stages)
    )


def direct_source() -> str:
    """The text of ``_direct.py``."""
    matrix = symbolic_mul_matrix()
    slots = []
    for row in matrix:
        terms = [f"{'-' if s < 0 else '+'} a{i} * b{j}" for i, (s, j) in enumerate(row)]
        terms[0] = terms[0].replace(" ", "", 1).lstrip("+")  # "+ x" -> "x", "- x" -> "-x"
        slots.append("\n        ".join(
            " ".join(terms[n:n + TERMS_PER_LINE]) for n in range(0, 32, TERMS_PER_LINE)
        ))
    return _module(
        "Straight-line direct product and M(b).\n\n"
        "mul_direct is one left-nested sum per output slot; mul_matrix returns\n"
        "the 32 rows of M(b), each entry a signed copy of one b-coefficient.\n"
        "Each NAME_OPS constant is the (multiplications, additions) of NAME.\n",
        [
            _stage(
                "mul_direct", "Slot k is row k of M(b) applied to a, summed left to right.",
                {"a": 32, "b": 32}, slots, 1, brackets="()",
            ),
            _stage(
                "mul_matrix", "Row k of M(b): entry (s, j) is b{j} if s > 0, else n{j} = -b{j}.",
                {"b": 32}, [f"({', '.join(_signed('b', row))})" for row in matrix], 1,
                brackets="()", negations=_negations("b", (ref for row in matrix for ref in row)),
            ),
        ],
    )


def factorized_source() -> str:
    """The text of ``_factorized.py``."""
    refs = [None] * 512
    for k, block in enumerate(derive_diagonal_spec().blocks):
        for m, ref in enumerate(block):
            refs[lane(k, m)] = ref
    stages = [
        _stage(
            "c_values", "Pair t = (u, v) gives (b{u} + b{v}) * 0.5, (b{u} - b{v}) * 0.5.",
            {"b": 32},
            [f"(b{u} {op} b{v}){HALF}" for u, v in coefficient_pairs() for op in "+-"], 4,
            brackets="()",
        ),
        _stage(
            "diagonal", "Lane lane(k, m) is +c{j} or -c{j} for (s, j) = blocks[k][m] of the spec.",
            {"c": 32}, _signed("c", refs), NAMES_PER_LINE,
            brackets="()", negations=_negations("c", refs),
        ),
        _stage(
            "butterfly", "(x0, x1, ...) -> (x0 + x1, x0 - x1, ...).", {"x": 32},
            [f"x{k} {op} x{k + 1}" for k in range(0, 32, 2) for op in "+-"], 4,
        ),
        _stage(
            "diagonal_scale", "Entry i is x{i} * d{i}.", {"x": 512, "d": 512},
            [f"x{i} * d{i}" for i in range(512)], TERMS_PER_LINE,
        ),
        _stage(
            "fan_in", "Slot m is x{lane(0, m)} + ... + x{lane(15, m)}, in block order.",
            {"x": 512}, [" + ".join(f"x{lane(k, m)}" for k in range(16)) for m in range(32)], 1,
        ),
    ]
    return _module(
        "Straight-line operand preparation and stages of the factorized chain.\n\n"
        "c_values and diagonal prepare a right operand; the other functions are\n"
        "the chain's arithmetic stages, one function per stage.  Each NAME_OPS\n"
        "constant is the (multiplications, additions) of NAME.\n",
        stages,
    )


DIRECT = Path(__file__).with_name("_direct.py")
FACTORIZED = Path(__file__).with_name("_factorized.py")
MODULES = {DIRECT: direct_source, FACTORIZED: factorized_source}


if __name__ == "__main__":
    for target, source in MODULES.items():
        target.write_text(source())
        print(f"wrote {target.name}")
