"""Write the straight-line product modules from one description per engine.

    python -m kaluza.codegen

regenerates ``_direct.py`` and ``_factorized.py`` next to this file.

Every engine computes out = W((U a) * (V b)), the middle product entry by
entry: its rank r is r real multiplications.  An Engine states U, V and W
as Stages applied in order.  A Stage is a tuple of sparse rows of signed
references (sign +/-1, input index) under one power-of-two scale, which
is exact and not counted; a row of n references costs n - 1 additions.
tests/test_brent.py proves each description by the Brent equations.

- direct_engine(), rank 1024: product 32k + i is a_i times entry (s, j)
  of row k of symbolic_mul_matrix(), s * b_j; W sums row k's products in
  column order.
- factorized_engine(), rank 512: U is permute, butterfly, replicate; V is
  the halved pair sums and differences of b (the c-values), then the
  diagonal, one signed c-value per lane as derive_diagonal_spec()
  resolves it; W is fan-in (block order), butterfly, permute.  The lanes
  are lane-major (linops.lane), so replication is the list repetition
  x * 16; it and the permutation run as linops code, not generated.

mul_direct is the whole direct engine, each slot one left-nested sum of
its products, and mul_matrix returns its M(b).  c_values, butterfly (on
both sides), diagonal_scale (the middle product) and fan_in are
factorized stages.  V's diagonal is never built as 512 values: a right
operand is prepared as its 64 signed c-values (c0..c31, -c0..-c31, from
signed_c_values), and diagonal_scale has each lane's reference compiled
in, multiplying x{r} by c{j} or n{j}.  A negative term after the first is
subtracted, never negated; a negative first reference, in a copy the
only one, reads n{j} = -x{j}, bound once per call.  Every output entry
is one expression, so the description alone fixes the order of each
function's floating-point operations.

Every function comes from one emitter, _stage, and each module from one
assembler, _module, which writes the NAME_OPS tally of each function
NAME: its (multiplications, additions), taken from its stages and
checked against the operators of its output expressions.  Both modules
are committed, because unmarshalling their bytecode is cheaper than
compiling the source at import.
"""

from pathlib import Path
from typing import NamedTuple

from .fastmul import PAIRING_PERMUTATION, coefficient_pairs, derive_diagonal_spec
from .linops import lane
from .number import symbolic_mul_matrix

HEADER = "# generated by python -m kaluza.codegen"
TERMS_PER_LINE = 8
NAMES_PER_LINE = 16


class Stage(NamedTuple):
    """A linear map: output i is scale * (sum of s * x{j} over (s, j) in rows[i])."""

    rows: tuple
    scale: float = 1.0


class Engine(NamedTuple):
    """out = W((U a) * (V b)) over rank products; U applies a_stages in
    order, V b_stages and W out_stages."""

    name: str
    a_stages: tuple
    b_stages: tuple
    rank: int
    out_stages: tuple


def _copies(refs) -> Stage:
    """The stage whose row i copies the signed reference refs[i]."""
    return Stage(tuple((ref,) for ref in refs))


def _adds(*stages: Stage) -> int:
    return sum(len(row) - 1 for stage in stages for row in stage.rows)


def direct_engine() -> Engine:
    """The direct product, rank 1024: U picks a_i, V is M(b)'s signed b_j,
    and W sums each row of M(b) in column order."""
    refs = [ref for row in symbolic_mul_matrix() for ref in row]
    return Engine(
        "direct",
        (_copies([(1, i) for i in range(32)] * 32),),
        (_copies(refs),),
        1024,
        (Stage(tuple(tuple((1, 32 * k + i) for i in range(32)) for k in range(32))),),
    )


def factorized_engine() -> Engine:
    """The paper's factorized product, rank 512, on lane-major lanes."""
    diagonal = [None] * 512
    for k, block in enumerate(derive_diagonal_spec().blocks):
        for m, ref in enumerate(block):
            diagonal[lane(k, m)] = ref
    permute = _copies((1, j) for j in PAIRING_PERMUTATION.map)
    butterfly = Stage(tuple(((1, k), (s, k + 1)) for k in range(0, 32, 2) for s in (1, -1)))
    fan_in = Stage(tuple(tuple((1, lane(k, m)) for k in range(16)) for m in range(32)))
    return Engine(
        "factorized",
        (permute, butterfly, _copies([(1, i) for i in range(32)] * 16)),
        (
            Stage(tuple(((1, u), (s, v)) for u, v in coefficient_pairs() for s in (1, -1)), 0.5),
            _copies(diagonal),
        ),
        512,
        (fan_in, butterfly, permute),
    )


def _lines(items: list[str], per_line: int) -> str:
    """items joined by ", ", per_line to an indented line ending in a comma."""
    return "".join(
        f"        {', '.join(items[n:n + per_line])},\n" for n in range(0, len(items), per_line)
    )


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _unpack(arg: str, names: list[str]) -> str:
    """Bind the locals names from the sequence named arg.

    The target list is continued with backslashes, not parenthesized: the
    parser backtracks over a parenthesized one, and compiling the module
    from source then takes about 1 MB more memory at its peak.
    """
    rows = (", ".join(names[k:k + NAMES_PER_LINE]) for k in range(0, len(names), NAMES_PER_LINE))
    return "    " + ", \\\n    ".join(rows) + f" = {arg}\n"


def _negations(prefix: str, negated: set) -> str:
    """Bind n{j} = -prefix{j} once for each j in negated."""
    return "".join(f"    n{j} = -{prefix}{j}\n" for j in sorted(negated))


def _name(ref, prefix: str, negated: set) -> str:
    """The local that holds a signed reference: prefix{j}, or n{j} = -prefix{j}."""
    s, j = ref
    if s > 0:
        return f"{prefix}{j}"
    negated.add(j)
    return f"n{j}"


def _sum(head: str, rest, per_line: int = 0) -> str:
    """head, then each (sign, term) of rest added or subtracted, left-nested;
    with per_line, a line break after every per_line terms."""
    words = [head, *(f"{'+' if s > 0 else '-'} {term}" for s, term in rest)]
    n = per_line or len(words)
    return "\n        ".join(" ".join(words[k:k + n]) for k in range(0, len(words), n))


def _stage(
    name: str, doc: str, args: dict[str, list[str]], slots: list[str], tally: tuple[int, int],
    per_line: int, brackets: str = "[]", negations: str = "",
):
    """A generated function, which unpacks each argument into its named
    locals, binds the negations, and returns its slots as a list or
    tuple; and its tally (multiplications, additions), which must be the
    operators in its slots, where a scale after a closing parenthesis is
    free."""
    text = " ".join(slots)
    counted = (text.count(" * ") - text.count(") * "), text.count(" + ") + text.count(" - "))
    if counted != tally:
        raise ValueError(f"{name}: its stages cost {tally}, its code {counted}")
    source = (
        f"def {name}({', '.join(args)}):\n"
        f'    """{doc}"""\n'
        + "".join(_unpack(arg, names) for arg, names in args.items())
        + negations
        + f"    return {brackets[0]}\n"
        + _lines(slots, per_line)
        + f"    {brackets[1]}\n"
    )
    return name, tally, source


def _linear(name: str, doc: str, prefix: str, stage: Stage, per_line: int, brackets: str = "[]"):
    """The function of one linear stage over prefix0, prefix1, ...: each row
    one sum, a scale multiplying it in parentheses; it costs (0, the
    stage's additions)."""
    negated = set()
    slots = []
    for head, *rest in stage.rows:
        expr = _sum(_name(head, prefix, negated), [(s, f"{prefix}{j}") for s, j in rest])
        slots.append(expr if stage.scale == 1 else f"({expr}) * {stage.scale}")
    width = 1 + max(j for row in stage.rows for _, j in row)
    return _stage(
        name, doc, {prefix: _names(prefix, width)}, slots, (0, _adds(stage)), per_line, brackets,
        _negations(prefix, negated),
    )


def _signed(width: int) -> Stage:
    """The stage that copies c0..c{width-1}, then each negated."""
    return _copies([(s, j) for s in (1, -1) for j in range(width)])


def _middle(name: str, doc: str, picks: Stage):
    """The function of an engine's middle product, with V's last stage picks
    (one signed reference per entry) compiled in: d is the output of
    _signed, unpacked as c0, c1, ..., n0, n1, ... (n{j} = -c{j}), and
    entry r is x{r} times the name of picks.rows[r]'s reference."""
    rank, width = len(picks.rows), 1 + max(j for ((_, j),) in picks.rows)
    slots = [f"x{r} * {'c' if s > 0 else 'n'}{j}" for r, ((s, j),) in enumerate(picks.rows)]
    args = {"x": _names("x", rank), "d": _names("c", width) + _names("n", width)}
    return _stage(name, doc, args, slots, (rank, 0), TERMS_PER_LINE)


def _products(engine: Engine) -> list[list[tuple[int, int, int]]]:
    """The products (s, i, j), s * a{i} * b{j}, that W sums into each output
    slot, in W's order; U and V must copy one reference per product."""
    (u,), (v,), (w,) = engine.a_stages, engine.b_stages, engine.out_stages
    slots = []
    for row in w.rows:
        slots.append([])
        for sw, r in row:
            ((su, i),), ((sv, j),) = u.rows[r], v.rows[r]
            slots[-1].append((sw * su * sv, i, j))
    return slots


def _whole(name: str, doc: str, engine: Engine):
    """The function of a whole engine whose U and V copy: each slot is one
    left-nested sum of its signed products; it costs (rank, W's additions)."""
    negated = set()
    slots = [
        _sum(f"a{i} * {_name((s, j), 'b', negated)}", [(s, f"a{i} * b{j}") for s, i, j in rest],
             TERMS_PER_LINE)
        for (s, i, j), *rest in _products(engine)
    ]
    tally = (engine.rank, _adds(*engine.a_stages, *engine.b_stages, *engine.out_stages))
    args = {"a": _names("a", 32), "b": _names("b", 32)}
    return _stage(name, doc, args, slots, tally, 1, "()", _negations("b", negated))


def _matrix(name: str, doc: str, engine: Engine):
    """The function that returns M(b) of an engine whose U and V copy: row k
    holds the signed b{j} of slot k's products, in W's order."""
    negated = set()
    slots = [
        f"({', '.join(_name((s, j), 'b', negated) for s, _, j in row)})"
        for row in _products(engine)
    ]
    return _stage(
        name, doc, {"b": _names("b", 32)}, slots, (0, _adds(*engine.b_stages)), 1, "()",
        _negations("b", negated),
    )


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
    """The text of ``_direct.py``: the direct engine whole, and its M(b)."""
    engine = direct_engine()
    return _module(
        "Straight-line direct product and M(b).\n\n"
        "mul_direct is one left-nested sum per output slot; mul_matrix returns\n"
        "the 32 rows of M(b), each entry a signed copy of one b-coefficient.\n"
        "Each NAME_OPS constant is the (multiplications, additions) of NAME.\n",
        [
            _whole(
                "mul_direct", "Slot k is row k of M(b) applied to a, summed left to right.", engine,
            ),
            _matrix(
                "mul_matrix", "Row k of M(b): entry (s, j) is b{j} if s > 0, else n{j} = -b{j}.",
                engine,
            ),
        ],
    )


def factorized_source() -> str:
    """The text of ``_factorized.py``: the stages that run as generated code."""
    engine = factorized_engine()
    (_, butterfly, _), (c_values, diagonal), (fan_in, out_butterfly, _) = (
        engine.a_stages, engine.b_stages, engine.out_stages
    )
    if out_butterfly != butterfly:
        raise ValueError("hadamard_pairs runs one generated butterfly on both sides")
    return _module(
        "Straight-line operand preparation and stages of the factorized chain.\n\n"
        "c_values and signed_c_values prepare a right operand; the other\n"
        "functions are the chain's arithmetic stages, one function per stage.\n"
        "Each NAME_OPS constant is the (multiplications, additions) of NAME.\n",
        [
            _linear(
                "c_values", "Pair t = (u, v) gives (b{u} + b{v}) * 0.5, (b{u} - b{v}) * 0.5.",
                "b", c_values, 4, "()",
            ),
            _linear(
                "signed_c_values", "(c0, ..., c31, -c0, ..., -c31), which diagonal_scale reads.",
                "c", _signed(32), NAMES_PER_LINE, "()",
            ),
            _linear("butterfly", "(x0, x1, ...) -> (x0 + x1, x0 - x1, ...).", "x", butterfly, 4),
            _middle(
                "diagonal_scale",
                "Lane lane(k, m) is its x times c{j} or n{j} = -c{j}, (s, j) = blocks[k][m] "
                "of the spec.",
                diagonal,
            ),
            _linear(
                "fan_in", "Slot m is x{lane(0, m)} + ... + x{lane(15, m)}, in block order.",
                "x", fan_in, 1,
            ),
        ],
    )


DIRECT = Path(__file__).with_name("_direct.py")
FACTORIZED = Path(__file__).with_name("_factorized.py")
MODULES = {DIRECT: direct_source, FACTORIZED: factorized_source}


if __name__ == "__main__":
    for target, source in MODULES.items():
        target.write_text(source())
        print(f"wrote {target.name}")
