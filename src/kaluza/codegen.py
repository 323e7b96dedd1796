"""Write the straight-line product modules from one description per engine.

    python -m kaluza.codegen

regenerates ``_direct.py`` and ``_factorized.py`` next to this file.

Every engine computes out = W((U a) * (V b)), the middle product entry by
entry: its rank r is r real multiplications.  An Engine states U, V and W
as Stages applied in order.  A Stage is a tuple of sparse rows of signed
references (sign +/-1, input index) under one power-of-two scale, which
is exact and not counted; a row of n references costs n - 1 additions.
The rank is U's output width, the row count of U's last stage, and is
stored nowhere else.  A stage does not know its input width, since an
input that no row reads leaves no trace in it: every caller states the
width it feeds, 32 for a stage on an operand's coefficients, the rank for
W's first stage.
tests/test_brent.py proves each description by the Brent equations.

- direct_engine(), rank 1024: product 32k + i is a_i times entry (s, j)
  of row k of symbolic_mul_matrix(), s * b_j; W sums row k's products in
  column order.
- factorized_engine(), rank 512: U is permute, butterfly, replicate, and
  W is fan-in (block order), butterfly, permute.  V is three stages, as
  they run: the halved pair sums and differences of b (the c-values), the
  copy (c0, ..., c31, -c0, ..., -c31) of the 64 signed c-values, and one
  positive pick of those 64 per lane, the signed c-value that
  derive_diagonal_spec() resolves for it.  The lanes are lane-major
  (linops.lane), so replication is the list repetition x * 16; it and the
  permutation run as linops code, not generated.

Every generated function comes from one emitter, _function: it unpacks
its arguments into locals, runs its statements (target, expression) in
order, and returns one list or tuple display.  Each module comes from one
assembler, _module.  Two helpers write the expressions: _sum is one
left-nested sum of signed terms, a negative term after the first
subtracted, never negated, and its first term positive; a value read
negated is bound once, as the local n{j} = -x{j}.  _display is tuple
displays of DISPLAY_ITEMS items joined by +: CPython compiles a display of
more than 30 items as a list grown one LIST_APPEND per item, then
converted.  mul_direct is the whole direct engine, each slot one sum of
its products, and mul_matrix returns its V as the rows of M(b), each row
one _display.  mul_rows is U and W read against V b given as those rows,
the dense engine's apply: its statements unpack row k into the reused
locals m0..m31 and bind slot k to s{k}, so the frame holds 130 locals,
not the 1024 entries at once, which would need EXTENDED_ARG past local
255.  signed_c_values is V's first two stages in one pass: its statements
bind each c-value once, as the local c{j}, then n{j} = -c{j}, and it
returns those, so the negations cost nothing and the pass costs the
c-values' 32 additions.  butterfly (on both sides) and fan_in are one
factorized stage each, and diagonal_scale is the middle product: lane r is
x{r} times its pick, the local c{j} or n{j} that holds it.  Every value is
one expression, so the description alone fixes the order of each
function's floating-point operations.  _module writes the NAME_OPS tally
of each function NAME: its (multiplications, additions), taken from its
stages and checked against the operators of its statements and its
return.  Both modules are committed, because unmarshalling their bytecode
is cheaper than compiling the source at import.
"""

from pathlib import Path
from typing import NamedTuple

from .fastmul import PAIRING_PERMUTATION, coefficient_pairs, derive_diagonal_spec
from .linops import lane
from .number import symbolic_mul_matrix

HEADER = "# generated by python -m kaluza.codegen"
TERMS_PER_LINE = 8
NAMES_PER_LINE = 16
# CPython compiles a display of more than 30 items (STACK_USE_GUIDELINE) as
# an empty list, one LIST_APPEND per item, then a conversion; a row of M(b)
# is two displays of 16 joined by +, each built on the stack.
DISPLAY_ITEMS = 16


class Stage(NamedTuple):
    """A linear map: output i is scale * (sum of s * x{j} over (s, j) in rows[i])."""

    rows: tuple
    scale: float = 1.0


class Engine(NamedTuple):
    """out = W((U a) * (V b)) over rank products; U applies a_stages in
    order, V b_stages and W out_stages.  The rank is U's output width."""

    name: str
    a_stages: tuple
    b_stages: tuple
    out_stages: tuple

    @property
    def rank(self) -> int:
        return len(self.a_stages[-1].rows)


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
        (Stage(tuple(tuple((1, 32 * k + i) for i in range(32)) for k in range(32))),),
    )


def factorized_engine() -> Engine:
    """The paper's factorized product, rank 512, on lane-major lanes."""
    # lane lane(k, m) picks c{j} (entry j of the signed copy) or n{j} (entry
    # 32 + j) for the reference (s, j) of the spec's block k, slot m
    picks = [None] * 512
    for k, block in enumerate(derive_diagonal_spec().blocks):
        for m, (s, j) in enumerate(block):
            picks[lane(k, m)] = (1, j + 32 * (s < 0))
    permute = _copies((1, j) for j in PAIRING_PERMUTATION.map)
    butterfly = Stage(tuple(((1, k), (s, k + 1)) for k in range(0, 32, 2) for s in (1, -1)))
    fan_in = Stage(tuple(tuple((1, lane(k, m)) for k in range(16)) for m in range(32)))
    return Engine(
        "factorized",
        (permute, butterfly, _copies([(1, i) for i in range(32)] * 16)),
        (
            Stage(tuple(((1, u), (s, v)) for u, v in coefficient_pairs() for s in (1, -1)), 0.5),
            _copies([(s, j) for s in (1, -1) for j in range(32)]),
            _copies(picks),
        ),
        (fan_in, butterfly, permute),
    )


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _chunks(items: list, n: int) -> list[list]:
    return [items[k:k + n] for k in range(0, len(items), n)]


def _sum(terms, wrap: int = 0, scale: float = 1.0) -> str:
    """One left-nested sum of signed terms (s, factors), s times the product
    of the factor locals: a term after the first is added or subtracted,
    never negated, with a line break after every wrap terms, and the sum is
    times scale in parentheses unless that is 1.  The first term must be
    positive: a caller that needs it negative binds the negation to a local
    first, as n{j} = -x{j}, and sums that."""
    (s, factors), *rest = terms
    if s < 0:
        raise ValueError(f"a sum starts with a positive term, not -{' * '.join(factors)}")
    words = [" * ".join(factors), *(f"{'+' if s > 0 else '-'} {' * '.join(f)}" for s, f in rest)]
    text = "\n        ".join(" ".join(line) for line in _chunks(words, wrap or len(words)))
    return text if scale == 1 else f"({text}) * {scale}"


def _display(items: list[str]) -> str:
    """Tuple displays of DISPLAY_ITEMS items each, joined by +."""
    return " + ".join(f"({', '.join(part)})" for part in _chunks(items, DISPLAY_ITEMS))


def _function(
    name: str, doc: str, args: dict[str, list[str]], body: list[tuple], returns: list[str],
    tally: tuple[int, int], per_line: int, brackets: str = "[]",
):
    """A generated function, and its tally (multiplications, additions).

    It unpacks each argument into its locals, args[arg], runs the
    statements (target, expression) of body in order, and returns the
    expressions of returns as one list or tuple display, per_line to a
    line.  A target that is a list of names is unpacked like an argument,
    with its lines continued by backslashes, not parenthesized: the parser
    backtracks over a parenthesized target list, and compiling the module
    from source then takes about 1 MB more memory at its peak.  An
    expression that spans lines, such as a wrapped _sum, is parenthesized.  The tally
    must be the operators written in body and returns, where a scale after
    a closing parenthesis is free and a + between two displays joins them.
    """
    text = " ".join([expression for _, expression in body] + returns)
    counted = (
        text.count(" * ") - text.count(") * "),
        text.count(" + ") - text.count(") + (") + text.count(" - "),
    )
    if counted != tally:
        raise ValueError(f"{name}: its stages cost {tally}, its code {counted}")
    lines = [f"def {name}({', '.join(args)}):", f'    """{doc}"""']
    for target, expression in [(names, arg) for arg, names in args.items()] + body:
        if isinstance(target, list):
            target = ", \\\n    ".join(", ".join(line) for line in _chunks(target, NAMES_PER_LINE))
        lines.append(f"    {target} = " + (f"({expression})" if "\n" in expression else expression))
    lines.append(f"    return {brackets[0]}")
    lines += [f"        {', '.join(line)}," for line in _chunks(returns, per_line)]
    lines.append(f"    {brackets[1]}")
    return name, tally, "\n".join(lines) + "\n"


def _linear(name: str, doc: str, prefix: str, stage: Stage, width: int, per_line: int):
    """The function of one linear stage over prefix0, ..., prefix{width - 1}:
    row i is returned as item i; it costs (0, the stage's additions)."""
    names = _names(prefix, width)
    returns = [_sum([(s, (names[j],)) for s, j in row], scale=stage.scale) for row in stage.rows]
    return _function(name, doc, {prefix: names}, [], returns, (0, _adds(stage)), per_line)


def _module(doc: str, functions) -> str:
    """A generated module: its docstring, the NAME_OPS tally of each
    function, then the functions."""
    return (
        HEADER + "; do not edit\n"
        + f'"""{doc}"""\n\n'
        + "".join(f"{name.upper()}_OPS = {tally}\n" for name, tally, _ in functions)
        + "".join(f"\n\n{source}" for _, _, source in functions)
    )


def direct_source() -> str:
    """The text of ``_direct.py``: the direct engine whole, its V as the rows
    of M(b), and U and W over those rows."""
    engine = direct_engine()
    (u,), (v,), (w,) = engine.a_stages, engine.b_stages, engine.out_stages
    a, b, rows, m = _names("a", 32), _names("b", 32), _names("r", 32), _names("m", 32)
    # product r is (U a)_r * (V b)_r, and W sums row k's products into slot k;
    # (V b)_r is entry r - 32k of row k of M(b), which mul_matrix reads from the
    # local b{j}, or n{j} = -b{j}
    picks = [(su, a[i]) for ((su, i),) in u.rows]
    products = [(su * sv, (a[i], b[j])) for ((su, i),), ((sv, j),) in zip(u.rows, v.rows)]
    entries = [f"b{j}" if s > 0 else f"n{j}" for ((s, j),) in v.rows]
    negations = [(f"n{j}", f"-b{j}") for j in sorted({j for ((s, j),) in v.rows if s < 0})]
    # mul_rows unpacks row k into the reused locals m0..m31 just before binding slot k
    each_row = []
    for k, row in enumerate(w.rows):
        terms = [(sw * picks[r][0], (m[r - 32 * k], picks[r][1])) for sw, r in row]
        each_row += [(m, rows[k]), (f"s{k}", _sum(terms, TERMS_PER_LINE))]
    return _module(
        "Straight-line direct product, M(b), and M(b) applied to a.\n\n"
        "mul_direct is one left-nested sum per output slot; mul_matrix returns\n"
        "the 32 rows of M(b), each entry a signed copy of one b-coefficient;\n"
        "mul_rows applies 32 given rows to a, one left-nested sum per row.\n"
        "Each NAME_OPS constant is the (multiplications, additions) of NAME.\n",
        [
            _function(
                "mul_direct", "Slot k is row k of M(b) applied to a, summed left to right.",
                {"a": a, "b": b}, [],
                [
                    _sum([(sw * products[r][0], products[r][1]) for sw, r in row], TERMS_PER_LINE)
                    for row in w.rows
                ],
                (engine.rank, _adds(u, v, w)), 1, "()",
            ),
            _function(
                "mul_matrix", "Row k of M(b): entry (s, j) is b{j} if s > 0, else n{j} = -b{j}.",
                {"b": b}, negations, [_display([entries[r] for _, r in row]) for row in w.rows],
                (0, _adds(v)), 1, "()",
            ),
            _function(
                "mul_rows", "Slot k is m0 * a0 + ... + m31 * a31 over row k, summed left to right.",
                {"a": a, "rows": rows}, each_row, _names("s", 32), (engine.rank, _adds(u, w)),
                NAMES_PER_LINE,
            ),
        ],
    )


def factorized_source() -> str:
    """The text of ``_factorized.py``: the stages that run as generated code,
    and the middle product."""
    engine = factorized_engine()
    (_, butterfly, _), (c_values, signed, picks), (fan_in, out_butterfly, _) = (
        engine.a_stages, engine.b_stages, engine.out_stages
    )
    if out_butterfly != butterfly:
        raise ValueError("hadamard_pairs runs one generated butterfly on both sides")
    # the locals that hold signed_c_values' output: c{j} and n{j} = -c{j}
    d = [f"{'c' if s > 0 else 'n'}{j}" for ((s, j),) in signed.rows]
    b, x = _names("b", 32), _names("x", engine.rank)
    prepare = [
        (f"c{i}", _sum([(s, (b[j],)) for s, j in row], scale=c_values.scale))
        for i, row in enumerate(c_values.rows)
    ] + [(f"n{j}", f"-c{j}") for ((s, j),) in signed.rows if s < 0]
    return _module(
        "Straight-line operand preparation and stages of the factorized chain.\n\n"
        "signed_c_values prepares a right operand in one pass; the other\n"
        "functions are the chain's arithmetic stages, one function per stage.\n"
        "Each NAME_OPS constant is the (multiplications, additions) of NAME.\n",
        [
            _function(
                "signed_c_values",
                "(c0, ..., c31, -c0, ..., -c31), which diagonal_scale reads; pair t = (u, v)\n"
                "    gives c{2t} = (b{u} + b{v}) * 0.5 and c{2t+1} = (b{u} - b{v}) * 0.5.",
                {"b": b}, prepare, d, (0, _adds(c_values, signed)), NAMES_PER_LINE, "()",
            ),
            _linear("butterfly", "(x0, x1, ...) -> (x0 + x1, x0 - x1, ...).", "x", butterfly, 32, 4),
            _function(
                "diagonal_scale",
                "Lane lane(k, m) is its x times c{j} or n{j} = -c{j}, (s, j) = blocks[k][m] "
                "of the spec.",
                {"x": x, "d": d}, [],
                [_sum([(s, (x[r], d[j]))]) for r, ((s, j),) in enumerate(picks.rows)],
                (engine.rank, _adds(picks)), TERMS_PER_LINE,
            ),
            _linear(
                "fan_in", "Slot m is x{lane(0, m)} + ... + x{lane(15, m)}, in block order.",
                "x", fan_in, engine.rank, 1,
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
