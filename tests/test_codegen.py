"""The generated straight-line modules and their generator."""

import ast
import math
from collections import Counter

import pytest

from kaluza import _direct, _factorized, codegen, fastmul, linops, number
from kaluza.number import KaluzaNumber


def _free_scale(node) -> bool:
    """A float constant +/-2**k, as _free_scale in test_op_audit.py: a
    multiplication by it is exact and not counted."""
    return (
        isinstance(node, ast.Constant) and type(node.value) is float
        and abs(math.frexp(node.value)[0]) == 0.5
    )


def _halvings(node) -> list[ast.BinOp]:
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and (_free_scale(n.left) or _free_scale(n.right))
    ]


def _joins(node) -> list[ast.BinOp]:
    """The + between two tuple displays under node, as mul_matrix joins
    each row's two displays: a concatenation, not arithmetic."""
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
        and isinstance(n.left, ast.Tuple) and isinstance(n.right, ast.Tuple)
    ]


def _tally(node):
    """(multiplications, additions) of the binary operators under node,
    a multiplication by a power-of-two constant and a join of two tuple
    displays free."""
    free = _halvings(node) + _joins(node)
    ops = Counter(
        type(n.op) for n in ast.walk(node) if isinstance(n, ast.BinOp) and n not in free
    )
    assert set(ops) <= {ast.Mult, ast.Add, ast.Sub}
    return (ops[ast.Mult], ops[ast.Add] + ops[ast.Sub])


def _functions(path):
    tree = ast.parse(path.read_bytes())
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_committed_module_is_what_the_generator_writes():
    assert [path.name for path in codegen.MODULES] == ["_direct.py", "_factorized.py"]
    for path, source in codegen.MODULES.items():
        assert path.read_bytes() == source().encode(), path.name
        assert path.read_text().startswith(codegen.HEADER)


def _computes(node) -> bool:
    joins = _joins(node)
    return any(
        isinstance(n, (ast.BinOp, ast.Call)) and n not in joins for n in ast.walk(node)
    )


def test_preparation_only_copies_and_halves():
    _, direct = _functions(codegen.DIRECT)
    _, factorized = _functions(codegen.FACTORIZED)
    assert not _computes(direct["mul_matrix"])
    # signed_c_values binds each c-value once, a sum or difference then one
    # free halving, and returns those locals and their negations
    prepare = factorized["signed_c_values"]
    lets = [n for n in prepare.body if isinstance(n, ast.Assign) and _computes(n)]
    assert [n.targets[0].id for n in lets] == [f"c{j}" for j in range(32)]
    assert _halvings(prepare) == [n.value for n in lets]
    assert all(n.value.right.value == 0.5 for n in lets)
    assert not _computes(prepare.body[-1])


ONE = KaluzaNumber([1.0] * 32)


def _assert_tallies(path, module, entry_points):
    """Each function of a generated module carries NAME_OPS, which is both
    the tally of its operators and what its entry point bumps on a counter."""
    tree, functions = _functions(path)
    # no call at all, so no sum, math.fsum, math.sumprod or map(operator.mul, ...)
    assert not any(isinstance(node, ast.Call) for node in ast.walk(tree)), path.name
    assert sorted(functions) == sorted(entry_points)
    tallies = {}
    for name, entry_point in entry_points.items():
        counter = linops.OpCount()
        entry_point(counter)
        tallies[name] = getattr(module, f"{name.upper()}_OPS")
        assert _tally(functions[name]) == tallies[name] == counter.as_tuple(), name
    return tallies


def test_counts_are_the_operators_of_the_committed_code():
    tallies = _assert_tallies(codegen.DIRECT, _direct, {
        "mul_direct": lambda c: number.mul_naive(ONE, ONE, c),
        "mul_matrix": lambda c: number.build_mul_matrix(ONE),
        "mul_rows": lambda c: number.mul_dense(ONE, number.build_mul_matrix(ONE), c),
    })
    assert tallies == {"mul_direct": (1024, 992), "mul_matrix": (0, 0), "mul_rows": (1024, 992)}


def test_each_stage_tally_is_its_operators_and_its_kernel_bump():
    tallies = _assert_tallies(codegen.FACTORIZED, _factorized, {
        "signed_c_values": lambda c: fastmul.compute_c(ONE, c),
        "butterfly": lambda c: linops.hadamard_pairs([1.0] * 32, c),
        "diagonal_scale": lambda c: linops.block_diagonal_scale([1.0] * 512, [1.0] * 64, c),
        "fan_in": lambda c: linops.fan_in_sum([1.0] * 512, c),
    })
    assert tallies == {
        "signed_c_values": (0, 32), "butterfly": (0, 32),
        "diagonal_scale": (512, 0), "fan_in": (0, 480),
    }
    # Replication is a list repetition, not a generated stage: every lane is
    # its input's own float object, so it computes nothing, (0, 0).
    x = [float(i) for i in range(32)]
    assert all(v is x[i % 32] for i, v in enumerate(linops.replicate_pairs(x)))


def test_the_emitter_refuses_a_tally_its_code_does_not_carry():
    # A stage's tally comes from its description; the emitted operators must agree.
    stage = codegen.Stage((((1, 0), (1, 1)), ((1, 0), (-1, 1))), 0.5)
    name, tally, _ = codegen._linear("pairs", "", "x", stage, 2)
    assert (name, tally) == ("pairs", (0, 2))
    slots = [[(1, ("x0",)), (1, ("x1",))], [(1, ("x0", "x1"))]]  # x0 + x1, x0 * x1
    with pytest.raises(ValueError, match=r"pairs: its stages cost \(0, 2\), its code \(1, 1\)"):
        codegen._function("pairs", "", {"x": ["x0", "x1"]}, slots, tally, 2)
    # a row is tuple displays joined by +, which is no addition; a + inside
    # one of them is
    x = codegen._names("x", 32)
    row = [(1, (name,)) for name in x]
    _, _, source = codegen._function("row", "", {"x": x}, [row], (0, 0), 1, "()", rows=True)
    assert ") + (x16, " in source
    row[3] = (1, ("x3 + x4",))
    with pytest.raises(ValueError, match=r"row: its stages cost \(0, 0\), its code \(0, 1\)"):
        codegen._function("row", "", {"x": x}, [row], (0, 0), 1, "()", rows=True)


@pytest.fixture
def one_argument_diagonal_scale(monkeypatch):
    """A stale _factorized.diagonal_scale that takes one argument, and no
    spec derived before it, none kept after."""
    monkeypatch.setattr(_factorized, "diagonal_scale", lambda x: x)
    fastmul.derive_diagonal_spec.cache_clear()
    yield
    fastmul.derive_diagonal_spec.cache_clear()


def test_the_generator_writes_over_a_module_that_cannot_run(one_argument_diagonal_scale):
    # deriving the spec runs no generated code, so regenerating still works
    assert codegen.factorized_source() == codegen.FACTORIZED.read_text()


def test_a_module_that_cannot_run_is_stale(one_argument_diagonal_scale):
    with pytest.raises(ValueError, match=r"regenerate it with python -m kaluza\.codegen$"):
        fastmul.derive_diagonal_spec().materialize((1.0,) * 32)
