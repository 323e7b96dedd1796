"""The generated straight-line modules and their generator."""

import ast
from collections import Counter

from kaluza import _direct, _factorized, codegen, linops


def _tally(node):
    """(multiplications, additions) of the binary operators under node."""
    ops = Counter(type(n.op) for n in ast.walk(node) if isinstance(n, ast.BinOp))
    assert set(ops) <= {ast.Mult, ast.Add, ast.Sub}
    return (ops[ast.Mult], ops[ast.Add] + ops[ast.Sub])


def test_committed_module_is_what_the_generator_writes():
    assert [path.name for path in codegen.MODULES] == ["_direct.py", "_factorized.py"]
    for path, source in codegen.MODULES.items():
        assert path.read_bytes() == source().encode(), path.name
        assert path.read_text().startswith(codegen.HEADER)


def test_counts_are_the_operators_of_the_committed_code():
    tally = _tally(ast.parse(codegen.DIRECT.read_bytes()))
    assert tally == (_direct.MULTIPLICATIONS, _direct.ADDITIONS) == (1024, 992)


def test_each_stage_tally_is_its_operators_and_its_kernel_bump():
    tree = ast.parse(codegen.FACTORIZED.read_bytes())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # no call at all, so no sum, math.fsum, math.sumprod or map(operator.mul, ...)
    assert not any(isinstance(node, ast.Call) for node in ast.walk(tree))
    kernels = {
        "butterfly": lambda c: linops.hadamard_pairs([1.0] * 32, c),
        "replicate": lambda c: linops.replicate_pairs([1.0] * 32),
        "diagonal_scale": lambda c: linops.block_diagonal_scale([1.0] * 512, [1.0] * 512, c),
        "fan_in": lambda c: linops.fan_in_sum([1.0] * 512, c),
    }
    assert sorted(functions) == sorted(kernels)
    for name, kernel in kernels.items():
        counter = linops.OpCount()
        kernel(counter)
        constant = getattr(_factorized, f"{name.upper()}_OPS")
        assert _tally(functions[name]) == constant == counter.as_tuple(), name
    assert [
        _factorized.BUTTERFLY_OPS, _factorized.REPLICATE_OPS,
        _factorized.DIAGONAL_SCALE_OPS, _factorized.FAN_IN_OPS,
    ] == [(0, 32), (0, 0), (512, 0), (0, 480)]
