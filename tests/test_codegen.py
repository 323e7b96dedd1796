"""The generated straight-line direct product and its generator."""

import ast
from collections import Counter

from kaluza import _direct, codegen


def test_committed_module_is_what_the_generator_writes():
    assert codegen.TARGET.read_bytes() == codegen.source().encode()
    assert codegen.TARGET.read_text().startswith(codegen.HEADER)


def test_counts_are_the_operators_of_the_committed_code():
    tree = ast.parse(codegen.TARGET.read_bytes())
    ops = Counter(type(node.op) for node in ast.walk(tree) if isinstance(node, ast.BinOp))
    assert set(ops) == {ast.Mult, ast.Add, ast.Sub}
    tally = (ops[ast.Mult], ops[ast.Add] + ops[ast.Sub])
    assert tally == (_direct.MULTIPLICATIONS, _direct.ADDITIONS) == (1024, 992)
