"""Operation counts by execution: every engine run on a counting scalar.

Each `+` and `-` on an Audited value is one real addition and each `*`
one real multiplication.  Negation is free, and so is multiplication by
a plain-float constant +/-2**k (compute_c's 0.5), as in the paper's
accounting.  The operands bypass KaluzaNumber.__init__, whose float()
pass would strip the wrapper; they are drawn from real-valued streams so
that no intermediate value is a power of two by accident.  The naive and
fast results are wrapped without that pass, so they hold Audited values
and are compared through plain().
"""

import math

from kaluza.fastmul import ENGINES
from kaluza.linops import OpCount
from kaluza.number import KaluzaNumber
from kaluza.prng import Stream


def _value(x):
    return x.v if isinstance(x, Audited) else x


def _free_scale(x) -> bool:
    return type(x) is float and abs(math.frexp(x)[0]) == 0.5


class Audited:
    """A float that tallies, in the OpCount it carries, the real operations
    performed on it; every result carries the same OpCount."""

    __slots__ = ("v", "tally")

    def __init__(self, v: float, tally: OpCount):
        self.v = v
        self.tally = tally

    def __float__(self):
        return self.v

    def __neg__(self):
        return Audited(-self.v, self.tally)

    def __add__(self, other):
        self.tally.count(adds=1)
        return Audited(self.v + _value(other), self.tally)

    def __radd__(self, other):
        self.tally.count(adds=1)
        return Audited(_value(other) + self.v, self.tally)

    def __sub__(self, other):
        self.tally.count(adds=1)
        return Audited(self.v - _value(other), self.tally)

    def __rsub__(self, other):
        self.tally.count(adds=1)
        return Audited(_value(other) - self.v, self.tally)

    def __mul__(self, other):
        if not _free_scale(other):
            self.tally.count(mults=1)
        return Audited(self.v * _value(other), self.tally)

    def __rmul__(self, other):
        if not _free_scale(other):
            self.tally.count(mults=1)
        return Audited(_value(other) * self.v, self.tally)


def audited_operand(seed: int, tally: OpCount) -> KaluzaNumber:
    x = object.__new__(KaluzaNumber)
    x.coeffs = tuple(Audited(v, tally) for v in Stream(seed).coeffs_real())
    return x


def run_audited(tally: OpCount, fn, *args):
    """(result, (multiplications, additions) executed) of fn(*args)."""
    muls, adds = tally.as_tuple()
    out = fn(*args)
    return out, (tally.multiplications - muls, tally.additions - adds)


def plain(x: KaluzaNumber) -> KaluzaNumber:
    return KaluzaNumber(x.coeffs)


def test_the_counting_scalar_charges_what_the_paper_charges():
    tally = OpCount()
    x, y = Audited(3.0, tally), Audited(5.0, tally)
    assert run_audited(tally, lambda: -x * 0.5 * -0.25 * 2.0)[1] == (0, 0)
    assert run_audited(tally, lambda: x * 3.0 + y - 1.0)[1] == (1, 2)
    assert run_audited(tally, lambda: 1.0 - x * y)[1] == (1, 1)
    assert run_audited(tally, lambda: 0.5 * x + 3.0 * y)[1] == (1, 1)
    # sum() starts from the integer 0, so it pays one more addition than
    # the left-nested x + y + x
    assert run_audited(tally, lambda: x + y + x)[1] == (0, 2)
    assert run_audited(tally, lambda: sum([x, y, x]))[1] == (0, 3)


def test_naive_engine_executes_1024_multiplications_and_992_additions():
    _, mul_naive = ENGINES["naive"]
    tally = OpCount()
    a, b = audited_operand(1, tally), audited_operand(2, tally)
    counter = OpCount()
    out, executed = run_audited(tally, mul_naive, a, b, counter)
    assert executed == counter.as_tuple() == (1024, 992)
    assert plain(out) == mul_naive(plain(a), plain(b))


def test_dense_engine_executes_1024_multiplications_and_992_additions():
    build_mul_matrix, mul_dense = ENGINES["dense"]
    tally = OpCount()
    a, b = audited_operand(1, tally), audited_operand(2, tally)
    pre = OpCount()
    rows, executed = run_audited(tally, build_mul_matrix, b, pre)
    assert executed == pre.as_tuple() == (0, 0)  # signed copies only
    counter = OpCount()
    out, executed = run_audited(tally, mul_dense, a, rows, counter)
    assert executed == counter.as_tuple() == (1024, 992)
    assert out == mul_dense(plain(a), build_mul_matrix(plain(b)))


def test_fast_engine_executes_32_additions_to_prepare_and_512_544_per_product():
    build_pipeline, mul_fast = ENGINES["fast"]
    tally = OpCount()
    a, b = audited_operand(1, tally), audited_operand(2, tally)
    pre = OpCount()
    pipe, executed = run_audited(tally, build_pipeline, b, pre)
    assert executed == pre.as_tuple() == (0, 32)
    counter = OpCount()
    out, executed = run_audited(tally, mul_fast, a, pipe, counter)
    assert executed == counter.as_tuple() == (512, 544)
    assert plain(out) == mul_fast(plain(a), build_pipeline(plain(b)))


def test_every_registered_engine_has_an_execution_audit():
    covered = {n[5:n.index("_engine_")] for n in globals() if "_engine_executes_" in n}
    assert covered == set(ENGINES)
