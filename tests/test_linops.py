"""Linear-stage kernels: kernels, counters, dense materializations."""

import math
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import kaluza
from kaluza.linops import (
    OpCount,
    Permutation32,
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    materialize,
    replicate_pairs,
)


def test_opcount_accumulates_and_rejects_negatives():
    c = OpCount()
    c.count(mults=3)
    c.count(adds=4)
    c.count(2, 1)
    assert c.as_tuple() == (5, 5)
    assert c.total() == 10
    with pytest.raises(ValueError):
        c.count(mults=-1)


def test_importing_kaluza_loads_neither_dataclasses_nor_inspect():
    # A fresh isolated interpreter without site, so nothing else (a .pth
    # file included) has imported them first.  typing and re are checked
    # too: each costs import time on every start.
    src = str(Path(kaluza.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); "
        f"sys.path.insert(0, {src!r}); import kaluza; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    added = proc.stdout.split()
    assert "kaluza.linops" in added
    for name in ("dataclasses", "inspect", "typing", "re"):
        assert name not in added, name


def test_permutation_requires_a_bijection():
    with pytest.raises(ValueError):
        Permutation32([0] * 32)
    with pytest.raises(ValueError):
        Permutation32(list(range(31)))


def test_identity_permutation_and_inverse():
    x = list(range(32))
    assert apply_permutation(Permutation32(range(32)), x) == x
    q = Permutation32([(i + 1) % 32 for i in range(32)])
    forward = apply_permutation(q, x)
    assert forward == x[1:] + x[:1]  # slot i is filled from map[i]
    back = Permutation32([(i - 1) % 32 for i in range(32)])
    assert apply_permutation(back, forward) == x
    assert not q.is_involution()


def test_apply_permutation_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        apply_permutation(Permutation32(range(32)), list(range(31)))


def test_hadamard_pair_examples():
    c = OpCount()
    assert hadamard_pairs([1.0, 1.0], c) == [2.0, 0.0]
    assert c.as_tuple() == (0, 2)
    # second pair (0, 5) butterflies to (5, -5): the minus is forced by
    # H2 = [[1, 1], [1, -1]], the same convention materialize() exposes
    assert hadamard_pairs([3.0, 0.0, 0.0, 5.0]) == [3.0, 3.0, 5.0, -5.0]
    twice = hadamard_pairs(hadamard_pairs([3.0, 5.0, 7.0, 11.0]))
    assert twice == [6.0, 10.0, 14.0, 22.0]  # H2 squared is 2I
    with pytest.raises(ValueError):
        hadamard_pairs([1.0, 2.0, 3.0])


def test_replicate_layout():
    x = [0.0] * 32
    x[0], x[1] = 1.0, 2.0
    z = replicate_pairs(x)
    assert len(z) == 512
    assert z[:32] == [1.0, 2.0] * 16
    assert all(v == 0.0 for v in z[32:])
    assert replicate_pairs([1.0] * 32) == [1.0] * 512
    e31 = [0.0] * 31 + [1.0]
    z = replicate_pairs(e31)
    assert z[480:] == [0.0, 1.0] * 16
    assert all(v == 0.0 for v in z[:480])


def test_diagonal_scale_examples():
    x = [float(i) for i in range(512)]
    c = OpCount()
    assert block_diagonal_scale(x, [1.0] * 512, c) == x
    assert c.as_tuple() == (512, 0)
    assert block_diagonal_scale(x, [0.0] * 512) == [0.0] * 512
    alt = [1.0, -1.0] * 256
    got = block_diagonal_scale(x, alt)
    assert got[0:4] == [0.0, -1.0, 2.0, -3.0]
    with pytest.raises(ValueError):
        block_diagonal_scale(x, [1.0] * 511)


def test_fan_in_examples():
    x = [0.0] * 512
    x[32:64] = [float(i) for i in range(32)]  # only block 1 nonzero
    assert fan_in_sum(x) == [float(i) for i in range(32)]
    c = OpCount()
    assert fan_in_sum([1.0] * 512, c) == [16.0] * 32
    assert c.as_tuple() == (0, 480)
    for n in (100, 480, 544, 1024):  # the fan-in takes exactly 512 entries
        with pytest.raises(ValueError):
            fan_in_sum([1.0] * n)


def test_fan_in_adds_strictly_left_to_right():
    # (1e16 + 1.0) rounds back to 1e16, so only block order 0, 1, 2 gives
    # 0.0; a compensated sum would return 1.0
    x = [0.0] * 512
    x[5], x[32 + 5], x[64 + 5] = 1e16, 1.0, -1e16
    assert fan_in_sum(x)[5] == 0.0


def _block_major_fan_in(x):
    """The earlier block-by-block fan-in loop, kept as the reference."""
    out = list(x[:32])
    for k in range(1, 16):
        base = 32 * k
        for m in range(32):
            out[m] += x[base + m]
    return out


FAN_IN_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, -1e16, 1.0, -1.0,
)


def _fan_in_vectors():
    # columns that pin one edge each: all -0.0 (sums to -0.0), all the
    # smallest subnormal, 1e16 then fifteen 1.0s (each rounds away), and
    # an overflow that the later -1e308 cannot undo
    x = [1.0] * 512
    for k in range(16):
        x[32 * k : 32 * k + 4] = [-0.0, 5e-324, 1.0, 1e308]
    x[2], x[32 * 15 + 3] = 1e16, -1e308
    yield x
    rng = random.Random(20261018)
    for trial in range(200):
        # every fourth vector also holds infinities and NaNs; the rest stay
        # finite, so overflow in a partial sum is order-dependent and shows
        pool = FAN_IN_SPECIALS
        if trial % 4 == 0:
            pool += (math.inf, -math.inf, math.nan)
        rate = rng.choice((0.05, 0.25, 0.6, 0.95))
        yield [
            rng.choice(pool)
            if rng.random() < rate
            else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
            for _ in range(512)
        ]


def test_fan_in_matches_the_block_major_loop_bit_for_bit():
    for x in _fan_in_vectors():
        want = _block_major_fan_in(x)
        got = fan_in_sum(x)
        assert [math.isnan(v) for v in got] == [math.isnan(v) for v in want]
        for g, w in zip(got, want):
            if not math.isnan(w):
                assert struct.pack("<d", g) == struct.pack("<d", w)
    assert fan_in_sum(next(_fan_in_vectors()))[:4] == [-0.0, 16 * 5e-324, 1e16, math.inf]


def test_replicate_then_fan_in_totals_the_pair_members():
    # block k repeats pair k, and the fan-in sums across blocks, so slot
    # parity selects which pair member gets totalled
    x = [float(i + 1) for i in range(32)]
    even_total = sum(x[0::2])
    odd_total = sum(x[1::2])
    got = fan_in_sum(replicate_pairs(x))
    assert got == [even_total, odd_total] * 16
    # a pair-constant vector is the special case where that total is a
    # plain scaling by the block count
    y = [3.0, 7.0] * 16
    assert fan_in_sum(replicate_pairs(y)) == [16.0 * v for v in y]


def test_materialized_hadamard_single_pair():
    assert materialize(hadamard_pairs, 2) == [[1.0, 1.0], [1.0, -1.0]]


def test_materialized_permutation_is_a_symmetric_0_1_matrix_for_involutions():
    p = Permutation32(
        (0, 1, 2, 6, 4, 8, 3, 7, 5, 9, 10, 16, 12, 18, 14, 20,
         11, 17, 13, 19, 15, 21, 22, 26, 24, 28, 23, 27, 25, 29, 30, 31)
    )
    assert p.is_involution()
    m = materialize(lambda x: apply_permutation(p, x), 32)
    for r in range(32):
        assert sorted(m[r]) == [0.0] * 31 + [1.0]
        for c in range(32):
            assert m[r][c] in (0.0, 1.0)
            assert m[r][c] == m[c][r]


def _dense_apply(m, x):
    return [sum(row[c] * x[c] for c in range(len(x))) for row in m]


def test_every_stage_agrees_with_its_dense_materialization():
    rng = random.Random(20240901)
    diag = [float(rng.randint(-9, 9)) for _ in range(512)]
    perm = Permutation32(rng.sample(range(32), 32))
    stages = [
        ("permute", lambda x: apply_permutation(perm, x), 32),
        ("hadamard-pairs", hadamard_pairs, 32),
        ("replicate", replicate_pairs, 32),
        ("diagonal", lambda x: block_diagonal_scale(x, diag), 512),
        ("fan-in", fan_in_sum, 512),
    ]
    for kind, fn, n_in in stages:
        m = materialize(fn, n_in)
        for _ in range(100):
            x = [float(rng.randint(-100, 100)) for _ in range(n_in)]
            assert fn(x) == _dense_apply(m, x), kind
