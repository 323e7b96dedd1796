"""Linear-stage kernels: kernels, counters, dense materializations."""

import math
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import kaluza
from kaluza.fastmul import PAIRING_PERMUTATION
from kaluza.linops import (
    OpCount,
    Permutation32,
    apply_permutation,
    block_diagonal_scale,
    fan_in_sum,
    hadamard_pairs,
    lane,
    materialize,
    replicate_pairs,
)


def test_opcount_accumulates_and_rejects_negatives():
    c = OpCount()
    c.count(mults=3)
    c.count(adds=4)
    c.count(2, 1)
    assert c.as_tuple() == (5, 5)
    with pytest.raises(ValueError):
        c.count(mults=-1)
    # a count made with a stage name is also tallied under that name
    assert c.stages == {}
    c.count(1, 2, stage="lanes")
    c.count(0, 3, stage="lanes")
    c.count(adds=1, stage="prepare")
    assert c.stages == {"lanes": (1, 5), "prepare": (0, 1)}
    assert c.as_tuple() == (6, 11)
    with pytest.raises(ValueError):
        c.count(adds=-1, stage="lanes")
    assert c.stages == {"lanes": (1, 5), "prepare": (0, 1)}


def test_importing_kaluza_loads_neither_dataclasses_nor_inspect():
    # A fresh isolated interpreter without site, so nothing else (a .pth
    # file included) has imported them first.  typing, re and __future__
    # are checked too: each costs import time on every start.
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
    # The benchmark's set-up child reads each layer's import time from
    # -X importtime.  One imported lazily leaves its *.import_us metric null,
    # and CI fails a traced run whose metrics are not all finite numbers; an
    # extra module adds start-up time.
    layers = ("cayley", "fixtures", "linops", "number", "fastmul", "_direct", "_factorized")
    assert {name for name in added if name.partition(".")[0] == "kaluza"} == {
        "kaluza", *(f"kaluza.{name}" for name in layers)
    }
    for name in ("dataclasses", "inspect", "typing", "re", "__future__"):
        assert name not in added, name


def test_permutation_requires_a_bijection():
    with pytest.raises(ValueError):
        Permutation32([0] * 32)
    with pytest.raises(ValueError):
        Permutation32(list(range(31)))
    # entries are integers: int() alone truncates 0.7 into the identity,
    # converts digit strings and raises OverflowError on infinity
    for entries in (
        [0.7] + list(range(1, 32)),
        [str(i) for i in range(32)],
        [math.inf] + list(range(1, 32)),
        list(range(31)) + [math.nan],
    ):
        with pytest.raises(ValueError, match=r"^permutation must be a bijection on 0\.\.31$"):
            Permutation32(entries)
    # integral floats and bools are the integers they equal
    assert Permutation32([float(i) for i in range(32)]).map == tuple(range(32))
    assert Permutation32([False, True] + list(range(2, 32))).map == tuple(range(32))


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
    assert hadamard_pairs([1.0] * 32, c) == [2.0, 0.0] * 16
    assert c.as_tuple() == (0, 32)
    # pairs (0, 5) butterfly to (5, -5): the minus is forced by
    # H2 = [[1, 1], [1, -1]], the same convention materialize() exposes
    assert hadamard_pairs([3.0, 0.0, 0.0, 5.0] * 8) == [3.0, 3.0, 5.0, -5.0] * 8
    twice = hadamard_pairs(hadamard_pairs([3.0, 5.0, 7.0, 11.0] * 8))
    assert twice == [6.0, 10.0, 14.0, 22.0] * 8  # H2 squared is 2I
    for n in (3, 31, 34):  # the butterfly takes exactly 32 entries
        with pytest.raises(ValueError):
            hadamard_pairs([1.0] * n, c)
    assert c.as_tuple() == (0, 32)  # a rejected input counts nothing


def _block(z, k):
    """The 32 lanes of pair block k, in slot order."""
    return [z[lane(k, m)] for m in range(32)]


def test_lane_is_a_bijection_onto_the_512_lanes():
    assert sorted(lane(k, m) for k in range(16) for m in range(32)) == list(range(512))
    assert [lane(0, m) for m in range(4)] == [0, 1, 32, 33]
    assert [lane(k, 0) for k in range(3)] == [0, 2, 4]


def test_replicate_layout():
    x = [0.0] * 32
    x[0], x[1] = 1.0, 2.0
    z = replicate_pairs(x)
    assert z == x * 16  # lane-major: lane 32r + i is x[i]
    assert _block(z, 0) == [1.0, 2.0] * 16
    assert all(v == 0.0 for k in range(1, 16) for v in _block(z, k))
    assert replicate_pairs([1.0] * 32) == [1.0] * 512
    e31 = [0.0] * 31 + [1.0]
    z = replicate_pairs(e31)
    assert _block(z, 15) == [0.0, 1.0] * 16
    assert all(v == 0.0 for k in range(15) for v in _block(z, k))
    for n in (3, 31, 33):  # replication takes exactly 32 entries
        with pytest.raises(ValueError):
            replicate_pairs([1.0] * n)


def test_diagonal_scale_examples():
    x = [float(i) for i in range(512)]
    c = OpCount()
    assert block_diagonal_scale(x, [1.0] * 64, c) == x
    assert c.as_tuple() == (512, 0)
    assert block_diagonal_scale(x, [0.0] * 64) == [0.0] * 512
    # the 64 signed c-values are (c0, ..., c31, -c0, ..., -c31); here c_j = j + 1
    signed = [float(j + 1) for j in range(32)] + [-float(j + 1) for j in range(32)]
    got = block_diagonal_scale(x, signed)
    assert got[0:6] == [0.0, 1.0 * 2, 2.0 * 4, 3.0 * 3, 4.0 * -6, 5.0 * -5]
    # 512 lanes and 64 values, so the old 512-entry diagonal is refused
    for n_x, n_d in ((512, 63), (511, 64), (511, 63), (512, 512)):
        with pytest.raises(ValueError):
            block_diagonal_scale([1.0] * n_x, [1.0] * n_d, c)
    assert c.as_tuple() == (512, 0)  # a rejected input counts nothing


def test_fan_in_examples():
    x = [0.0] * 512
    for m in range(32):  # only block 1 nonzero
        x[lane(1, m)] = float(m)
    assert fan_in_sum(x) == [float(i) for i in range(32)]
    c = OpCount()
    assert fan_in_sum([1.0] * 512, c) == [16.0] * 32
    assert c.as_tuple() == (0, 480)
    for n in (100, 480, 544, 1024):  # the fan-in takes exactly 512 entries
        with pytest.raises(ValueError):
            fan_in_sum([1.0] * n, c)
    assert c.as_tuple() == (0, 480)  # a rejected input counts nothing


def test_fan_in_adds_strictly_left_to_right():
    # (1e16 + 1.0) rounds back to 1e16, so only block order 0, 1, 2 gives
    # 0.0; a compensated sum would return 1.0
    x = [0.0] * 512
    x[lane(0, 5)], x[lane(1, 5)], x[lane(2, 5)] = 1e16, 1.0, -1e16
    assert fan_in_sum(x)[5] == 0.0


def _block_major_fan_in(x):
    """The earlier block-by-block fan-in loop, kept as the reference; it
    reads block k's slot m from its lane."""
    out = _block(x, 0)
    for k in range(1, 16):
        for m in range(32):
            out[m] += x[lane(k, m)]
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
        for m, v in enumerate((-0.0, 5e-324, 1.0, 1e308)):
            x[lane(k, m)] = v
    x[lane(0, 2)], x[lane(15, 3)] = 1e16, -1e308
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
    for _ in range(50):
        # terms of one magnitude with full significands, so partial sums
        # round and a change in the order of the additions shows in the
        # last bits (uniform draws sit on a 2**-52 grid and mostly add exactly)
        yield [rng.gauss(0.0, 1.0) for _ in range(512)]


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
    # every pair gets its own H2 block on the diagonal of the 32x32 matrix
    h2 = [[1.0, 1.0], [1.0, -1.0]]
    want = [[0.0] * 32 for _ in range(32)]
    for k in range(0, 32, 2):
        for r in range(2):
            want[k + r][k : k + 2] = h2[r]
    assert materialize(hadamard_pairs, 32) == want


def test_materialized_permutation_is_a_symmetric_0_1_matrix_for_involutions():
    assert PAIRING_PERMUTATION.is_involution()
    m = materialize(lambda x: apply_permutation(PAIRING_PERMUTATION, x), 32)
    for r in range(32):
        assert sorted(m[r]) == [0.0] * 31 + [1.0]
        for c in range(32):
            assert m[r][c] in (0.0, 1.0)
            assert m[r][c] == m[c][r]


def _dense_apply(m, x):
    return [sum(row[c] * x[c] for c in range(len(x))) for row in m]


def test_every_stage_agrees_with_its_dense_materialization():
    rng = random.Random(20240901)
    signed_c = [float(rng.randint(-9, 9)) for _ in range(64)]
    perm = Permutation32(rng.sample(range(32), 32))
    stages = [
        ("permute", lambda x: apply_permutation(perm, x), 32),
        ("hadamard-pairs", hadamard_pairs, 32),
        ("replicate", replicate_pairs, 32),
        ("diagonal", lambda x: block_diagonal_scale(x, signed_c), 512),
        ("fan-in", fan_in_sum, 512),
    ]
    for kind, fn, n_in in stages:
        m = materialize(fn, n_in)
        for _ in range(100):
            x = [float(rng.randint(-100, 100)) for _ in range(n_in)]
            assert fn(x) == _dense_apply(m, x), kind
