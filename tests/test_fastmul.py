"""Factorized engine: pairing, c-vector, diagonal derivation, pipeline."""

import hashlib
import json
import math
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from bitmask_oracle import oracle_mul
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kaluza
import kaluza.fastmul as fastmul
from kaluza import _factorized
from kaluza.cayley import TABLE, VERBATIM_TABLE, CayleyTable, validate_table
from kaluza.fastmul import (
    PAIRING_PERMUTATION,
    DiagonalSpec,
    FactorizedPipeline,
    build_pipeline,
    coefficient_pairs,
    compute_c,
    count_operations,
    derive_diagonal_spec,
    mul_fast,
)
from kaluza.linops import (
    OpCount,
    apply_permutation,
    block_diagonal_scale,
    hadamard_pairs,
    lane,
    replicate_pairs,
)
from kaluza.number import (
    KaluzaNumber,
    build_mul_matrix,
    mul_dense,
    mul_naive,
    symbolic_mul_matrix,
)
from kaluza.prng import Stream

E = [KaluzaNumber.basis(i) for i in range(32)]

# Both engines are bit-exact on integers while 64*max|a|*max|b| <= 2**53:
# the fast engine's butterflies double the values before they meet.
INT_BOUND = 2**23


def test_coefficient_pairs_are_the_orbits_of_left_multiplication_by_e1(monkeypatch):
    # e1 squares to +1 and swaps the two members of each pair with sign +1,
    # so the unsigned butterfly (u + v, u - v) splits M(b) into the +1 and
    # -1 eigenspaces of left multiplication by e1.
    assert TABLE.entries[1][1] == (1, 0)
    pairs = coefficient_pairs()
    for u, v in pairs:
        assert TABLE.entries[1][u] == (1, v)
        assert TABLE.entries[1][v] == (1, u)
    assert sorted(i for pair in pairs for i in pair) == list(range(32))
    # The first members span a subalgebra F.  derive_diagonal_spec relies
    # on it: e_u * e_j = +/-e_w with u, w in F puts j in F, so A in every
    # 2x2 block refers to a first member and B to its partner.
    firsts = {u for u, _ in pairs}
    assert {TABLE.entries[x][y][1] for x in firsts for y in firsts} == firsts
    # The derivation reads only the partners.  TABLE in the basis with e6
    # negated is a valid table of the same algebra with e1 * e2 = -e6: it
    # pairs the same indices, and the bisymmetry check refuses it.
    sign = [-1 if i == 6 else 1 for i in range(32)]
    negated = CayleyTable([
        [(sign[i] * sign[j] * sign[w] * s, w) for j, (s, w) in enumerate(row)]
        for i, row in enumerate(TABLE.entries)
    ])
    assert validate_table(negated) == [] and negated.entries[1][2] == (-1, 6)
    monkeypatch.setattr(fastmul, "TABLE", negated)
    assert coefficient_pairs() == pairs
    with pytest.raises(ValueError, match=r"^block \(1, 0\) .* not bisymmetric: \[\[b2, -b6\], "):
        derive_diagonal_spec.__wrapped__(negated)
    # an orbit order that names the orbit {0, 1} twice, and {2, 6} not at all
    monkeypatch.setattr(fastmul, "_ORBIT_ORDER", (0, 0) + fastmul._ORBIT_ORDER[2:])
    with pytest.raises(ValueError, match=r"^orbit order \(0, 0, 4, .* name each of the 16 orbits once$"):
        coefficient_pairs()


def test_compute_c_pair_examples():
    b = KaluzaNumber([0, 0, 1, 0, 0, 0, 1] + [0] * 25)  # b2 = b6 = 1
    c = compute_c(b)
    assert c[2] == 1.0 and c[3] == 0.0
    b = KaluzaNumber([0] * 30 + [1, -1])  # b30 = 1, b31 = -1
    c = compute_c(b)
    assert c[30] == 0.0 and c[31] == 1.0


def test_cvector_recovers_the_original_pairs():
    b = KaluzaNumber(range(3, 35))
    c = compute_c(b)
    for t, (u, v) in enumerate(coefficient_pairs()):
        hi, lo = c[2 * t], c[2 * t + 1]
        assert (hi + lo, hi - lo) == (b.coeffs[u], b.coeffs[v])
        assert (c[32 + 2 * t], c[33 + 2 * t]) == (-hi, -lo)


def test_cvector_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 32 coefficients, got 31"):
        derive_diagonal_spec().materialize((0.0,) * 31)


def test_diagonal_spec_shape_and_sign_validation():
    good = derive_diagonal_spec()
    DiagonalSpec(good.blocks)  # round-trips
    with pytest.raises(ValueError):
        DiagonalSpec(good.blocks[:15])
    bad = [list(b) for b in good.blocks]
    bad[0][0] = (2, 0)
    with pytest.raises(ValueError):
        DiagonalSpec(bad)
    bad[0][0] = (1.0, 0.6)  # used to build as (1, 0)
    with pytest.raises(ValueError, match=r"^entry \(1\.0, 0\.6\) is not a sign \+/-1 and an index 0\.\.31$"):
        DiagonalSpec(bad)
    bad[0][0] = json.loads("[1, Infinity]")  # int() would raise OverflowError
    with pytest.raises(ValueError, match=r"^entry \(1, inf\) is not a sign"):
        DiagonalSpec(bad)
    bad[0][0] = json.loads("[NaN, 5]")
    with pytest.raises(ValueError, match=r"^entry \(nan, 5\) is not a sign"):
        DiagonalSpec(bad)
    loaded = DiagonalSpec(json.loads(json.dumps([[[float(s), j] for s, j in b] for b in good.blocks])))
    assert loaded.blocks == good.blocks
    assert loaded.materialize(tuple(range(32))) == good.materialize(tuple(range(32)))


def test_a_spec_the_generator_did_not_compile_refuses_to_materialize():
    # the typeset rendering of block 1, then one odd slot alone, whose lane
    # the guard reads apart from the even slots'
    for cells in ({(1, 18): (-1, 22), (1, 19): (-1, 23)}, {(12, 29): (1, 11)}):
        blocks = [list(b) for b in derive_diagonal_spec().blocks]
        for (k, m), ref in cells.items():
            blocks[k][m] = ref
        spec = DiagonalSpec(blocks)  # constructing one is allowed
        with pytest.raises(ValueError, match=r"regenerate it with python -m kaluza\.codegen$"):
            spec.materialize((1.0,) * 32)


def test_a_stale_diagonal_scale_refuses_the_derived_spec(monkeypatch):
    # The guard reads the generated diagonal_scale, which carries the lane
    # map: one whose lanes 2 and 3 hold each other's c-value is stale.
    assert DiagonalSpec(derive_diagonal_spec().blocks).materialize((1.0,) * 32)
    generated = _factorized.diagonal_scale

    def stale(x, d):
        out = generated(x, d)
        out[2], out[3] = out[3], out[2]
        return out

    monkeypatch.setattr(_factorized, "diagonal_scale", stale)
    spec = DiagonalSpec(derive_diagonal_spec().blocks)
    with pytest.raises(ValueError, match=r"^_factorized\.diagonal_scale was generated from other"):
        spec.materialize((1.0,) * 32)


def test_first_block_starts_with_plus_c0_plus_c1():
    spec = derive_diagonal_spec()
    assert spec.blocks[0][0] == (1, 0)
    assert spec.blocks[0][1] == (1, 1)


def test_slot_18_of_block_1_resolves_to_plus_c23():
    # the typeset rendering shows -c22 here; the value generated from the
    # basis table is +c23, and the concordance report carries the diff
    spec = derive_diagonal_spec()
    assert spec.blocks[1][18] == (1, 23)
    assert spec.blocks[1][19] == (1, 22)


def test_every_c_entry_is_referenced():
    spec = derive_diagonal_spec()
    assert {j for block in spec.blocks for (_, j) in block} == set(range(32))


def test_explicit_table_derivation_matches_the_cached_default():
    assert derive_diagonal_spec(TABLE).blocks == derive_diagonal_spec().blocks
    # derived once per process: build_pipeline never re-derives it
    assert derive_diagonal_spec() is derive_diagonal_spec()


def test_uncorrected_table_breaks_bisymmetry_at_block_9_1():
    with pytest.raises(ValueError, match=r"block \(9, 1\).*not bisymmetric"):
        derive_diagonal_spec(VERBATIM_TABLE)


def test_pairs_taken_partner_first_are_rejected(monkeypatch):
    # An orbit order that names the partner 1 in place of 0 keeps every
    # block bisymmetric, but A then refers to a pair's second member, which
    # the closed-form resolution does not cover.
    monkeypatch.setattr(fastmul, "_ORBIT_ORDER", (1,) + fastmul._ORBIT_ORDER[1:])
    with pytest.raises(
        ValueError,
        match=r"^block \(0, 0\): A = b0 and B = b1 do not refer to a pair's "
        r"first member and its partner$",
    ):
        derive_diagonal_spec.__wrapped__(None)


def test_materialized_diagonal_applies_signs_for_free():
    # A pipeline holds 64 signed c-values; the diagonal scale, run on ones,
    # reads each lane's back, and 1.0 * v is v bit for bit.  The specials
    # sit in pairs with a zero partner, so their halves are NaN, +-inf and
    # signed zeros.
    spec = derive_diagonal_spec()
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan]
    b = [float(i) for i in range(1, 33)]
    for (u, v), x in zip(coefficient_pairs()[1:], specials):
        b[u], b[v] = x, 0.0
    for operand in (range(1, 33), b):
        signed = spec.materialize(tuple(operand))
        assert len(signed) == 64
        c = signed[:32]
        values = block_diagonal_scale([1.0] * 512, signed)
        for k in range(16):
            for m in range(32):
                s, j = spec.blocks[k][m]
                want = c[j] if s > 0 else -c[j]
                assert struct.pack("<d", values[lane(k, m)]) == struct.pack("<d", want)


def _products(a, b):
    """a * b by every registered engine, in registry order."""
    return [m(a, b if p is None else p(b)) for p, m in fastmul.ENGINES.values()]


class _Real(float):
    """A float subclass: float() turns it into a plain float."""


def test_every_engine_result_holds_32_plain_floats():
    # mul_naive and mul_fast wrap their results without a float() pass, so
    # the values must already be floats wherever they come from.
    rng = random.Random(26)
    specials = (0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan)
    operands = [
        KaluzaNumber(range(-16, 16)),
        KaluzaNumber([True, 3, _Real(2.5), Fraction(1, 3)] * 8),
        KaluzaNumber([rng.uniform(-1.0, 1.0) for _ in range(32)]),
        KaluzaNumber([specials[i % 8] for i in range(32)]),
        KaluzaNumber([rng.choice(specials) for _ in range(32)]),
    ]
    for a in operands:
        for b in operands:
            for out in _products(a, b):
                assert type(out.coeffs) is tuple and len(out.coeffs) == 32
                assert {type(v) for v in out.coeffs} == {float}
    # A pipeline is built from a KaluzaNumber, whose float() pass is the
    # only one: the 64 signed c-values it holds are floats too.
    for b in operands[:2]:
        p = FactorizedPipeline(b)
        assert type(p.signed_c) is tuple and len(p.signed_c) == 64
        assert {type(v) for v in p.signed_c} == {float}
    for c in ([1j] * 32, ["c"] * 32, [1.0] * 31):
        with pytest.raises((TypeError, ValueError)):
            KaluzaNumber(c)


def test_one_build_calls_each_traced_entry_point_once(monkeypatch):
    # perfbench's traced run wraps these three by name.  Without one call
    # per build, its rows fastmul.compute_c.ns_per_call and
    # .adds_per_call, fastmul.FactorizedPipeline.init.ns_per_call and
    # fastmul.DiagonalSpec.materialize.ns_per_call read null, and its CI
    # step fails on a null metric.
    calls = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fastmul, "compute_c", spy("compute_c", compute_c))
    monkeypatch.setattr(FactorizedPipeline, "__init__", spy("init", FactorizedPipeline.__init__))
    monkeypatch.setattr(DiagonalSpec, "materialize", spy("materialize", DiagonalSpec.materialize))
    counter = OpCount()
    p = build_pipeline(KaluzaNumber(range(2, 34)), counter)
    assert calls == {"compute_c": 1, "init": 1, "materialize": 1}
    assert counter.stages == {"prepare": (0, 32)}
    assert type(p.signed_c) is tuple and len(p.signed_c) == 64
    assert {type(v) for v in p.signed_c} == {float}


# Each engine's tally by stage: the butterfly runs on both sides, 0/32 each,
# and the lanes are the diagonal scale (512/0) and the fan-in (0/480).
STAGE_TALLIES = {
    "naive": {"direct": (1024, 992)},
    "dense": {"prepare": (0, 0), "direct": (1024, 992)},
    "fast": {"prepare": (0, 32), "butterfly": (0, 64), "lanes": (512, 480)},
}


def _stage_sum(stages):
    return tuple(map(sum, zip(*stages.values())))


def test_count_operations_tallies_each_stage_and_the_stages_sum_to_the_total():
    assert set(STAGE_TALLIES) == set(fastmul.ENGINES)
    for engine, stages in STAGE_TALLIES.items():
        counter = count_operations(engine)
        assert counter.stages == stages, engine
        assert _stage_sum(stages) == counter.as_tuple(), engine
        product = count_operations(engine, include_preprocessing=False)
        assert product.stages == {k: v for k, v in stages.items() if k != "prepare"}, engine
        assert _stage_sum(product.stages) == product.as_tuple(), engine


def test_both_engines_equal_the_exact_integer_product_at_the_bound():
    # Magnitudes up to 2**23 with full significands, against products in
    # Python integers.  Coefficients all at exactly +/-2**23 would make
    # every term a power of two, exact at any size.  The same draws
    # scaled to 2**25 are not all exact.
    rng = random.Random(23)

    def coeff():
        return rng.choice((-1, 1)) * rng.randint(INT_BOUND // 2, INT_BOUND)

    for _ in range(40):
        xs = [coeff() for _ in range(32)]
        ys = [coeff() for _ in range(32)]
        exact = oracle_mul(xs, ys)
        a, b = KaluzaNumber(xs), KaluzaNumber(ys)
        assert list(mul_naive(a, b).coeffs) == exact
        assert list(mul_fast(a, build_pipeline(b)).coeffs) == exact


def _half_integer_edge_operands(m, e=23):
    """Integer operands with max |coefficient| = 2**e where slot m of the
    fan-in adds sixteen equal products (2**(e+1) - 1)**2 / 2.

    Every lane value reaching slot m is 2**(e+1) - 1 and every diagonal
    entry there is (2**(e+1) - 1) / 2, a half-integer, so the slot's
    partial sums climb to 32 * max|a| * max|b| in steps of 1/2: that is
    64 * max|a| * max|b| = 2**(2e+6) half-units, at the edge of the bound
    for e = 23 and past it for e = 24.
    """
    top, odd = 2**e, 2**e - 1
    pairs = coefficient_pairs()
    a, b = [0] * 32, [0] * 32
    for k, (u, v) in enumerate(pairs):
        a[u], a[v] = top, odd if m % 2 == 0 else -odd
        s, j = derive_diagonal_spec().blocks[k][m]
        bu, bv = pairs[j // 2]
        b[bu], b[bv] = s * top, s * (odd if j % 2 == 0 else -odd)
    assert 0 not in b  # slot m refers to each pair once
    return a, b


def test_fast_is_bit_exact_where_half_integer_sums_reach_the_bound():
    term = (2**24 - 1) ** 2 / 2
    for m in range(32):
        xs, ys = _half_integer_edge_operands(m)
        a, b = KaluzaNumber(xs), KaluzaNumber(ys)
        p = build_pipeline(b)
        lanes = hadamard_pairs(apply_permutation(PAIRING_PERMUTATION, a.coeffs))
        scaled = block_diagonal_scale(replicate_pairs(lanes), p.signed_c)
        assert [scaled[lane(k, m)] for k in range(16)] == [term] * 16
        got, want = mul_fast(a, p).coeffs, mul_naive(a, b).coeffs
        assert struct.pack("<32d", *got) == struct.pack("<32d", *want), m
        assert list(got) == oracle_mul(xs, ys), m


def test_fast_leaves_the_exact_product_one_binade_past_the_bound():
    # The same construction at 2**24: the naive engine is still exact
    # (32 * max|a| * max|b| = 2**53), the fast engine's half-integer sums
    # now round in every one of the 32 fan-in slots, so 2**23 is tight.
    for m in range(32):
        xs, ys = _half_integer_edge_operands(m, e=24)
        a, b = KaluzaNumber(xs), KaluzaNumber(ys)
        exact = oracle_mul(xs, ys)
        assert list(mul_naive(a, b).coeffs) == exact, m
        assert list(mul_fast(a, build_pipeline(b)).coeffs) != exact, m


def _nan(sign: int, payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF8 << 48 | payload))[0]


TINY, HUGE = 2.0**-1022, sys.float_info.max
special_value = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
    st.floats(min_value=-TINY, max_value=TINY),  # zeros and subnormals
    st.floats(min_value=2.0**1022, max_value=HUGE),
    st.floats(min_value=-HUGE, max_value=-(2.0**1022)),
    st.builds(_nan, st.integers(0, 1), st.integers(0, 2**51 - 1)),
)
special_vec = st.lists(special_value, min_size=32, max_size=32)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200)
@given(special_vec, special_vec)
@example([math.nan, -math.nan] * 16, [-math.nan, math.nan] * 16)
def test_preparation_copies_signs_and_halves_bit_for_bit_on_special_values(bs, cs):
    b = KaluzaNumber(bs)
    for row, refs in zip(build_mul_matrix(b), symbolic_mul_matrix()):
        assert [_bits(v) for v in row] == [_bits(bs[j] if s > 0 else -bs[j]) for s, j in refs]
    spec = derive_diagonal_spec()
    for xs in (bs, cs):
        signed = compute_c(KaluzaNumber(xs))
        c = signed[:32]
        assert [_bits(v) for v in signed[32:]] == [_bits(-v) for v in c]
        want = [_bits(c[j] if s > 0 else -c[j]) for block in spec.blocks for s, j in block]
        values = block_diagonal_scale([1.0] * 512, signed)
        assert [_bits(values[lane(k, m)]) for k in range(16) for m in range(32)] == want
        for t, (u, v) in enumerate(coefficient_pairs()):
            halved = ((xs[u] + xs[v]) * 0.5, (xs[u] - xs[v]) * 0.5)
            for got, exact in zip(c[2 * t:2 * t + 2], halved):
                if math.isnan(xs[u]) and math.isnan(xs[v]):
                    # which of two NaNs survives depends on whether the
                    # instruction is specialized yet (see _special_operands)
                    assert math.isnan(got), (t, xs[u], xs[v])
                else:
                    assert _bits(got) == _bits(exact), (t, xs[u], xs[v])


def test_fast_is_finite_and_tracks_naive_on_the_safe_side_of_overflow():
    # 64 * max|a| * max|b| = 2**1023 and max|a|, max|b| <= 2**1022: every
    # stage of the fast engine stays finite (the range note in number.py)
    a, b = KaluzaNumber([1.0] * 32), KaluzaNumber([2.0**1017] * 32)
    got = mul_fast(a, build_pipeline(b)).coeffs
    want = mul_naive(a, b).coeffs
    assert all(map(math.isfinite, got))
    scale = max(abs(v) for v in want)
    assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))


# The fast engine's range defect, as the note in number.py documents it:
# past max|b| = 2**1022 the butterflies overflow and inf * 0 gives NaN in
# every slot, and the c-values' halving rounds 2**-1074 to zero.  A fix
# of the defect must turn each of these into a pass.
RANGE_DEFECT_OPERANDS = {
    "1e308": [1e308] * 32,
    "2**-1074*e3": [0.0] * 3 + [2.0**-1074] + [0.0] * 28,
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the fast engine's range defect")
@pytest.mark.parametrize("edge_on_left", (True, False), ids=("edge*e0", "e0*edge"))
@pytest.mark.parametrize("edge", RANGE_DEFECT_OPERANDS)
def test_fast_matches_naive_at_the_documented_range_edges(edge, edge_on_left):
    x = KaluzaNumber(RANGE_DEFECT_OPERANDS[edge])
    a, b = (x, E[0]) if edge_on_left else (E[0], x)
    assert mul_fast(a, build_pipeline(b)).coeffs == mul_naive(a, b).coeffs


# sha256 of both engines' results on the operands below, computed before
# the column-wise fan-in rewrite and identical on CPython 3.10 to 3.13.
# Any later kernel rewrite must keep every result bit for bit.
GOLDEN_SHA256 = "daef8bc6cf849e8c3d81d5fbe30709afd9eec149a85f5fc6f1bcd82ab06704cb"


def _golden_operands(seed=4, per_kind=16):
    """Finite operand pairs of four kinds from a pinned stream: integers
    within the exactness bound, reals in [-1, 1), reals scaled by 2**-200
    to 2**200, and reals with about a quarter of the slots signed zeros."""
    s = Stream(seed)
    kinds = (
        lambda: s.coeffs_int(INT_BOUND),
        s.coeffs_real,
        lambda: [s.real() * 2.0 ** s.int_between(-200, 200) for _ in range(32)],
        lambda: [
            (-0.0 if s.bits(1) else 0.0) if s.bits(2) == 0 else s.real()
            for _ in range(32)
        ],
    )
    for draw in kinds:
        for _ in range(per_kind):
            yield KaluzaNumber(draw()), KaluzaNumber(draw())


def test_both_engines_reproduce_the_golden_digest():
    h = hashlib.sha256()
    for a, b in _golden_operands():
        fast = mul_fast(a, build_pipeline(b))
        dense = mul_dense(a, build_mul_matrix(b))
        h.update(struct.pack("<64d", *fast.coeffs, *dense.coeffs))
    assert h.hexdigest() == GOLDEN_SHA256


# Edge values for the naive digest: signed zeros, the smallest subnormal,
# infinities and NaNs, each with both signs.
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan)


def _special_operands(seed=5):
    """Pinned pairs holding SPECIAL_VALUES: one in a slot of an otherwise
    real left or right operand; zeros and subnormals against small
    integers, where every product is exact and subnormal results survive;
    and pairs made of zeros, subnormals and infinities only.

    No sum or product meets two NaNs of different sign: which one
    survives depends on the interpreter, not on the engine.  CPython 3.11
    and later keep the right one of p + n once the instruction is
    specialized, and the left one before.  The last kind makes its NaNs
    from inf * 0 and inf - inf, which give one default NaN.
    """
    s = Stream(seed)
    for i, v in enumerate(SPECIAL_VALUES):
        a, b = s.coeffs_real(), s.coeffs_real()
        a[(5 * i) % 32] = v
        yield KaluzaNumber(a), KaluzaNumber(b)
        a, b = s.coeffs_real(), s.coeffs_real()
        b[(7 * i + 3) % 32] = v
        yield KaluzaNumber(a), KaluzaNumber(b)
    for shift in range(4):
        tiny = [SPECIAL_VALUES[(i + shift) % 4] for i in range(32)]
        yield KaluzaNumber(tiny), KaluzaNumber(s.coeffs_int(4))
        yield KaluzaNumber(s.coeffs_int(4)), KaluzaNumber(tiny)
        yield (
            KaluzaNumber([SPECIAL_VALUES[(3 * i + shift) % 6] for i in range(32)]),
            KaluzaNumber([SPECIAL_VALUES[(5 * i + shift) % 6] for i in range(32)]),
        )


# sha256 of the naive engine's results on the golden and the special
# operands, computed with the table-walking loop before mul_naive became
# generated straight-line code; identical on CPython 3.10 to 3.13 on
# x86-64, whose arithmetic fixes the sign and payload of each NaN.
GOLDEN_NAIVE_SHA256 = "d1824243fb382f17bde0c4163b2f82ab6554810a25d9e9a700888c4a819c5504"


def test_naive_engine_reproduces_its_golden_digest():
    h = hashlib.sha256()
    for a, b in [*_golden_operands(), *_special_operands()]:
        h.update(struct.pack("<32d", *mul_naive(a, b).coeffs))
    assert h.hexdigest() == GOLDEN_NAIVE_SHA256


# sha256 of the dense engine's results on the same operands, computed with
# the hand-written row comprehension before mul_dense became generated
# straight-line code; identical on CPython 3.10 to 3.13 on x86-64, on
# every pass in one process.
GOLDEN_DENSE_SHA256 = "3ea4a709515bbd749e4f7824162be851cc10a16ee97630fc9d1aefac3a920317"


def test_dense_engine_reproduces_its_golden_digest():
    h = hashlib.sha256()
    for a, b in [*_golden_operands(), *_special_operands()]:
        h.update(struct.pack("<32d", *mul_dense(a, build_mul_matrix(b)).coeffs))
    assert h.hexdigest() == GOLDEN_DENSE_SHA256


def _nan_bearing_operands(seed=6, per_kind=150):
    """Pinned pairs with one of SPECIAL_VALUES in about a quarter of the
    slots: first drawn from all eight, then from the six that are not NaN,
    whose NaNs come from inf - inf and inf * 0 and fill only some slots."""
    s = Stream(seed)

    def draw(kinds):
        return [
            SPECIAL_VALUES[s.int_between(0, kinds - 1)] if s.bits(2) == 0 else s.real()
            for _ in range(32)
        ]

    for kinds in (8, 6):
        for _ in range(per_kind):
            yield KaluzaNumber(draw(kinds)), KaluzaNumber(draw(kinds))


def _nan_slots_per_pass(passes=3):
    """For each pass over _nan_bearing_operands(): per pair, the NaN slots
    of the naive, dense and fast products."""
    pairs = list(_nan_bearing_operands())
    return [
        [
            [[k for k, v in enumerate(x.coeffs) if math.isnan(v)] for x in _products(a, b)]
            for a, b in pairs
        ]
        for _ in range(passes)
    ]


def test_nan_slots_are_the_same_from_the_first_call_on():
    # The README's NaN contract.  A fresh interpreter, so that the first
    # pass holds the engines' first, unspecialized calls; those can give a
    # NaN of another sign than later calls, but never a NaN in another slot.
    paths = [str(Path(kaluza.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    code = (
        f"import json, sys; sys.path[:0] = {paths!r}; import test_fastmul; "
        "print(json.dumps(test_fastmul._nan_slots_per_pass()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    first, *later = json.loads(proc.stdout)
    assert all(p == first for p in later)
    for naive, dense, fast in first:
        assert dense == naive
        assert set(naive) <= set(fast)  # fast may give NaN where naive gives +-inf
    assert any(0 < len(naive) < 32 for naive, _, _ in first)
