"""Each engine description proved by the Brent equations.

codegen states every engine as out = W((U a) * (V b)) over its rank.
Such a map is the product a * b for every a and b exactly when

    sum over r of U[r, i] * V[r, j] * W[k, r] = T[i, j, k]

for every (i, j, k), where e_i * e_j = sum over k of T[i, j, k] * e_k
(Brent 1970, "Algorithms for matrix multiplication", Stanford
CS-TR-70-157).  The stages are composed in Fractions, so the check is
exact, and T comes from bitmask_oracle, which does not read the
package's table.  All 32**3 entries are compared, the zeros of T too.

This checks the descriptions; test_symbolic.py runs the generated code
on formal symbols and so checks that the emitter is faithful to them.
"""

from fractions import Fraction
from itertools import product

import pytest
from bitmask_oracle import oracle_basis_mul

from kaluza import _direct, codegen
from kaluza.fastmul import PAIRING_PERMUTATION
from kaluza.linops import apply_permutation, materialize, replicate_pairs

ENGINES = {e.name: e for e in (codegen.direct_engine(), codegen.factorized_engine())}
CUBE = list(product(range(32), repeat=3))


def _matrix(stages) -> list[dict[int, Fraction]]:
    """The sparse rows {input index: coefficient} of stages applied in order."""
    rows = None
    for stage in stages:
        scale = Fraction(stage.scale)
        composed = []
        for row in stage.rows:
            acc = {}
            for s, j in row:
                for i, c in (rows[j].items() if rows is not None else [(j, 1)]):
                    acc[i] = acc.get(i, 0) + scale * s * c
            composed.append({i: c for i, c in acc.items() if c})
        rows = composed
    return rows


def _brent_mismatches(engine) -> list[tuple[int, int, int]]:
    """Every (i, j, k) at which the engine's sum differs from T[i, j, k]."""
    u, v, w = (_matrix(s) for s in (engine.a_stages, engine.b_stages, engine.out_stages))
    assert len(u) == len(v) == engine.rank and len(w) == 32
    got = {}
    for k, row in enumerate(w):
        for r, wr in row.items():
            for (i, ui), (j, vj) in product(u[r].items(), v[r].items()):
                got[i, j, k] = got.get((i, j, k), 0) + ui * vj * wr
    want = {}
    for i, j in product(range(32), repeat=2):
        s, k = oracle_basis_mul(i, j)
        want[i, j, k] = s
    # an index out of range lands outside the cube, which is a mismatch too
    keys = CUBE + sorted(set(got) - set(CUBE))
    return [ijk for ijk in keys if got.get(ijk, 0) != want.get(ijk, 0)]


@pytest.mark.parametrize("name", ENGINES)
def test_each_engine_description_satisfies_the_brent_equations(name):
    assert _brent_mismatches(ENGINES[name]) == []


def _flip_one_v_sign(engine, lane=300):
    *b_stages, picks = engine.b_stages
    ((s, j),) = picks.rows[lane]
    rows = picks.rows[:lane] + (((-s, j),),) + picks.rows[lane + 1:]
    return engine._replace(b_stages=(*b_stages, picks._replace(rows=rows)))


def _drop_one_lane(engine, lane=37):
    """The engine at rank 511, without the product in that lane."""
    *a_stages, replicate = engine.a_stages
    *b_stages, picks = engine.b_stages
    fan_in, *out_stages = engine.out_stages

    def without(stage):
        return stage._replace(rows=stage.rows[:lane] + stage.rows[lane + 1:])

    fan_in = fan_in._replace(rows=tuple(
        tuple((s, r - (r > lane)) for s, r in row if r != lane) for row in fan_in.rows
    ))
    return engine._replace(
        a_stages=(*a_stages, without(replicate)), b_stages=(*b_stages, without(picks)),
        rank=engine.rank - 1, out_stages=(fan_in, *out_stages),
    )


def _copy_plus_c_into_n_slot(engine, j=5):
    """The signed copy with +c{j} where -c{j} belongs, in entry 32 + j."""
    c_values, signed, picks = engine.b_stages
    assert signed.rows[32 + j] == ((-1, j),)
    rows = signed.rows[:32 + j] + (((1, j),),) + signed.rows[33 + j:]
    return engine._replace(b_stages=(c_values, signed._replace(rows=rows), picks))


@pytest.mark.parametrize("mutate", [_flip_one_v_sign, _drop_one_lane, _copy_plus_c_into_n_slot])
def test_a_broken_description_fails_the_brent_equations(mutate):
    broken = mutate(ENGINES["factorized"])
    assert broken != ENGINES["factorized"]
    assert _brent_mismatches(broken)


def test_the_factorized_v_is_three_stages_as_they_run():
    # the c-values, the 64 signed c-values, one positive pick of those per lane
    c_values, signed, picks = ENGINES["factorized"].b_stages
    assert (len(c_values.rows), len(signed.rows), len(picks.rows)) == (32, 64, 512)
    assert signed.rows == tuple(((s, j),) for s in (1, -1) for j in range(32))
    assert all(s == 1 and 0 <= i < 64 for ((s, i),) in picks.rows)


def test_the_direct_v_is_what_mul_matrix_returns():
    (v,) = ENGINES["direct"].b_stages
    b = [float(j + 1) for j in range(32)]
    assert [s * b[j] for ((s, j),) in v.rows] == [x for row in _direct.mul_matrix(b) for x in row]


def test_the_hand_written_factorized_stages_are_the_described_ones():
    permute, _, replicate = ENGINES["factorized"].a_stages

    def dense(stage, n):
        return [[row.get(i, 0) for i in range(n)] for row in _matrix([stage])]

    assert dense(permute, 32) == materialize(lambda x: apply_permutation(PAIRING_PERMUTATION, x), 32)
    assert dense(replicate, 32) == materialize(replicate_pairs, 32)
