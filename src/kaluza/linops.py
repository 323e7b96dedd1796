"""Linear-operator kernels with exact operation accounting.

Five kernels cover everything the factorized multiplication needs:
permutation, pairwise Hadamard butterflies, replication, diagonal
scaling by the signed c-values, and fan-in summation.  Every kernel is
branch-free and takes a fixed length, so its cost is a fixed number and
counters are bumped by that exact amount, under the kernel's stage name
(OpCount.stages).  The butterfly, the diagonal scale and the fan-in run
the straight-line stages of ``_factorized.py``, written with their
tallies by ``python -m kaluza.codegen``; a stage's tuple unpack rejects
any other length, and a kernel counts only after its stage returns.
The 512 lanes between replication and fan-in are lane-major: lane
``lane(k, m)`` carries slot m of pair block k.  Negations and power-of-two
scalings are shift-class operations and stay off the books; a subtraction
is tallied as an addition.  ``materialize`` turns any of them, or any
chain of them, into a dense matrix for verification.
"""

from operator import itemgetter

from . import _factorized


class OpCount:
    """Running tally of real multiplications and real additions.

    A count made with a stage name is also added to stages[name], a
    (multiplications, additions) pair.  The engines name four: "prepare"
    (a right operand's preparation), "butterfly" (each side's pair
    butterfly), "lanes" (the 512-lane diagonal scale and its fan-in) and
    "direct" (a whole direct product).
    """

    __slots__ = ("multiplications", "additions", "stages")

    def __init__(self):
        self.multiplications = 0
        self.additions = 0
        self.stages = {}

    def count(self, mults: int = 0, adds: int = 0, stage: str | None = None) -> None:
        if mults < 0 or adds < 0:
            raise ValueError("operation tallies only grow")
        self.multiplications += mults
        self.additions += adds
        if stage is not None:
            m, a = self.stages.get(stage, (0, 0))
            self.stages[stage] = (m + mults, a + adds)

    def as_tuple(self) -> tuple[int, int]:
        return (self.multiplications, self.additions)


class Permutation32:
    """A bijection on {0..31}.  Application fills slot i from map[i]."""

    SIZE = 32

    __slots__ = ("map", "_gather")

    def __init__(self, map_):
        given = tuple(map_)
        # integral floats and bools pass; 0.7, inf, NaN or "7" do not
        if len(given) != self.SIZE or set(given) != set(range(self.SIZE)):
            raise ValueError("permutation must be a bijection on 0..31")
        self.map = m = tuple(map(int, given))
        self._gather = itemgetter(*m)

    def is_involution(self) -> bool:
        return all(self.map[self.map[i]] == i for i in range(self.SIZE))


def apply_permutation(p: Permutation32, x) -> list:
    """Reorder a 32-vector: out[i] = x[map[i]].

    Pure data movement; zero counted operations.
    """
    if len(x) != p.SIZE:
        raise ValueError(f"expected a {p.SIZE}-vector, got length {len(x)}")
    return list(p._gather(x))


def hadamard_pairs(x, counter: OpCount | None = None) -> list:
    """Butterfly every adjacent pair of a 32-vector: (u, v) -> (u + v, u - v).

    Two additions per pair; 32 in total.
    """
    out = _factorized.butterfly(x)
    if counter is not None:
        counter.count(*_factorized.BUTTERFLY_OPS, stage="butterfly")
    return out


def lane(k: int, m: int) -> int:
    """The lane of slot m (0..31) of pair block k (0..15) among the 512.

    Block k scales x{2k} (even m) or x{2k+1} (odd m); laid out lane-major,
    lane 32r + i carries x{i}, so the pair block's slot m sits in copy m//2.
    """
    return 32 * (m // 2) + 2 * k + m % 2


def replicate_pairs(x) -> list:
    """Sixteen copies of a 32-list, one after another: lane 32r + i is x[i].

    So lane(k, m) carries x[2k + m%2].  Pure fan-out; zero counted
    operations.
    """
    if len(x) != 32:
        raise ValueError(f"expected a 32-vector, got length {len(x)}")
    return x * 16


def block_diagonal_scale(x, signed_c, counter: OpCount | None = None) -> list:
    """Scale the 512 lanes x by the diagonal: lane lane(k, m) times the
    signed c-value that slot m of block k references.

    signed_c is the 64 values a pipeline holds, (c0, ..., c31, -c0, ...,
    -c31) (fastmul.DiagonalSpec.materialize); the lane-to-value map is
    compiled into the generated stage.  One real multiplication per lane,
    512 in total.
    """
    out = _factorized.diagonal_scale(x, signed_c)
    if counter is not None:
        counter.count(*_factorized.DIAGONAL_SCALE_OPS, stage="lanes")
    return out


def fan_in_sum(x, counter: OpCount | None = None) -> list:
    """Sum the sixteen pair blocks of a 512-vector: out[m] = sum over k of x[lane(k, m)].

    Slot by slot: each slot is one left-nested sum ((a0 + a1) + a2) +
    ... + a15 of its lanes in blocks 0, 1, ..., 15, so the additions run
    strictly in block order.  15 additions per slot; 480 in total.
    """
    out = _factorized.fan_in(x)
    if counter is not None:
        counter.count(*_factorized.FAN_IN_OPS, stage="lanes")
    return out


def materialize(fn, n_in: int) -> list[list[float]]:
    """Dense matrix (list of rows) of a linear function of n_in-vectors.

    Built column by column from unit vectors, so it is exactly the matrix
    that fn implements.
    """
    cols = []
    for i in range(n_in):
        unit = [0.0] * n_in
        unit[i] = 1.0
        cols.append(fn(unit))
    return [list(row) for row in zip(*cols)]
