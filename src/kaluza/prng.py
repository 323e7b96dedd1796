"""Small deterministic generator for reproducible verification runs.

A 64-bit multiplicative congruential generator: state <- state * A mod
2**64 with A = 6364136223846793005 (Knuth's MMIX multiplier, = 5 mod 8).
The state is forced odd at seeding, which keeps the recurrence on the
maximal-period orbit of odd residues.  Low bits of such a generator are
weak, so every draw comes from the high bits, and integer ranges are
produced by rejection so that identical seeds give identical streams on
any platform.

This is deliberately not ``random.Random``: verification transcripts must
be byte-identical across Python versions, so the generator is pinned down
to the arithmetic.
"""

_MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1
SEED_LIMIT = 1 << 63


class Stream:
    """Deterministic 64-bit stream seeded from an integer in 0 .. 2**63 - 1.

    The state is 2 * seed + 1 mod 2**64, so a seed past that range would
    give the stream of seed - 2**63; it is refused instead.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be in 0..2**63 - 1, got {seed}")
        self.state = (seed << 1) | 1

    def next_word(self) -> int:
        """Advance once and return the full 64-bit state."""
        self.state = (self.state * _MULTIPLIER) & _MASK64
        return self.state

    def bits(self, k: int) -> int:
        """Top k bits of the next word, 1 <= k <= 64."""
        if not 1 <= k <= 64:
            raise ValueError("k must be in 1..64")
        return self.next_word() >> (64 - k)

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], bias-free via rejection."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        k = max(1, span.bit_length())
        while True:
            v = self.bits(k)
            if v < span:
                return lo + v

    def real(self) -> float:
        """Uniform float in [-1.0, 1.0) from 53 high bits."""
        return self.bits(53) / float(1 << 52) - 1.0

    def coeffs_int(self, bound: int = 1024) -> list[float]:
        """32 integer-valued coefficients, each uniform in [-bound, bound]."""
        return [float(self.int_between(-bound, bound)) for _ in range(32)]

    def coeffs_real(self) -> list[float]:
        """32 coefficients, each uniform in [-1, 1)."""
        return [self.real() for _ in range(32)]
