"""A polynomial scalar, for running the engines on formal symbols.

The engines only unpack, add, subtract, negate and multiply their
coefficients, so they run unchanged on Poly values a0..a31, b0..b31 and
return each output slot as an exact polynomial.  Comparing that with the
structure tensor proves the engine, not a sample of it: a wrong sign, a
missing or extra term, a constant or a higher-degree term, and a wrong
scale (compute_c's 1/2 is a Fraction here) all show.

A monomial is a sorted tuple of symbol names; a Poly maps monomials to
nonzero Fraction coefficients.  Plain numbers are constants, converted
exactly (a float becomes the Fraction of its binary value).
"""

from fractions import Fraction


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({(name,): Fraction(1)})

    @classmethod
    def of(cls, x) -> "Poly":
        return x if isinstance(x, Poly) else cls({(): Fraction(x)})

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    __hash__ = None

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in Poly.of(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.of(other).terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __repr__(self):
        return " + ".join(f"{c}*{'*'.join(m) or '1'}" for m, c in sorted(self.terms.items())) or "0"


def symbols(prefix: str, n: int = 32) -> tuple:
    """The n symbols prefix0 .. prefix(n-1)."""
    return tuple(Poly.symbol(f"{prefix}{i}") for i in range(n))
