"""Plane-curve germs at the origin with exact rational coefficients.

A germ is a bivariate polynomial in (x, y) over Q with zero constant term,
stored as an exponent dictionary.  `parse_germ` reads the grammar of
`delpezzo.poly.parse` over the names x and y (shared with the command line
and with constraint files): integer literals, + - * ( ), `/` by a nonzero
constant and `^` by a non-negative integer literal, e.g. ``y^2 - x^3``,
``3/4*x*y`` or ``x*y*(x+y)``.  Germs of degree above MAX_GERM_DEGREE are
refused before they are expanded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import poly

#: largest total degree the parser expands; every germ in the tests, demos
#: and benchmark has degree at most 9
MAX_GERM_DEGREE = 64


class GermParseError(ValueError):
    pass


class InvalidGermError(ValueError):
    pass


@dataclass(frozen=True)
class CurveGerm:
    """f(x, y) with f(0,0) = 0, f != 0, coefficients exact rationals."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(sorted(
            (((operator.index(i), operator.index(j)), q)
             for (i, j), c in self.coeffs if (q := poly.exact(c))),
            key=lambda t: (t[0][0] + t[0][1], t[0]))))
        if not self.coeffs:
            raise InvalidGermError("germ is identically zero")
        if any(i < 0 or j < 0 for (i, j), _ in self.coeffs):
            raise InvalidGermError("negative exponents are not a germ")
        if self.coeffs[0][0] == (0, 0):
            raise InvalidGermError("germ has a nonzero constant term")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], Union[int, Fraction]]) -> "CurveGerm":
        return cls(tuple(d.items()))

    # -- views -------------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.coeffs)

    def support(self) -> list[tuple[int, int]]:
        return [e for e, _ in self.coeffs]

    @property
    def multiplicity(self) -> int:
        """Lowest total degree of a monomial (order of vanishing at 0)."""
        return min(i + j for (i, j), _ in self.coeffs)

    def degree(self) -> int:
        return max(i + j for (i, j), _ in self.coeffs)

    def evaluate(self, x0, y0) -> Fraction:
        return poly.evaluate(self.terms(), (poly.exact(x0), poly.exact(y0)))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other) -> "CurveGerm":
        if isinstance(other, CurveGerm):
            return CurveGerm.from_dict(poly.mul(self.terms(), other.terms()))
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CurveGerm":
        if not isinstance(k, int) or k < 1:
            raise ValueError("power must be a positive integer")
        return CurveGerm.from_dict(poly.power(self.terms(), k))

    def scale(self, c) -> "CurveGerm":
        c = poly.exact(c)
        if c == 0:
            raise InvalidGermError("scaling by zero gives the zero germ")
        return CurveGerm(tuple((e, c * v) for e, v in self.coeffs))

    def compose_linear(self, a, b, c, d) -> "CurveGerm":
        """f(a*x + b*y, c*x + d*y); the matrix [[a, b], [c, d]] must be invertible."""
        a, b, c, d = map(poly.exact, (a, b, c, d))
        if a * d - b * c == 0:
            raise ValueError("substitution matrix is singular")
        return CurveGerm.from_dict(poly.substitute(
            self.terms(), [{(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d}]))

    def __str__(self):
        return poly.to_text((poly.monomial(e, "xy"), c) for e, c in
                            sorted(self.coeffs, key=lambda t: (sum(t[0]), -t[0][0])))


def parse_germ(text: str) -> CurveGerm:
    """Parse a germ in x and y; GermParseError on any bad or over-budget text."""
    try:
        terms = poly.parse(text, ("x", "y"), MAX_GERM_DEGREE)
    except poly.PolyParseError as exc:
        raise GermParseError(f"cannot parse {text!r}: {exc}") from exc
    try:
        return CurveGerm.from_dict(terms)
    except InvalidGermError as exc:
        raise GermParseError(str(exc)) from exc
