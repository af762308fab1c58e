"""Oracles for the polynomial layer: a step-by-step reading of `poly.parse`'s
grammar, and the bridge from exponent dicts to sympy.

Every monomial goes through `poly.mul` of one-term dicts with Fraction
coefficients, and a power is a loop of products, each charged one step of
the term-product budget and checked against the bit cap once computed.
`poly.parse` must return the same dict, or raise the same message, on every
text.  `qq_poly` hands a rational exponent dict to sympy, whose algebra the
tests compare the library's answers with.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional, Sequence

from delpezzo.poly import (MAX_COEFF_BITS, MAX_TERM_PRODUCTS, Poly, PolyParseError,
                           add, exact, mul)

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])|(\S))")


def parse(text: str, names: Sequence[str], max_degree: int,
          constants: Optional[Mapping[str, Fraction]] = None) -> Poly:
    tokens = []
    for number, word, other in _TOKEN_RE.findall(text):
        if other or word == "**":
            raise PolyParseError(f"unexpected {other or word!r}"
                                 + ("; write powers with '^'" if word else ""))
        try:
            tokens.append(int(number) if number else word)
        except ValueError:           # over the interpreter's digit limit
            raise PolyParseError("integer literal too long") from None
    tokens = [None] + tokens[::-1]   # popped from the end; None marks the end
    constants = constants or {}
    zero = (0,) * len(names)
    units = {name: tuple(int(j == i) for j in range(len(names)))
             for i, name in enumerate(names)}
    work = 0

    def take():
        if tokens[-1] is None:
            raise PolyParseError("unexpected end of input")
        return tokens.pop()

    def check(degree, bits):
        if degree > max_degree:
            raise PolyParseError(f"degree {degree} exceeds the cap of {max_degree}")
        if bits > MAX_COEFF_BITS:
            raise PolyParseError(f"coefficients exceed the cap of {MAX_COEFF_BITS} bits")

    def product(p, q):
        nonlocal work
        work += len(p) * len(q)
        if work > MAX_TERM_PRODUCTS:
            raise PolyParseError(f"more than {MAX_TERM_PRODUCTS} term products")
        return mul(p, q)

    def capped(p):
        check(0, _bits(p))
        return p

    def expr():
        parts = [term()]
        while tokens[-1] in ("+", "-"):
            parts.append(term())     # unary() reads the sign
        return add(*parts)

    def term():
        p = unary()
        while tokens[-1] in ("*", "/"):
            op, q = take(), unary()
            if op == "*":
                check(_degree(p) + _degree(q), _bits(p) + _bits(q))
                p = product(p, q)
            elif set(q) != {zero}:
                raise PolyParseError("division by a non-constant" if q
                                     else "division by zero")
            else:
                p = {e: c / q[zero] for e, c in p.items()}
        return p

    def unary():
        if tokens[-1] in ("+", "-"):
            sign, p = take(), unary()
            return p if sign == "+" else {e: -c for e, c in p.items()}
        p = atom()
        if tokens[-1] != "^":
            return p
        take()
        k = take()
        if not isinstance(k, int):
            raise PolyParseError(
                f"exponent must be a non-negative integer literal, got {k!r}")
        if not k:
            return {zero: Fraction(1)}
        # each step is checked once computed, so none outgrows the bit cap by
        # more than p's own bits; a k over the cap (0^5000) is refused at once
        check(_degree(p) * k, k if k > MAX_COEFF_BITS else 0)
        return reduce(lambda a, b: capped(product(a, b)), [p] * k)

    def atom():
        tok = take()
        if tok == "(":
            p = expr()
            if tokens.pop() != ")":
                raise PolyParseError("missing ')'")
            return p
        if isinstance(tok, int) or tok in constants:
            c = exact(constants.get(tok, tok))
            return {zero: c} if c else {}
        if tok in units:
            return {units[tok]: Fraction(1)}
        raise PolyParseError(f"unknown name {tok!r}" if tok[0].isalpha() or tok[0] == "_"
                             else f"unexpected {tok!r}")

    try:
        p = expr()
    except RecursionError:
        raise PolyParseError("expression nested too deeply") from None
    if tokens[-1] is not None:
        raise PolyParseError(f"unexpected {tokens[-1]!r}")
    return p


def _degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def _bits(p: Poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.values()), default=0)


def qq_poly(terms: dict):
    """A rational exponent dict as a sympy Poly in x, y over QQ."""
    import sympy
    return sympy.Poly.from_dict(
        {e: sympy.QQ(c.numerator, c.denominator) for e, c in terms.items()},
        *sympy.symbols("x y"), domain=sympy.QQ)
