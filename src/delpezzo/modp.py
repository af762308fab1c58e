"""Square-free certificates modulo the prime P = 2^61 - 1.

A univariate h over QQ whose residues mod P exist, whose top coefficient
survives and whose reduction is square-free over GF(P) is square-free over
QQ.  By Gauss's lemma over the local ring Z_(P), a factorization h = g^2 * k
over QQ can be taken with g and k integral at P; reducing it gives
h~ = g~^2 * k~, and since the degree of h is kept and no factor's degree
can grow under reduction, deg g~ = deg g >= 1.  The test is one-sided: a
reduction that is not square-free, or a degree that drops, proves nothing,
and every caller then falls back to sympy.

A bivariate integer polynomial f is certified by specialising: f(x, t) and
f(s, y), for the fixed point POINT = (s, t), reduced mod P.  A repeated
factor g of f has positive degree in x or in y, say x; if f(x, t)~ keeps
deg_x f, then g(x, t)~ keeps deg_x g and divides it twice.

Polynomials are lists of residues, constant term first.  Nothing here
imports more than the standard library.
"""

from __future__ import annotations

from typing import Optional, Sequence

P = (1 << 61) - 1

#: the point (s, t) at which f(x, t) and f(s, y) are read
POINT = (0x2F6B3A1C9D58E47, 0x15C3E9A07B2D6F1)


def residue(c) -> Optional[int]:
    """c mod P for a rational c (anything with numerator and denominator),
    or None when P divides its denominator."""
    n, d = c.numerator, c.denominator
    if d == 1:
        return n % P
    if d % P == 0:
        return None
    return n * pow(d, -1, P) % P


def residues(coeffs: Sequence) -> Optional[list[int]]:
    """The residues of a univariate polynomial's coefficients, constant term
    first, or None when one does not exist or the top one vanishes."""
    h = [residue(c) for c in coeffs]
    if None in h or not h[-1]:
        return None
    return h


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % P for c in out]


def _rem(a: list[int], b: list[int]) -> list[int]:
    """a mod b over GF(P), b with a nonzero top coefficient; no trailing
    zeros in the result."""
    a = list(a)
    inv = pow(b[-1], -1, P)
    while len(a) >= len(b):
        q, shift = a[-1] * inv % P, len(a) - len(b)
        for k in range(len(b) - 1):
            a[shift + k] = (a[shift + k] - q * b[k]) % P
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def is_squarefree(h: list[int]) -> bool:
    """gcd(h, h') = 1 over GF(P), for h with a nonzero top coefficient and
    degree below P (so h' keeps degree deg h - 1)."""
    a, b = h, [k * c % P for k, c in enumerate(h)][1:]
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def certifies(coeffs: Sequence) -> bool:
    """Is the univariate polynomial with these rational coefficients,
    constant term first, certified square-free over QQ?"""
    h = residues(coeffs)
    return h is not None and is_squarefree(h)


def _specialise(terms: dict, axis: int, value: int) -> list[int]:
    """sum c * x^i * y^j mod P as a polynomial in the variable `axis`
    (0 for x, 1 for y), the other variable set to value."""
    h = [0] * (max(e[axis] for e in terms) + 1)
    for e, c in terms.items():
        h[e[axis]] += c * pow(value, e[1 - axis], P)
    return [c % P for c in h]


def certifies_xy(terms: dict) -> bool:
    """Is the integer polynomial sum c * x^i * y^j ({(i, j): c}) certified
    square-free over QQ?  Both specialisations must keep their degree and be
    square-free over GF(P)."""
    s, t = POINT
    for axis, value in ((0, t), (1, s)):
        h = _specialise(terms, axis, value)
        if not h[-1] or not is_squarefree(h):
            return False
    return True
