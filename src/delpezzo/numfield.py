"""Arithmetic in a number field QQ(theta), with the standard library only.

An element is a tuple of rationals (ints and Fractions) in the power basis
1, theta, ..., theta^(n-1), reduced modulo the minimal polynomial of theta
made monic (Cohen, A Course in Computational Algebraic Number Theory, 1993,
section 4.2).  The field is built from a primitive integer polynomial q of
degree 2 or more, which must be irreducible over QQ; theta is a root of q.
NumberField offers the few attributes of a field that the resolution
engine reads (is_QQ, zero, one, unit, convert), and monic_gcd runs
Euclid's algorithm for univariate polynomials over it, listed constant
term first.  Elements add to elements, and multiply by elements, ints and
Fractions; an inverse is the kernel vector of one integer matrix, found by
the exact linear algebra of `delpezzo.linalg`.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import kernel


def _ratio(n: int, d: int):
    """n/d as an int when d divides n, else as a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


class NumberField:
    is_QQ = False

    def __init__(self, q):
        self.q = tuple(q)
        self.n = n = len(q) - 1
        # theta^n = -sum m[i] * theta^i
        self.m = tuple(_ratio(c, q[-1]) for c in q[:-1])
        self.zero = Number(self, (0,) * n)
        self.one = self.convert(1)
        self.unit = Number(self, (0, 1) + (0,) * (n - 2))

    def convert(self, c) -> Number:
        """An int or a Fraction as an element."""
        return Number(self, (c,) + (0,) * (self.n - 1))


class Number:
    __slots__ = ("K", "c")

    def __init__(self, K: NumberField, c: tuple):
        self.K, self.c = K, c

    def __add__(self, other):
        return Number(self.K, tuple(a + b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return Number(self.K, tuple(-a for a in self.c))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is not Number:
            return Number(self.K, tuple(a * other for a in self.c))
        n, b = self.K.n, other.c
        out = [0] * (2 * n - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, bj in enumerate(b):
                    out[i + j] += a * bj
        m = self.K.m
        for k in range(2 * n - 2, n - 1, -1):
            t = out.pop()
            if t:
                for i, mi in enumerate(m):
                    out[k - n + i] -= t * mi
        return Number(self.K, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> Number:
        """1/self: x with self * x = 1.  The kernel of the matrix whose
        column j holds the coordinates of self * theta^j, and whose last
        column is -1 beside the first row, is spanned by (x, 1)."""
        n, column, columns = self.K.n, self, []
        for _ in range(n):
            columns.append(column.c)
            column = column * self.K.unit
        [x] = kernel([[c[i] for c in columns] + [-int(i == 0)] for i in range(n)],
                     n + 1)
        return Number(self.K, tuple(_ratio(v.numerator, v.denominator)
                                    for v in x[:n]))

    def __eq__(self, other):
        if type(other) is Number:
            return self.c == other.c
        return self.c[0] == other and not any(self.c[1:])

    def __bool__(self):
        return any(self.c)


# -- univariate polynomials over a NumberField, constant term first ---------

def monic_gcd(a: list, b: list) -> list:
    """The monic gcd of a and b over a NumberField, a with a nonzero top
    coefficient; lists of Numbers, constant term first."""
    a, b = _monic(a), list(b)
    while b and not b[-1]:
        b.pop()
    while b:
        b = _monic(b)
        a, b = b, _rem(a, b)
    return a


def _monic(a: list) -> list:
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _rem(a: list, b: list) -> list:
    """a mod b for a monic b; no zero top coefficient left in the result."""
    a = list(a)
    while len(a) >= len(b):
        t, shift = a[-1], len(a) - len(b)
        if t:
            for k in range(len(b) - 1):
                a[shift + k] = a[shift + k] - t * b[k]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a
