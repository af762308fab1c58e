"""Square-free certificates, multiple roots and proven gcds modulo
P = 2^61 - 1, and a proof of irreducibility for quadratics and cubics.

A univariate h over QQ whose residues mod P exist, whose top coefficient
survives and whose reduction is square-free over GF(P) is square-free over
QQ.  By Gauss's lemma over the local ring Z_(P), a factorization h = g^2 * k
over QQ can be taken with g and k integral at P; reducing it gives
h~ = g~^2 * k~, and since the degree of h is kept and no factor's degree
can grow under reduction, deg g~ = deg g >= 1.  The test is one-sided: a
reduction that is not square-free, or a degree that drops, proves nothing,
and every caller then falls back to sympy.

multiple_roots answers the resolution engine's question about an integer
line r, its multiple roots over QQ, from one reduction modulo P: the root 0
is read off r's low coefficients, and g = gcd(r~, r~') and, when g is not
constant, gg = gcd(g, g') are taken once.  When the square-free part g/gg
has one or two roots mod P, each is lifted by rational reconstruction and
kept only when an exact division over ZZ proves it a root of multiplicity
>= 2; the roots stand when the cofactor is certified square-free as above
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5).  Else g and gg
are lifted to proven gcds, and their quotient, the square-free part of
gcd(r, r'), is the answer when irreducible proves it irreducible.  The rest
is left to the caller's sympy path: a nonzero rational root beside an
irrational one, more than two of them, several irreducible factors or one
of degree 4 or more, a number beyond rational reconstruction (see BOUND), a
top coefficient that vanishes mod P.

proven_gcd lifts the monic gcd(h~, h~') coefficient by coefficient by
rational reconstruction and keeps it only when it divides h and h' exactly
over QQ; it is then the gcd over QQ (von zur Gathen and Gerhard, ch. 6).
irreducible proves a quadratic irreducible over QQ by its discriminant and
a cubic by a small prime at which it has no root.

A bivariate integer polynomial f is certified by specialising: f(x, t) and
f(s, y), for the fixed point POINT = (s, t), reduced mod P.  A repeated
factor g of f has positive degree in x or in y, say x; if f(x, t)~ keeps
deg_x f, then g(x, t)~ keeps deg_x g and divides it twice.

Polynomials are lists of coefficients, constant term first.  Nothing here
imports more than the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

P = (1 << 61) - 1

#: the point (s, t) at which f(x, t) and f(s, y) are read
POINT = (0x2F6B3A1C9D58E47, 0x15C3E9A07B2D6F1)

#: rational reconstruction finds n/d with |n|, d <= BOUND, which is unique
BOUND = isqrt(P // 2)


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


def _derivative(h: list[int]) -> list[int]:
    return [k * c % P for k, c in enumerate(h)][1:]


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


def _quo(a: list[int], b: list[int]) -> list[int]:
    """a / b over GF(P), for b dividing a with a nonzero top coefficient."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, P)
    for shift in reversed(range(len(q))):
        c = q[shift] = a[shift + len(b) - 1] * inv % P
        for k, bk in enumerate(b):
            a[shift + k] = (a[shift + k] - c * bk) % P
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd over GF(P) of a nonzero a and any b, not made monic."""
    while b:
        a, b = b, _rem(a, b)
    return a


def is_squarefree(h: list[int]) -> bool:
    """gcd(h, h') = 1 over GF(P), for h with a nonzero top coefficient and
    degree below P (so h' keeps degree deg h - 1)."""
    return len(_gcd(h, _derivative(h))) == 1


def _roots(s: list[int]) -> Optional[list[int]]:
    """The roots in GF(P) of a square-free s of degree 1 or 2, or None when
    s has higher degree or no root there."""
    if len(s) > 3:
        return None
    inv = pow(s[-1], -1, P)
    if len(s) == 2:
        return [-s[0] * inv % P]
    c, b = s[0] * inv % P, s[1] * inv % P      # s made monic
    disc = (b * b - 4 * c) % P
    w = pow(disc, (P + 1) // 4, P)      # a square root, as P = 3 mod 4
    if w * w % P != disc:
        return None
    half = (P + 1) // 2
    return [(w - b) * half % P, (-w - b) * half % P]


def _reconstruct(x: int) -> Optional[Fraction]:
    """The fraction n/d with n = x*d mod P, |n| <= BOUND and 0 < d <= BOUND,
    by the half-extended Euclidean algorithm, or None when there is none."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 > BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= BOUND:
        return None
    return Fraction(r1, t1)


def _divide(R: list[int], n: int, d: int) -> Optional[list[int]]:
    """R / (d*v - n) over ZZ, or None when it does not divide: the quotient
    Q has Q_(i-1) = (R_i + n*Q_i) / d, and R_0 + n*Q_0 = 0.  By Gauss's lemma
    the primitive d*v - n divides R over QQ only if it does over ZZ."""
    q, carry = [], 0
    for c in reversed(R[1:]):
        carry, rem = divmod(c + n * carry, d)
        if rem:
            return None
        q.append(carry)
    if R[0] + n * carry:
        return None
    return q[::-1]


def _exact_quotient(a: Sequence, g: list) -> Optional[list]:
    """a / g over QQ for a monic g, or None when g does not divide a."""
    a, q = list(a), [0] * max(len(a) - len(g) + 1, 0)
    for shift in reversed(range(len(q))):
        t = q[shift] = a[shift + len(g) - 1]
        for k, c in enumerate(g):
            a[shift + k] -= t * c
    return None if any(a) else q


def _lift(r: Sequence, g: list[int]) -> Optional[list]:
    """The monic gcd(r, r') over QQ lifted from g = gcd(r~, r~') over GF(P),
    for r~ of r's degree; None when it is not proven here.  A constant g
    gives 1: r is square-free.  Else the monic g is lifted coefficient by
    coefficient by rational reconstruction to G, kept only when it divides r
    and r' exactly over QQ.  Then G divides the monic gcd over QQ, which is
    integral at P as a monic factor of r whose top coefficient survives
    (Gauss's lemma over Z_(P)), so it reduces to a divisor of g, whose
    degree G has: G is the whole gcd."""
    if len(g) == 1:
        return [1]
    inv = pow(g[-1], -1, P)
    G = [_reconstruct(c * inv % P) for c in g]
    if None in G:
        return None
    derivative = [k * c for k, c in enumerate(r)][1:]
    if _exact_quotient(r, G) is None or _exact_quotient(derivative, G) is None:
        return None
    return G


def proven_gcd(r: Sequence) -> Optional[list]:
    """The monic gcd(r, r') over QQ of a univariate r (constant term first),
    or None when it is not proven here (see _lift)."""
    h = residues(r)
    if h is None:
        return None
    return _lift(r, _gcd(h, _derivative(h)))


def _rational_roots(r: list[int], s: list[int]) -> Optional[list[tuple]]:
    """(multiplicity, d, -n) for each root n/d of s = g/gg mod P (see
    multiple_roots) when all are proven multiple roots of r, r(0) != 0, and
    the cofactor is certified square-free; else None."""
    roots = _roots(s)
    if roots is None:
        return None
    found = []
    for x in roots:
        root = _reconstruct(x)
        if root is None:
            return None
        n, d, m = root.numerator, root.denominator, 0
        while (quotient := _divide(r, n, d)) is not None:
            r, m = quotient, m + 1
        if m < 2:       # not r(x) = r'(x) = 0 over QQ
            return None
        found.append((m, d, -n))
    return found if is_squarefree([c % P for c in r]) else None


def multiple_roots(r: Sequence[int]) -> Optional[tuple[list, list]]:
    """The roots of the linear factors of gcd(r, r') over QQ, for a nonzero
    integer r (constant term first), and its one other irreducible factor if
    any, as sympy's factor_list gives them: the linear factors d*v - n by
    multiplicity, then d, then -n, the other as a primitive integer
    polynomial with positive top coefficient.  None when that is not proven
    here (see the module docstring)."""
    low = next(k for k, c in enumerate(r) if c)
    found = [(low, 1, 0)] if low >= 2 else []     # (multiplicity, d, -n)
    r = r[low:]
    h = residues(r)
    if h is None:
        return None
    g = _gcd(h, _derivative(h))
    if len(g) == 1:
        return [Fraction(0)] * len(found), []
    gg = _gcd(g, _derivative(g))
    if (roots := _rational_roots(r, _quo(g, gg))) is not None:
        return [Fraction(-k, d) for _m, d, k in sorted(found + roots)], []
    if (G := _lift(r, g)) is None or (G2 := _lift(G, gg)) is None:
        return None
    s = _exact_quotient(G, G2)      # the square-free part of gcd(r, r')
    if len(s) not in (3, 4) or not irreducible(s):
        return None
    scale = lcm(*(c.denominator for c in s))   # s is monic: primitive, top > 0
    return [Fraction(0)] * len(found), [[int(c * scale) for c in s]]


#: the primes at which a cubic is searched for a root
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97)


def irreducible(s: Sequence) -> Optional[bool]:
    """Is s over QQ (constant term first) irreducible over QQ?  A quadratic
    is, exactly when its discriminant is not a square.  A cubic is when it
    has no rational root, and that is proven by a small prime p not
    dividing its top coefficient at which it has no root: the denominator
    of a rational root divides the top coefficient, so the root exists
    modulo p.  (P itself cannot serve, since 2, for one, is a cube mod P.)
    None for any other degree, and for a cubic with a root modulo each of
    SMALL_PRIMES."""
    scale = lcm(*(Fraction(c).denominator for c in s))
    S = [int(c * scale) for c in s]
    if len(S) == 3:
        c, b, a = S
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    if len(S) == 4:
        for p in SMALL_PRIMES:
            if S[3] % p and all((((S[3] * x + S[2]) * x + S[1]) * x + S[0]) % p
                                for x in range(p)):
                return True
    return None


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
