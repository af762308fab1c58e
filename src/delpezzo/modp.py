"""Square-free certificates and multiple roots modulo P = 2^61 - 1, and
proofs of irreducibility over QQ.

A univariate h over QQ whose residues mod P exist, whose top coefficient
survives and whose reduction is square-free over GF(P) is square-free over
QQ.  By Gauss's lemma over the local ring Z_(P), a factorization h = g^2 * k
over QQ can be taken with g and k integral at P; reducing it gives
h~ = g~^2 * k~, and since the degree of h is kept and no factor's degree
can grow under reduction, deg g~ = deg g >= 1.  The test is one-sided: a
reduction that is not square-free, or a degree that drops, proves nothing,
and every caller then falls back to sympy.

Every answer beyond "square-free" has one proof.  The integer polynomial r,
with nonzero constant and top coefficients (as a Newton face, and a line
that the resolution has divided by v^low), is reduced once, and the
square-free part s = g / gcd(g, g') of g = gcd(r~, r~') is lifted once by
rational reconstruction (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 5): made monic, reconstructed coefficient by coefficient and
scaled to a primitive integer polynomial q.  When q is linear, or a
quadratic whose discriminant is a square, it is split over QQ into its
factors d*v - n; else q is the one factor.  The lift holds when each of its
factors f divides r at least twice, by exact division over ZZ, which for a
primitive f is division over QQ by Gauss's lemma.  One factor that does
proves r not square-free (square_free).  multiple_roots also asks the rest,
r divided by each f^m with m as large as it goes, to be certified
square-free as above; its top coefficient survives, as it divides r's.  Then
the rest is square-free over QQ, and so is q, which reduces to s up to a
unit: the repeated irreducible factors of r are those of q, and q is the
square-free part of gcd(r, r').  multiple_roots answers with the roots of
the linear factors, or with q when irreducible proves it irreducible; each
such factor gives the caller an own field (see numfield).  What is left goes
to the caller's sympy path: a rational root beside an irrational one, more
than two of them, several irreducible factors or one that irreducible does
not prove, a number beyond rational reconstruction (see BOUND), among them
the sum or product of two tall rational roots, a top coefficient that
vanishes mod P, and roots equal only mod P, whose lift divides r too few
times or leaves a rest that is not certified.

irreducible proves a quadratic irreducible over QQ by its discriminant, a
cubic by a small prime at which it has no root, and any degree by the
factor degrees modulo small primes (distinct-degree factorization), which no
proper factor over QQ fits at all of them.  irreducible_xy proves a
bivariate polynomial irreducible by one univariate specialisation that keeps
its degree (Hilbert's irreducibility theorem, used one-sidedly).

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


def _derivative(h: list[int], p: int = P) -> list[int]:
    d = [k * c % p for k, c in enumerate(h)][1:]
    while d and not d[-1]:
        d.pop()
    return d


def _rem(a: list[int], b: list[int], p: int = P) -> list[int]:
    """a mod b over GF(p), b with a nonzero top coefficient; no trailing
    zeros in the result."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q, shift = a[-1] * inv % p, len(a) - len(b)
        for k in range(len(b) - 1):
            a[shift + k] = (a[shift + k] - q * b[k]) % p
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _quo(a: list[int], b: list[int], p: int = P) -> list[int]:
    """a / b over GF(p), for b dividing a with a nonzero top coefficient."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for shift in reversed(range(len(q))):
        c = q[shift] = a[shift + len(b) - 1] * inv % p
        for k, bk in enumerate(b):
            a[shift + k] = (a[shift + k] - c * bk) % p
    return q


def _gcd(a: list[int], b: list[int], p: int = P) -> list[int]:
    """A gcd over GF(p) of a nonzero a and any b, not made monic."""
    while b:
        a, b = b, _rem(a, b, p)
    return a


def is_squarefree(h: list[int]) -> bool:
    """gcd(h, h') = 1 over GF(P), for h with a nonzero top coefficient and
    degree below P (so h' keeps degree deg h - 1)."""
    return len(_gcd(h, _derivative(h))) == 1


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


def _quotient(r: list[int], q: list[int]) -> Optional[list[int]]:
    """r / q over ZZ, or None when q does not divide r.  By Gauss's lemma a
    primitive q divides r over QQ only if it does over ZZ."""
    r, n, lead = list(r), len(q) - 1, q[-1]
    low, out = q[:-1], []
    for top in range(len(r) - 1, n - 1, -1):
        c, rem = divmod(r[top], lead)
        if rem:
            return None
        out.append(c)
        if c:
            k = top - n
            for b in low:
                r[k] -= c * b
                k += 1
    return None if any(r[:n]) else out[::-1]


def _power(r: list[int], q: list[int]) -> tuple[int, list[int]]:
    """(m, r / q^m) for the largest m with q^m dividing r over ZZ."""
    m = 0
    while (quotient := _quotient(r, q)) is not None:
        r, m = quotient, m + 1
    return m, r


def _integral(h: Sequence) -> list[int]:
    """h over QQ times the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in h))
    return [c.numerator * (scale // c.denominator) for c in h]


def _lift(s: list[int]) -> Optional[list[list[int]]]:
    """The lift of s over GF(P) to primitive integer factors: s made monic,
    reconstructed coefficient by coefficient and scaled to a primitive q,
    split into its factors d*v - n when q is linear or a quadratic with a
    square discriminant; None when a coefficient has no reconstruction."""
    inv = pow(s[-1], -1, P)
    S = [_reconstruct(c * inv % P) for c in s]
    if None in S:
        return None
    q = _integral(S)                # monic: primitive, top > 0
    if len(q) == 3:
        c, b, a = q
        disc = b * b - 4 * a * c
        if disc > 0 and (w := isqrt(disc)) ** 2 == disc:
            return [[-x.numerator, x.denominator] for x in
                    (Fraction(-b + w, 2 * a), Fraction(-b - w, 2 * a))]
    return [q]


def _square_free_part(h: list[int]) -> list[int]:
    """s = g / gcd(g, g') for g = gcd(h, h') over GF(P)."""
    g = _gcd(h, _derivative(h))
    return _quo(g, _gcd(g, _derivative(g))) if len(g) > 1 else [1]


def square_free(h: Sequence) -> Optional[bool]:
    """Is h over QQ (constant term first) square-free?  True when certified
    mod P, False when a lifted factor of gcd(h, h') divides h twice over ZZ
    (see the module docstring), None when neither is proven."""
    H = residues(h)
    if H is None:
        return None
    s = _square_free_part(H)
    if len(s) == 1:
        return True
    r, factors = _integral(h), _lift(s)
    if factors and any(_power(r, q)[0] >= 2 for q in factors):
        return False
    return None


def multiple_roots(r: Sequence[int]) -> Optional[tuple[list, list]]:
    """The roots of the linear factors of gcd(r, r') over QQ, for an integer
    r (constant term first) with r(0) != 0, and its one other irreducible
    factor if any, as sympy's factor_list gives them: the linear factors
    d*v - n by multiplicity, then d, then -n, the other as a primitive
    integer polynomial with positive top coefficient.  None when that is not
    proven here (see the module docstring)."""
    h = residues(r)
    if h is None:
        return None
    s = _square_free_part(h)
    if len(s) == 1:
        return [], []
    factors = _lift(s)
    if factors is None:
        return None
    rest, powers = r, []
    for q in factors:
        m, rest = _power(rest, q)
        powers.append(m)
    if min(powers) < 2 or not is_squarefree([c % P for c in rest]):
        return None
    if len(factors[0]) == 2:
        found = sorted((m, d, k) for m, (k, d) in zip(powers, factors))
        return [Fraction(-k, d) for _m, d, k in found], []
    if not irreducible(factors[0]):
        return None
    return [], factors


#: the primes whose factorization patterns prove a polynomial irreducible
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97)


def _times(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b over GF(p), for nonzero a and b and a prime p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % p for c in out]


def _factor_degrees(g: list[int], p: int) -> int:
    """The degrees of the products of the irreducible factors over GF(p) of a
    square-free g, as a mask: bit e is set when some product has degree e.
    By distinct-degree factorization, once the factors of degree below k are
    divided out, gcd(g, v^(p^k) - v) is the product of those of degree k
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14)."""
    sums, k, w = 1, 0, [0, 1]
    while len(g) - 1 >= 2 * (k + 1):
        k += 1
        power, e, w = w, p, [1]          # w = v^(p^k) mod g
        while e:
            if e & 1:
                w = _rem(_times(w, power, p), g, p)
            if e := e >> 1:
                power = _rem(_times(power, power, p), g, p)
        u = w + [0] * (2 - len(w))
        u[1] = (u[1] - 1) % p
        while u and not u[-1]:
            u.pop()
        c = _gcd(g, u, p)
        if len(c) > 1:
            for _ in range((len(c) - 1) // k):
                sums |= sums << k
            g = _quo(g, c, p)
            w = _rem(w, g, p)
    if len(g) > 1:
        sums |= sums << (len(g) - 1)
    return sums


def irreducible(s: Sequence) -> Optional[bool]:
    """Is s over QQ (constant term first, degree 1 or more) irreducible over
    QQ?  A linear s is; a quadratic is exactly when its discriminant is not
    a square.  Beyond that, each of SMALL_PRIMES that divides neither the
    top coefficient nor the discriminant of s gives the degrees of its
    factors modulo that prime: a factor of degree e over QQ reduces to a
    product of those, so e is the degree of some product of them at every
    such prime.  s is irreducible when no e between 0 and its degree is
    left at all of them (for a cubic: a prime at which it has no root).
    One-sided: None when some e is left after every prime, as for
    v^4 - 10*v^2 + 1, which is irreducible but reducible modulo every prime.
    (P itself cannot serve, since 2, for one, is a cube mod P.)"""
    S = _integral(s)
    d = len(S) - 1
    if d == 1:
        return True
    if d == 2:
        c, b, a = S
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    left = (1 << d) - 2                 # the degrees 1 .. d - 1
    for p in SMALL_PRIMES:
        if d == 3 and S[3] % p:         # no root: its pattern is (3)
            if all((((S[3] * x + S[2]) * x + S[1]) * x + S[0]) % p
                   for x in range(p)):
                return True
        elif S[-1] % p:
            g = [c % p for c in S]
            if len(_gcd(g, _derivative(g, p), p)) == 1:
                left &= _factor_degrees(g, p)
                if not left:
                    return True
    return None


#: the values at which irreducible_xy specialises the variable of larger degree
SPECIAL_VALUES = (1, -1, 2, -2, 3)


def irreducible_xy(terms: dict) -> Optional[bool]:
    """Is the integer polynomial h = sum c * x^i * y^j ({(i, j): c}),
    primitive over ZZ, of positive degree and divisible by neither x nor y,
    irreducible over QQ?  True when proven, None otherwise.

    Read h in v, the variable of smaller positive degree d, over ZZ[u].  Its
    coefficients have no common factor when their gcd modulo P is 1 and the
    top one keeps its degree there, as a common factor's top coefficient
    divides that one's.  Then a factorization of h has v-degree in each
    factor, and at a u0 where the top coefficient survives, h(u0, v) keeps
    degree d and factors with it.  So h is irreducible when d is 1, or when
    h(u0, v) is proven irreducible (see irreducible) at one of
    SPECIAL_VALUES: Hilbert's irreducibility theorem, used one-sidedly
    (Cohen, A Course in Computational Algebraic Number Theory, 3.5)."""
    degrees = [max(e[k] for e in terms) for k in (0, 1)]
    v = 0 if 0 < degrees[0] <= degrees[1] or not degrees[1] else 1
    d = degrees[v]
    rows = [[0] * (degrees[1 - v] + 1) for _ in range(d + 1)]
    for e, c in terms.items():
        rows[e[v]][e[1 - v]] = c
    while not rows[d][-1]:
        rows[d].pop()
    g = [c % P for c in rows[d]]
    if not g[-1]:
        return None
    for row in rows:
        if len(g) == 1:
            break
        row = [c % P for c in row]
        while row and not row[-1]:
            row.pop()
        g = _gcd(g, row)
    if len(g) > 1:
        return None
    if d == 1:
        return True
    for u0 in SPECIAL_VALUES:
        s = [sum(c * u0 ** k for k, c in enumerate(row)) for row in rows]
        if s[-1] and irreducible(s):
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
