"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over ints and Fractions and imports nothing
from delpezzo: the library only ever sees the text (or the small integer
parameters) these functions produce, so a change to the library cannot
change the inputs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

# -- bivariate integer polynomials as {(i, j): c} ------------------------------


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_pow(a: dict, k: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def compose_linear(f: dict, a: int, b: int, c: int, d: int) -> dict:
    """f(a*x + b*y, c*x + d*y)."""
    xs, ys = {(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d}
    xs = {e: v for e, v in xs.items() if v}
    ys = {e: v for e, v in ys.items() if v}
    out: dict = {}
    for (i, j), coef in f.items():
        out = poly_add(out, poly_mul({(0, 0): coef},
                                     poly_mul(poly_pow(xs, i), poly_pow(ys, j))))
    return out


def poly_text(f: dict) -> str:
    """Render in the germ input syntax, e.g. ``-2*x^3*y + y^2``."""
    parts = []
    for (i, j), c in sorted(f.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
        mono = "*".join(filter(None, ("x" if i == 1 else f"x^{i}" if i else "",
                                      "y" if j == 1 else f"y^{j}" if j else "")))
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def multiplicity(f: dict) -> int:
    return min(i + j for i, j in f)


def random_unimodular(rng: random.Random) -> tuple:
    """An SL2(Z) matrix (a, b, c, d) from two random shears.

    Both off-diagonal entries are nonzero, so each new coordinate mixes x and
    y: a one-sided shear leaves x alone and the germ nearly adapted.
    """
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(2):
            t = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                a, b = a + t * c, b + t * d
            else:
                c, d = c + t * a, d + t * b
        if b and c:
            return a, b, c, d


# -- germs ----------------------------------------------------------------------


def random_germ(rng: random.Random) -> dict:
    """germgen-style: multiplicity 2..6 anchored by one term, degree <= 8."""
    k = rng.randint(2, 6)
    nonzero = [c for c in range(-5, 6) if c]
    i = rng.randint(0, k)
    terms = {(i, k - i): rng.choice(nonzero)}
    for _ in range(rng.randint(0, 6)):
        deg = rng.randint(k, 8)
        i = rng.randint(0, deg)
        terms[(i, deg - i)] = rng.choice(nonzero)
    return terms


def constructed_germ(rng: random.Random, p: int, q: int) -> dict:
    """y^p - x^q (p < q coprime) plus terms strictly above the weighted line.

    The principal part is nondegenerate, so lct = min(1, 1/p + 1/q).
    """
    terms = {(0, p): 1, (q, 0): -1}
    for _ in range(rng.randint(1, 3)):
        while True:
            i, j = rng.randint(0, q), rng.randint(0, p)
            if i * p + j * q > p * q:
                break
        terms[(i, j)] = terms.get((i, j), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {e: c for e, c in terms.items() if c}


NON_SQUARES = (2, 3, 5, 6, 7)
NON_CUBES = (2, 3, 4, 5)


def conjugate_germ(p: int, k: int, r: int, d: int) -> dict:
    """(y^p - d*x^p)^k - x^r: p conjugate tangents over Q(d^(1/p)), each k-fold."""
    return poly_add(poly_pow({(0, p): 1, (p, 0): -d}, k), {(r, 0): -1})


# -- six-point configurations ----------------------------------------------------


def det(rows) -> Fraction:
    """Determinant of a small square matrix by exact elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * out


def cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def conic_row(p) -> list:
    x, y, z = p
    return [x * x, x * y, x * z, y * y, y * z, z * z]


def general_position(pts) -> bool:
    """Distinct, no three collinear, not all six on a conic."""
    if len(set(primitive(p) for p in pts)) != 6:
        return False
    if any(det([pts[a], pts[b], pts[c]]) == 0
           for a, b, c in combinations(range(6), 3)):
        return False
    return det([conic_row(p) for p in pts]) != 0


def primitive(v) -> tuple:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    v = tuple(x // g for x in v)
    return tuple(-x for x in v) if next(x for x in v if x) < 0 else v


def _small_point(rng, bound=6) -> tuple:
    while True:
        p = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(p):
            return primitive(p)


def general_config(rng: random.Random) -> list:
    while True:
        pts = [_small_point(rng) for _ in range(6)]
        if general_position(pts):
            return pts


def concurrent_config(rng: random.Random) -> tuple[list, tuple]:
    """p1p2, p3p4, p5p6 built through one common point; otherwise general."""
    while True:
        meet = _small_point(rng, 3)
        pts = []
        for _ in range(3):
            other = _small_point(rng, 3)
            if primitive(other) == meet:
                break
            s, t = rng.choice((1, 2, -1)), rng.choice((1, 2, 3))
            pts.append(primitive(tuple(s * a + b for a, b in zip(meet, other))))
            pts.append(primitive(tuple(t * a + b for a, b in zip(meet, other))))
        if len(pts) == 6 and meet not in pts and general_position(pts):
            return pts, meet


def config_text(pts) -> str:
    return "mode: smooth\n" + "".join(" ".join(map(str, p)) + "\n" for p in pts)


# Rational points of the Fermat cubic w^3 + x^3 + y^3 + z^3 = 0: the six
# Eckardt points with two zero coordinates, and coordinate permutations of
# (3:4:5:-6) and (1:6:8:-9), which lie on the surface and are not Eckardt.
def fermat_point(rng: random.Random, eckardt: bool) -> tuple:
    if eckardt:
        base = [1, -1, 0, 0]
    else:
        base = list(rng.choice(((3, 4, 5, -6), (1, 6, 8, -9))))
    rng.shuffle(base)
    return tuple(base)


FERMAT_TERMS = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                (0, 0, 0, 3): 1}


# -- constraint systems -------------------------------------------------------------


def planted_system(rng: random.Random, nvars: int, nrows: int):
    """A random system, feasible by construction.

    Every row touches one to three variables and holds at a planted integer
    point, so the solver must report feasible and bounds around that point.
    Returns (rows as (coeffs, rel, rhs), planted point).
    """
    names = [f"v{i}" for i in range(nvars)]
    point = {v: rng.randint(-3, 3) for v in names}
    rows = []
    for _ in range(nrows):
        support = rng.sample(names, rng.randint(1, 3))
        coeffs = {v: rng.choice((-2, -1, 1, 2)) for v in support}
        lhs = sum(c * point[v] for v, c in coeffs.items())
        rel = rng.choice(("<=", "<=", "<"))
        rhs = lhs + (rng.randint(0, 2) if rel == "<=" else rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    return rows, point


def system_text(rows, integer_vars, m=None) -> str:
    """The plain-text system format; multiples of m are written as k*m."""
    lines = [f"int {v}" for v in sorted(integer_vars)]
    for coeffs, rel, rhs in rows:
        rhs = Fraction(rhs)
        if m and rhs and rhs.denominator == 1 and rhs % m == 0:
            rhs_text = f"{rhs // m}*m" if rhs > 0 else f"-{-rhs // m}*m"
        else:
            rhs_text = str(rhs)
        lines.append(f"{linear_text(coeffs) if coeffs else '0'} {rel} {rhs_text}")
    return "\n".join(lines) + "\n"


def linear_text(coeffs: dict) -> str:
    parts = []
    for v, c in coeffs.items():
        c = Fraction(c)
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("- " if c < 0 else "+ ") + mag + v)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
