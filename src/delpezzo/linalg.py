"""The one home of exact linear algebra over Q.

A row is a primitive integer vector, scaled to integers once, on entry
(`integral`), with Fractions only at the boundary.  Every elimination, here
and in the Fourier-Motzkin solver of `delpezzo.constraints`, is one step,
`cancel`, which clears a column and leaves a positive multiple of the row it
changes.  The dense section holds the right kernel (conics through points,
tangent planes, inverses in a number field), the exact Phase-I simplex that
writes a vector as a non-negative combination of generators (a certificate
of cone membership, where Fourier-Motzkin projection would blow up) and the
double description of a cone's facets, which answers membership with
integer dot products (effective-cone tests).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import poly

Row = tuple[int, ...]


def _reduced(row: list[int]) -> Row:
    """The row divided by the gcd of its entries, a primitive vector."""
    g = math.gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def integral(coords: Sequence) -> Row:
    """Scale a vector of ints and Fractions to a primitive integer one, by a
    positive factor."""
    scale = math.lcm(*(c.denominator for c in coords))
    return _reduced([c.numerator * (scale // c.denominator) for c in coords])


def cancel(row: Row, prow: Row, col: int) -> Row:
    """The one pivot step: |p|*row - sign(p)*row[col]*prow for p = prow[col],
    made primitive.  It clears col and is a positive multiple of row plus a
    multiple of prow, so the sense of an inequality row is kept."""
    d, p = row[col], prow[col]
    if not d:
        return row
    if p < 0:
        d, p = -d, -p
    return _reduced([p * x - d * y for x, y in zip(row, prow)])


# ---------------------------------------------------------------------------
# Dense exact linear algebra on the same rows: every pivot is a `cancel`, so
# each row stays a positive multiple of its Gauss-Jordan counterpart.

def _pivot(rows: list[Row], r: int, col: int) -> None:
    """Clear col from every row but rows[r], in place."""
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = cancel(row, prow, col)


def kernel(rows: Sequence[Sequence], width: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a small exact matrix, 1 in each free column."""
    mat = [integral([poly.exact(x) for x in row]) for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        _pivot(mat, r, col)
        pivots.append(col)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = Fraction(-mat[i][free], mat[i][col])
        basis.append(vec)
    return basis


def primitive(coords) -> tuple[int, ...]:
    """Scale a rational vector to primitive integers, first nonzero > 0."""
    ints = integral([poly.exact(c) for c in coords])
    return ints if next(v for v in ints if v) > 0 else tuple(-v for v in ints)


def nonnegative_combination(
    generators: Sequence[Sequence], target: Sequence
) -> Optional[list[Fraction]]:
    """Solve sum(lam_i * generators[i]) = target with lam_i >= 0, exactly.

    Returns the coefficient list, or None when infeasible.  Phase-I simplex
    with Bland's rule; artificial variables only.  Each tableau row is a
    positive multiple of its Fraction counterpart, which changes no sign and
    no ratio b_r/a_r,enter, so the pivots and the solution are the same.
    """
    m, n = len(target), len(generators)
    total = n + m
    # tableau columns: n structural + m artificial; artificial basis
    rows = []
    for r, t in enumerate(map(poly.exact, target)):
        sign = -1 if t < 0 else 1
        rows.append([sign * poly.exact(g[r]) for g in generators]
                    + [int(i == r) for i in range(m)] + [sign * t])
    # last row: the objective, minimize the sum of the artificials; with an
    # artificial basis its reduced costs are the structural column sums and
    # 0 on the basic artificials, cleared by each pivot
    rows.append([sum(row[j] for row in rows) for j in range(n)] + [0] * m
                + [sum(row[total] for row in rows)])
    tab = [integral(row) for row in rows]
    basis = [n + r for r in range(m)]
    while True:
        enter = next((j for j in range(total) if tab[m][j] > 0), None)
        if enter is None:
            break
        piv = None
        for r in range(m):
            # smallest ratio b_r/a_r over a_r > 0 (cross-multiplied), then
            # the smallest basic variable
            a = tab[r][enter]
            if a > 0 and (piv is None or (tab[r][total] * tab[piv][enter], basis[r])
                          < (tab[piv][total] * a, basis[piv])):
                piv = r
        if piv is None:
            break  # unbounded cannot happen in phase I; defensive
        _pivot(tab, piv, enter)
        basis[piv] = enter

    if tab[m][total] != 0:
        return None
    lam = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            lam[bv] = Fraction(tab[r][total], tab[r][bv])
    # exact re-substitution
    for r in range(m):
        assert sum(lam[i] * poly.exact(generators[i][r]) for i in range(n)) \
            == poly.exact(target[r])
    assert all(x >= 0 for x in lam)
    return lam


def cone_facets(generators: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive integer normals of the facets of the cone the generators span.

    The cone must be full-dimensional; x lies in it iff f.x >= 0 for every
    returned f.  Double description (Fukuda-Prodon 1996): the normals are the
    extreme rays of the dual cone {f : f.g >= 0 for all g}.  Start from the
    simplicial dual of d independent generators, then add one generator at a
    time, keeping the rays on its non-negative side and combining each
    positive ray with each adjacent negative one.  Two rays are adjacent when
    no third ray is tight on every generator they are both tight on.
    """
    gens = [tuple(g) for g in generators]
    d = len(gens[0]) if gens else 0
    basis: list[int] = []
    for i, g in enumerate(gens):
        if len(kernel([gens[j] for j in basis] + [g], d)) < d - len(basis):
            basis.append(i)
    if not gens or len(basis) < d:
        raise ValueError("the generators do not span the space")
    order = [gens[i] for i in basis] + [g for i, g in enumerate(gens) if i not in basis]
    rays = []                        # (normal, bit set of the generators it is tight on)
    for j in range(d):
        others = order[:j] + order[j + 1:d]
        f = primitive(kernel(others, d)[0])
        if dot(f, order[j]) < 0:
            f = tuple(-x for x in f)
        rays.append((f, ((1 << d) - 1) ^ (1 << j)))
    for k in range(d, len(order)):
        vals = [dot(f, order[k]) for f, _ in rays]
        masks = [tight for _, tight in rays]
        kept = [(f, tight | (1 << k) if v == 0 else tight)
                for (f, tight), v in zip(rays, vals) if v >= 0]
        for (p, tp), vp in zip(rays, vals):
            if vp <= 0:
                continue
            for (n, tn), vn in zip(rays, vals):
                if vn >= 0:
                    continue
                common = tp & tn
                if (common.bit_count() < d - 2
                        or sum(t & common == common for t in masks) > 2):
                    continue
                # vp*n - vn*p: the values on order[k] ride as a last column
                f = cancel(n + (vn,), p + (vp,), d)[:-1]
                kept.append((f, common | (1 << k)))
        rays = kept
    return sorted(f for f, _ in rays)


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))
