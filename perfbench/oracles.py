"""Independent answer checks for every benchmark item.

Each check takes the library's public result and returns None when it is
accepted, or a one-line reason when it is rejected.  None of them reuses the
method it checks: thresholds are compared across methods and against closed
forms, Eckardt points are recomputed here with integer determinants, and
constraint witnesses are re-evaluated here from the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import gen


def lct_pipeline(newton, blowup, bounds, k: int, expected=None):
    """newton >= blowup (equal when exact), 1/k <= lct <= 2/k, closed form."""
    if newton.value < blowup.value:
        return f"newton {newton.value} below blowup {blowup.value}"
    if newton.exact and newton.value != blowup.value:
        return f"exact newton {newton.value} != blowup {blowup.value}"
    if bounds.k != k:
        return f"multiplicity {bounds.k} != {k}"
    if not Fraction(1, k) <= blowup.value <= Fraction(2, k):
        return f"lct {blowup.value} outside [1/{k}, 2/{k}]"
    if bounds.value != blowup.value or not bounds.holds:
        return f"check_mult_bounds rejects ({bounds.value}, holds={bounds.holds})"
    if expected is not None and blowup.value != expected:
        return f"lct {blowup.value} != closed form {expected}"
    return None


def constructed_lct(p: int, q: int) -> Fraction:
    return min(Fraction(1), Fraction(1, p) + Fraction(1, q))


def conjugate_lct(p: int, k: int) -> Fraction:
    """1/k for squares of conjugate lines, 2/(3k) for cubes (r > p*k)."""
    return Fraction(1, k) if p == 2 else Fraction(2, 3 * k)


def scan(verdict, expected_survivor=None):
    """No survivors, or exactly the expected one."""
    got = [r.candidate for r in verdict.survivors]
    want = [] if expected_survivor is None else [expected_survivor]
    if got != want:
        return f"survivors {[str(c) for c in got]} != {[str(c) for c in want]}"
    return None


def _conic_through(pts):
    """Coefficients (x^2, xy, xz, y^2, yz, z^2) from the 5x5 minors."""
    rows = [gen.conic_row(p) for p in pts]
    return [(-1) ** col * gen.det([r[:col] + r[col + 1:] for r in rows])
            for col in range(6)]


def _polar(conic, u, v):
    a, b, c, d, e, f = conic
    grad = (2 * a * u[0] + b * u[1] + c * u[2],
            b * u[0] + 2 * d * u[1] + e * u[2],
            c * u[0] + e * u[1] + 2 * f * u[2])
    return sum(g * x for g, x in zip(grad, v))


def eckardt_expected(pts) -> set:
    """Every Eckardt point of a six-point configuration, recomputed here.

    {L_ab, L_cd, L_ef} counts when the three lines are concurrent;
    {E_i, L_ij, F_j} when the conic through all points but p_j is tangent to
    the line p_i p_j at p_i.
    """
    found = set()
    lines = {(a, b): gen.cross(pts[a - 1], pts[b - 1])
             for a, b in combinations(range(1, 7), 2)}
    for pairing in _pairings((1, 2, 3, 4, 5, 6)):
        ls = [lines[pr] for pr in pairing]
        if gen.det(ls) == 0:
            meet = gen.primitive(gen.cross(ls[0], ls[1]))
            labels = tuple(sorted(f"L{a}{b}" for a, b in pairing))
            found.add((labels, "(" + ":".join(map(str, meet)) + ")"))
    for j in range(1, 7):
        conic = _conic_through([pts[k - 1] for k in range(1, 7) if k != j])
        for i in range(1, 7):
            if i != j and _polar(conic, pts[i - 1], pts[j - 1]) == 0:
                lab = f"L{min(i, j)}{max(i, j)}"
                found.add((tuple(sorted((f"E{i}", f"F{j}", lab))),
                           f"infinitely near p{i}"))
    return found


def _pairings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for other in items[1:]:
        rest = tuple(x for x in items if x not in (first, other))
        for tail in _pairings(rest):
            yield ((first, other),) + tail


def eckardt(records, pts, meet=None):
    got = {(tuple(r.triple), str(r.location)) for r in records}
    want = eckardt_expected(pts)
    if got != want:
        return f"eckardt points {sorted(got)} != {sorted(want)}"
    if meet is not None:
        where = "(" + ":".join(map(str, meet)) + ")"
        if (("L12", "L34", "L56"), where) not in got:
            return f"constructed triple L12 L34 L56 at {where} missing"
    return None


def fermat(verdict: bool, eckardt_point: bool):
    if verdict != eckardt_point:
        return f"is_eckardt_on_cubic gave {verdict}, expected {eckardt_point}"
    return None


def rows_of(system) -> list:
    """(coeffs, rel, rhs) rows of a library ConstraintSystem."""
    return [(con.coeffs, con.rel, con.rhs) for con in system.constraints]


def _holds(row, point) -> bool:
    coeffs, rel, rhs = row
    lhs = sum((Fraction(c) * point[v] for v, c in coeffs.items()), Fraction(0))
    return {"<=": lhs <= rhs, "<": lhs < rhs, "=": lhs == rhs}[rel]


def witness(rows, feasible: bool, point):
    """A feasible answer's witness satisfies every row, re-evaluated here."""
    if not feasible:
        return None
    names = {v for coeffs, _, _ in rows for v in coeffs}
    if point is None or not names <= set(point):
        return "feasible answer without a full witness"
    for row in rows:
        if not _holds(row, point):
            return f"witness violates {row}"
    return None


def planted(rows, report, point):
    """Feasible, witness valid, and the planted point inside every bound."""
    if not report.feasible:
        return "system with a planted solution reported infeasible"
    bad = witness(rows, True, report.witness)
    if bad:
        return bad
    for v, x in point.items():
        b = report.bounds[v]
        if b.lower is not None and (x < b.lower or (x == b.lower and not b.lower_attained)):
            return f"planted {v}={x} below bound {b}"
        if b.upper is not None and (x > b.upper or (x == b.upper and not b.upper_attained)):
            return f"planted {v}={x} above bound {b}"
    return None


def same_report(a, b):
    """The text round trip solves to the same feasibility, bounds and forcing."""
    if (a.feasible, a.forced, a.bounds, a.integrality) != \
            (b.feasible, b.forced, b.bounds, b.integrality):
        return "text round trip changed the solve report"
    return None
