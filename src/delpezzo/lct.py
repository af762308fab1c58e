"""Log canonical thresholds of plane-curve germs, two independent ways.

newton_lct reads the threshold candidate off the Newton polygon: the
diagonal meets the boundary at (t0, t0) and the candidate is min(1, 1/t0).
This is always an upper bound for the threshold (monomial valuations), and
it is the exact value when every compact face polynomial is square-free
away from the coordinate axes; the report's `exact` flag records whether
that certificate holds.

blowup_lct builds an embedded resolution by iterated point blow-ups and
evaluates min(min_i 1/m_i, min_E (a_E + 1)/b_E) over the components through
the origin and the exceptional divisors; resolution_lct does that evaluation
alone, for a caller that already holds the resolution.  The two methods share
no code, so agreement on nondegenerate germs is a meaningful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Optional, Union

from .germs import CurveGerm
from .resolution import (Component, Resolution, ResolutionNode, _qq_poly,
                         resolve_germ)

if TYPE_CHECKING:
    from sympy import Poly

__all__ = [
    "NewtonFace", "NewtonPolygon", "LctReport", "newton_polygon",
    "newton_lct", "blowup_lct", "resolution_lct", "holder_product_bound",
    "MultBoundsVerdict", "check_mult_bounds", "Lemma52Verdict",
    "check_lemma52",
]


@dataclass(frozen=True)
class NewtonFace:
    start: tuple[int, int]
    end: tuple[int, int]
    normal: tuple[int, int]    # primitive inward normal (w1, w2)
    level: int                 # N with w . p = N on the face

    def __str__(self):
        return (f"face {self.start}-{self.end}, "
                f"{self.normal[0]}*i + {self.normal[1]}*j = {self.level}")


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple[tuple[int, int], ...]
    faces: tuple[NewtonFace, ...]
    x_min: int    # lowest x-exponent: vertical boundary ray
    y_min: int    # lowest y-exponent: horizontal boundary ray


@dataclass(frozen=True)
class LctReport:
    value: Fraction
    method: str                # "newton" | "blowup"
    witness: Union[NewtonFace, ResolutionNode, Component, str]
    exact: bool

    def __str__(self):
        flag = "exact" if self.exact else "upper bound"
        return f"lct = {self.value} ({self.method}, {flag}; {self.witness})"


def newton_polygon(f: CurveGerm) -> NewtonPolygon:
    support = f.support()
    x_min = min(i for i, _ in support)
    y_min = min(j for _, j in support)
    minimal = [p for p in support
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in support)]
    minimal.sort()
    hull: list[tuple[int, int]] = []
    for p in minimal:
        while len(hull) >= 2:
            (i1, j1), (i2, j2) = hull[-2], hull[-1]
            # keep only extreme points: pop when the middle one is not a
            # strict convex turn of the lower-left boundary
            if (i2 - i1) * (p[1] - j2) - (j2 - j1) * (p[0] - i2) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    faces = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        di, dj = i2 - i1, j1 - j2
        g = gcd(di, dj)
        w = (dj // g, di // g)
        faces.append(NewtonFace((i1, j1), (i2, j2), w, w[0] * i1 + w[1] * j1))
    return NewtonPolygon(tuple(hull), tuple(faces), x_min, y_min)


def _face_poly(f: CurveGerm, face: NewtonFace) -> Poly:
    terms = {(i, j): c for (i, j), c in f.coeffs
             if face.normal[0] * i + face.normal[1] * j == face.level}
    i0 = min(i for i, _ in terms)
    j0 = min(j for _, j in terms)
    return _qq_poly({(i - i0, j - j0): c for (i, j), c in terms.items()})


def newton_lct(f: CurveGerm) -> LctReport:
    """Threshold candidate from the Newton polygon, with exactness flag."""
    polygon = newton_polygon(f)
    t0 = Fraction(0)
    witness: Union[NewtonFace, str] = "diagonal in the interior"
    for face in polygon.faces:
        cand = Fraction(face.level, face.normal[0] + face.normal[1])
        if cand > t0:
            t0, witness = cand, face
    if polygon.x_min > t0:
        t0, witness = Fraction(polygon.x_min), f"axis factor x^{polygon.x_min}"
    if polygon.y_min > t0:
        t0, witness = Fraction(polygon.y_min), f"axis factor y^{polygon.y_min}"
    assert t0 > 0
    exact = True
    for face in polygon.faces:
        _, factors = _face_poly(f, face).sqf_list()
        if any(mult > 1 for _, mult in factors):
            exact = False
            break
    value = min(Fraction(1), 1 / t0)
    return LctReport(value, "newton", witness, exact)


def blowup_lct(f: CurveGerm, max_blowups: Optional[int] = None) -> LctReport:
    """Threshold from an embedded resolution; always exact."""
    return resolution_lct(resolve_germ(f, max_blowups))


def resolution_lct(res: Resolution) -> LctReport:
    """The blow-up threshold read off an existing resolution of the germ."""
    value = Fraction(1)
    witness: Union[ResolutionNode, Component, str] = "normal crossings cap"
    for comp in res.components:
        if comp.through_origin and Fraction(1, comp.multiplicity) < value:
            value = Fraction(1, comp.multiplicity)
            witness = comp
    for node in res.nodes:
        if node.ratio < value:
            value = node.ratio
            witness = node
    return LctReport(value, "blowup", witness, True)


def holder_product_bound(f: CurveGerm, g: CurveGerm) -> bool:
    """Check 1/c0(f*g) <= 1/c0(f) + 1/c0(g) on the blow-up values."""
    cf = blowup_lct(f).value
    cg = blowup_lct(g).value
    cfg = blowup_lct(f * g).value
    return 1 / cfg <= 1 / cf + 1 / cg


@dataclass(frozen=True)
class EqualityCase:
    """Certificate for lct = 1/k: f = cofactor * h^k with h smooth at 0."""

    h: str
    cofactor: str
    verified: bool


@dataclass(frozen=True)
class MultBoundsVerdict:
    k: int
    value: Fraction
    lower_ok: bool          # 1/k <= value
    upper_ok: bool          # value <= 2/k
    equality_case: Optional[EqualityCase]

    @property
    def holds(self) -> bool:
        if not (self.lower_ok and self.upper_ok):
            return False
        if self.value == Fraction(1, self.k):
            return self.equality_case is not None and self.equality_case.verified
        return True

    def __str__(self):
        text = (f"k={self.k}: 1/{self.k} <= {self.value} <= 2/{self.k} "
                f"{'holds' if self.lower_ok and self.upper_ok else 'FAILS'}")
        if self.equality_case:
            text += f"; equality case f = ({self.equality_case.cofactor})" \
                    f" * ({self.equality_case.h})^{self.k}"
        return text


def check_mult_bounds(f: CurveGerm) -> MultBoundsVerdict:
    """Verify 1/k <= c0(f) <= 2/k for k = mult_0 f, with equality certificate.

    When the threshold equals 1/k the germ must be a unit times the k-th
    power of a smooth germ; the certificate exhibits that structure from the
    rational factorization and verifies the division.
    """
    k = f.multiplicity
    res = resolve_germ(f)
    value = resolution_lct(res).value
    equality: Optional[EqualityCase] = None
    if value == Fraction(1, k):
        for comp in res.components:
            if comp.multiplicity == k and comp.mult_at_origin == 1:
                h = _qq_poly(dict(comp.coeffs))
                quot, rem = _qq_poly(f.terms()).div(h ** k)
                verified = rem.is_zero and quot.eval((0, 0)) != 0
                equality = EqualityCase(comp.label,
                                        str(quot.as_expr()), verified)
                break
    return MultBoundsVerdict(k, value, Fraction(1, k) <= value,
                             value <= Fraction(2, k), equality)


@dataclass(frozen=True)
class Lemma52Verdict:
    k: int
    germ: str               # the composite x^(2k) y^k h
    value: Fraction
    threshold: Fraction     # 1/(3k)

    @property
    def holds(self) -> bool:
        return self.value > self.threshold

    def __str__(self):
        rel = ">" if self.holds else "<="
        return f"c0({self.germ}) = {self.value} {rel} {self.threshold}"


def check_lemma52(k: int, h: CurveGerm) -> Lemma52Verdict:
    """Form f = x^(2k) y^k h and check c0(f) > 1/(3k) strictly.

    Preconditions: mult_0 h = k, and h divisible by neither coordinate
    (read off the support: a coordinate divides h when it divides every term).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if h.multiplicity != k:
        raise ValueError(f"mult_0 h = {h.multiplicity}, expected k = {k}")
    for axis, var in enumerate("xy"):
        if all(e[axis] for e in h.support()):
            raise ValueError(f"h divisible by coordinate {var}")
    f = CurveGerm.from_dict({(2 * k, k): 1}) * h
    value = blowup_lct(f).value
    return Lemma52Verdict(k, str(f), value, Fraction(1, 3 * k))
