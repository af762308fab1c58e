"""Log canonical thresholds of plane-curve germs, two independent ways.

newton_lct reads the threshold candidate off the Newton polygon: the
diagonal meets the boundary at (t0, t0) and the candidate is min(1, 1/t0).
This is always an upper bound for the threshold (monomial valuations), and
it is the exact value when every compact face polynomial is square-free
away from the coordinate axes; the report's `exact` flag records whether
that certificate holds.  A face polynomial is y^(g*w1) * H(x^w2 / y^w1)
for a univariate H of degree g with H(0) != 0, so the certificate is the
univariate test gcd(H, H') = 1 on each face.  That test is put modulo the
prime P = 2^61 - 1 first, by one modp.square_free: an H that keeps its
degree and is square-free there is square-free over QQ, and one with a
lifted factor of gcd(H, H') that divides it twice is not.  Only an H that
neither proves, say as its degree drops mod P or its repeated roots are
beyond rational reconstruction, goes to sympy, so germs such as
(2*y - 3*x)^2 - x^3, (y^2 - 2*x^2)^2 - x^5 and (y - 100*x)^7 - x^8 are
decided without importing it.

blowup_lct builds an embedded resolution by iterated point blow-ups and
evaluates min(min_i 1/m_i, min_E (a_E + 1)/b_E) over the components through
the origin and the exceptional divisors; resolution_lct does that evaluation
alone, for a caller that already holds the resolution.  The two methods share
only modp, whose one lift of the repeated factors answers the square-free
test of each face here and the multiple roots of each line there, so
agreement on nondegenerate germs is a meaningful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Optional, Union

from . import modp, poly
from .germs import CurveGerm

if TYPE_CHECKING:
    from sympy import Poly

    from .resolution import Component, Resolution, ResolutionNode


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


def _face_coeffs(terms: dict, face: NewtonFace) -> list:
    """c_0, ..., c_g with c_t the coefficient at the face's lattice point
    (i1 + t*w2, j1 - t*w1), for the primitive normal (w1, w2); 0 off the
    support."""
    (i1, j1), (w1, w2) = face.start, face.normal
    g = (face.end[0] - i1) // w2
    return [terms.get((i1 + t * w2, j1 - t * w1), 0) for t in range(g + 1)]


def _face_univariate(f: CurveGerm, face: NewtonFace) -> Poly:
    """H(s) = sum_t c_t s^t over QQ (see _face_coeffs)."""
    from sympy import QQ, Poly, Symbol
    coeffs = {(t,): QQ(c.numerator, c.denominator)
              for t, c in enumerate(_face_coeffs(f.terms(), face)) if c}
    return Poly.from_dict(coeffs, Symbol("s"), domain=QQ)


def _face_square_free(f: CurveGerm, face: NewtonFace) -> bool:
    """Is the face's H square-free?  Decided by modp.square_free where it
    proves the answer, else by sympy."""
    decided = modp.square_free(_face_coeffs(f.terms(), face))
    return _face_univariate(f, face).is_sqf if decided is None else decided


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
    # with w1, w2 coprime and r != 0, each x^w2 - r*y^w1 is square-free and
    # distinct roots r give coprime binomials, so the face polynomial is
    # square-free exactly when H is, tested mod P first (see modp)
    exact = all(_face_square_free(f, face) for face in polygon.faces)
    value = min(Fraction(1), 1 / t0)
    return LctReport(value, "newton", witness, exact)


def blowup_lct(f: CurveGerm) -> LctReport:
    """Threshold from an embedded resolution; always exact."""
    from .resolution import resolve_germ
    return resolution_lct(resolve_germ(f))


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
    rational factorization: h is the component of multiplicity k, f / h^k is
    divided exactly by poly.divide, and both are printed by poly.expr_text as
    sympy prints them.  h^k divides f, as h is a factor of f's part of
    multiplicity k; a quotient that failed would be printed as 0 and left
    unverified.
    """
    from .resolution import resolve_germ
    k = f.multiplicity
    res = resolve_germ(f)
    value = resolution_lct(res).value
    equality: Optional[EqualityCase] = None
    if value == Fraction(1, k):
        for comp in res.components:
            if comp.multiplicity == k and comp.mult_at_origin == 1:
                quot = poly.divide(f.terms(), poly.power(dict(comp.coeffs), k))
                verified = quot is not None and (0, 0) in quot
                equality = EqualityCase(comp.label,
                                        poly.expr_text(quot or {}, "xy"), verified)
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
