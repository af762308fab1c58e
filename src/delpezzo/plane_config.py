"""Exact geometry of six-point plane configurations and Eckardt points.

Points carry primitive integer homogeneous coordinates, so equality is
bitwise and every predicate (collinearity, conics, tangency) is an exact
integer computation.  A cubic surface appears in two guises: as the blow-up
of a six-point configuration, where each tritangent triple is an Eckardt
point iff three plane lines meet, and as an explicit quaternary cubic form,
where a single point can be tested by restriction to its tangent plane.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from . import poly
from .lattice import SurfaceModel, enumerate_negative_curves, tritangent_triples
from .linalg import kernel, primitive


class GeometryError(ValueError):
    """Base class for domain errors in this module."""


class DegenerateConicError(GeometryError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidConfigError(GeometryError):
    def __init__(self, report: "ValidationReport"):
        super().__init__("configuration violates its mode invariants: "
                         + "; ".join(str(v) for v in report.violations))
        self.report = report


class NotOnSurfaceError(GeometryError):
    pass


class SingularPointError(GeometryError):
    pass


@dataclass(frozen=True)
class ProjPoint:
    """Projective point with primitive integer coordinates.

    First nonzero coordinate is positive, so equal points are equal tuples.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) not in (3, 4):
            raise GeometryError("points live in the plane or in space")
        if not any(self.coords):
            raise GeometryError("zero vector is not a projective point")
        object.__setattr__(self, "coords", primitive(self.coords))

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def point(*coords) -> ProjPoint:
    """Build a ProjPoint from ints, Fractions or strings (`poly.rational`)."""
    return ProjPoint(tuple(poly.rational(c) if isinstance(c, str) else poly.exact(c)
                           for c in coords))


def _det3(p, q, r) -> int:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    return _det3(p, q, r) == 0


def line_through(p: ProjPoint, q: ProjPoint) -> tuple[int, int, int]:
    """Coefficient vector of the line pq (cross product), primitive."""
    c = _cross(p, q)
    if not any(c):
        raise GeometryError(f"{p} and {q} coincide; no unique line")
    return primitive(c)


# conic coefficient order: x^2, xy, xz, y^2, yz, z^2
def _conic_row(p: ProjPoint) -> list[int]:
    x, y, z = p
    return [x * x, x * y, x * z, y * y, y * z, z * z]


def conic_value(conic: Sequence[int], p: ProjPoint) -> int:
    return sum(c * m for c, m in zip(conic, _conic_row(p)))


def conic_through(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
                  p4: ProjPoint, p5: ProjPoint) -> tuple[int, ...]:
    """The unique conic through five points, as a primitive 6-vector.

    Raises DegenerateConicError when the points fail to impose independent
    conditions (duplicate point or four on a line), with a witness.
    """
    pts = [p1, p2, p3, p4, p5]
    basis = kernel([_conic_row(p) for p in pts], 6)
    if len(basis) != 1:
        for i, j in combinations(range(5), 2):
            if pts[i] == pts[j]:
                raise DegenerateConicError(
                    f"duplicate points p{i + 1} = p{j + 1}", witness=(i, j))
        for quad in combinations(range(5), 4):
            if all(collinear(*(pts[k] for k in tri))
                   for tri in combinations(quad, 3)):
                raise DegenerateConicError(
                    "four points on a line: "
                    + ", ".join(f"p{k + 1}" for k in quad), witness=quad)
        raise DegenerateConicError(
            f"conic conditions dependent (kernel dimension {len(basis)})",
            witness=tuple(range(5)))
    conic = primitive(basis[0])
    assert all(conic_value(conic, p) == 0 for p in pts)
    return conic


# ---------------------------------------------------------------------------
# Six-point configurations.

@dataclass(frozen=True)
class Violation:
    kind: str                 # duplicate | collinear | not-collinear | conconic
    indices: tuple[int, ...]  # 1-based point indices witnessing the violation

    def __str__(self):
        pts = ", ".join(f"p{i}" for i in self.indices)
        text = {
            "duplicate": "duplicate points",
            "collinear": "unexpected collinear triple",
            "not-collinear": "required collinear triple fails",
            "conconic": "all six points on a conic",
        }[self.kind]
        return f"{text}: {pts}"


@dataclass(frozen=True)
class ValidationReport:
    mode: SurfaceModel
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SixPointConfig:
    points: tuple[ProjPoint, ...]
    mode: SurfaceModel = SurfaceModel.SMOOTH

    def __post_init__(self):
        if len(self.points) != 6:
            raise GeometryError("exactly six points required")
        if any(len(p.coords) != 3 for p in self.points):
            raise GeometryError("configuration points live in the plane")

    def point(self, i: int) -> ProjPoint:
        """1-based accessor matching the p1..p6 naming."""
        return self.points[i - 1]


def validate(config: SixPointConfig) -> ValidationReport:
    """Check the mode invariants; report every violation with indices."""
    pts = config.points
    violations: list[Violation] = []
    for i, j in combinations(range(6), 2):
        if pts[i] == pts[j]:
            violations.append(Violation("duplicate", (i + 1, j + 1)))
    expected = {(1, 2, 3)} if config.mode is SurfaceModel.NODAL else set()
    for tri in combinations(range(6), 3):
        labels = tuple(k + 1 for k in tri)
        is_col = collinear(*(pts[k] for k in tri))
        if is_col and labels not in expected:
            violations.append(Violation("collinear", labels))
        elif not is_col and labels in expected:
            violations.append(Violation("not-collinear", labels))
    # all six on one conic iff the 6x6 coefficient matrix is singular
    if kernel([_conic_row(p) for p in pts], 6):
        violations.append(Violation("conconic", (1, 2, 3, 4, 5, 6)))
    return ValidationReport(config.mode, tuple(violations))


# ---------------------------------------------------------------------------
# Eckardt points in the blow-up model.

@dataclass(frozen=True)
class EckardtRecord:
    triple: tuple[str, str, str]
    location: Union[ProjPoint, str]   # plane point, or "infinitely near pI"

    def __str__(self):
        return "{" + ", ".join(self.triple) + "} at " + str(self.location)


def eckardt_points(config: SixPointConfig) -> list[EckardtRecord]:
    """Scan tritangent triples of the blow-up for actual Eckardt points.

    A triple is an Eckardt point iff three plane lines are concurrent.  For
    {L,L,L} they are the triple's own lines.  {E_i, L_ij, F_j} is one iff the
    conic through the five points other than p_j touches the line p_i p_j at
    p_i.  With a, b, c, d the other four points, Pascal's theorem on the
    hexagon p_i p_i a b c d puts the tangent at p_i through the meet of bc
    and YZ, where Y = (p_i a)(cd) and Z = (ab)(d p_i); so the three lines are
    p_i p_j, bc and YZ.  `validate` leaves no three of the five points
    collinear (a nodal F_j has j in {1, 2, 3}, so only two of the collinear
    p1, p2, p3 are among them), which makes every one of these lines and
    meets proper: Y and Z are distinct points other than p_i, and Y is off
    bc, so YZ is a line other than bc and meets it off p_i.
    """
    report = validate(config)
    if not report.ok:
        raise InvalidConfigError(report)
    curves = enumerate_negative_curves(config.mode)
    records: list[EckardtRecord] = []
    for triple in tritangent_triples(curves):
        # by degree a: E_i has b_i = -1, L_ij has b_i = b_j = 1, F_j has b_j = 0
        members = sorted((curves[lbl] for lbl in triple), key=lambda d: d.a)
        shape = tuple(d.a for d in members)
        if shape == (1, 1, 1):
            lines = [line_through(*(config.point(k) for k, x in enumerate(d.b, 1)
                                    if x == 1)) for d in members]
            location = None
        elif shape == (0, 1, 2):
            i, j = members[0].b.index(-1) + 1, members[2].b.index(0) + 1
            pi, pj = config.point(i), config.point(j)
            a, b, c, d = (config.point(k) for k in range(1, 7) if k not in (i, j))
            y = _cross(_cross(pi, a), _cross(c, d))
            z = _cross(_cross(a, b), _cross(d, pi))
            lines = [_cross(pi, pj), _cross(b, c), _cross(y, z)]
            location = f"infinitely near p{i}"
        else:
            raise AssertionError(f"impossible tritangent shape {shape}")
        if _det3(*lines) == 0:
            records.append(EckardtRecord(tuple(sorted(triple)), location
                                         or ProjPoint(_cross(lines[0], lines[1]))))
    records.sort(key=lambda r: r.triple)
    return records


# ---------------------------------------------------------------------------
# Explicit cubic forms in P^3.

#: the exponents of (z0 + z1 + z2 + z3)^3 in graded-lex order
CUBIC_MONOMIALS: tuple[tuple[int, int, int, int], ...] = tuple(sorted(
    poly.power({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}, 3),
    reverse=True))
assert len(CUBIC_MONOMIALS) == 20


def monomial_name(expo: Sequence[int], names=("z0", "z1", "z2", "z3")) -> str:
    return poly.monomial(expo, names)


@dataclass(frozen=True)
class CubicForm:
    """Quaternary cubic as 20 rational coefficients in graded-lex order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != 20:
            raise GeometryError("a quaternary cubic has 20 coefficients")
        object.__setattr__(self, "coeffs", tuple(map(poly.exact, self.coeffs)))
        if not any(self.coeffs):
            raise GeometryError("cubic form is identically zero")

    @classmethod
    def from_dict(cls, terms: dict) -> "CubicForm":
        lookup = {expo: idx for idx, expo in enumerate(CUBIC_MONOMIALS)}
        coeffs = [Fraction(0)] * 20
        for expo, c in terms.items():
            expo = tuple(expo)
            if expo not in lookup:
                raise GeometryError(f"not a degree-3 exponent tuple: {expo}")
            coeffs[lookup[expo]] += poly.exact(c)
        return cls(tuple(coeffs))

    def terms(self) -> dict[tuple[int, int, int, int], Fraction]:
        return {e: c for e, c in zip(CUBIC_MONOMIALS, self.coeffs) if c}

    def evaluate(self, p: Sequence) -> Fraction:
        return poly.evaluate(self.terms(), list(map(poly.exact, p)))

    def gradient(self, p: Sequence) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        vals = list(map(poly.exact, p))
        return tuple(poly.evaluate(poly.diff(self.terms(), k), vals) for k in range(4))

    def __str__(self):
        return poly.to_text((monomial_name(e), c) for e, c in self.terms().items())


def tangent_plane_restriction(f: CubicForm, p: ProjPoint) -> dict:
    """Ternary cubic cut out on the tangent plane of {f = 0} at p.

    Requires p on the surface and smooth there.  The tangent plane is
    parametrized by a basis of the gradient's kernel chosen to contain p
    (Euler's relation puts p in the kernel), so p sits at (1:0:0) of the
    returned exponent dict over (s0, s1, s2).
    """
    if len(p.coords) != 4:
        raise GeometryError("point of a cubic surface lives in space")
    if f.evaluate(p) != 0:
        raise NotOnSurfaceError(f"{p} does not lie on the surface")
    grad = f.gradient(p)
    if not any(grad):
        raise SingularPointError(f"{p} is a singular point of the surface")
    j = next(k for k in range(4) if grad[k])
    # the kernel basis is e_k - (g_k/g_j) e_j for k != j; p has coordinate
    # p_k along the k-th vector, so p replaces the first one with p_k != 0
    k0 = next(k for k in range(4) if k != j and p[k] != 0)
    basis = [list(p.coords)] + [v for v in kernel([grad], 4) if not v[k0]]
    # f(s0*b0 + s1*b1 + s2*b2): z_k becomes the form sum_s basis[s][k] * s_s
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return poly.substitute(f.terms(), [dict(zip(units, (b[k] for b in basis)))
                                       for k in range(4)])


def is_eckardt_on_cubic(f: CubicForm, p: ProjPoint) -> bool:
    """Does the tangent-plane section of {f = 0} have multiplicity 3 at p?

    With p at (1:0:0) of the restricted ternary cubic, the section has a
    triple point there exactly when every monomial with a positive power of
    s0 vanishes.
    """
    restricted = tangent_plane_restriction(f, p)
    return all(e[0] == 0 for e in restricted)


# ---------------------------------------------------------------------------
# File formats shared with the command line.

class ConfigParseError(ValueError):
    pass


def load_config(text: str) -> SixPointConfig:
    """Parse the plain-text configuration format.

    A `mode: smooth|nodal` header, then six lines `x y z` of constants read
    by `poly.rational` (`3`, `-1/2`, no decimals); `#` starts a comment.
    """
    mode: Optional[SurfaceModel] = None
    rows: list[ProjPoint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = re.fullmatch(r"mode\s*:\s*(\w+)", line)
        if header:
            word = header.group(1).lower()
            if word not in ("smooth", "nodal"):
                raise ConfigParseError(f"line {lineno}: unknown mode {word!r}")
            if mode is not None:
                raise ConfigParseError(f"line {lineno}: duplicate mode header")
            mode = SurfaceModel.SMOOTH if word == "smooth" else SurfaceModel.NODAL
            continue
        entries = line.split()
        if len(entries) != 3:
            raise ConfigParseError(
                f"line {lineno}: expected three coordinates, got {len(entries)}")
        try:
            rows.append(point(*entries))
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: {exc}") from exc
    if mode is None:
        raise ConfigParseError("missing `mode:` header")
    if len(rows) != 6:
        raise ConfigParseError(f"expected six points, got {len(rows)}")
    return SixPointConfig(tuple(rows), mode)


def dump_config(config: SixPointConfig) -> str:
    lines = [f"mode: {config.mode.value}"]
    lines += [" ".join(str(c) for c in p.coords) for p in config.points]
    return "\n".join(lines) + "\n"


def load_cubic(text: str) -> CubicForm:
    """Parse the 20-line `monomial coefficient` cubic format (graded-lex).

    Coefficients are constants read by `poly.rational`.
    """
    body = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    body = [ln for ln in body if ln]
    if len(body) != 20:
        raise ConfigParseError(f"expected 20 coefficient lines, got {len(body)}")
    coeffs = []
    for expected, line in zip(CUBIC_MONOMIALS, body):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigParseError(f"bad cubic line {line!r}")
        name, value = parts
        if name != monomial_name(expected):
            raise ConfigParseError(
                f"expected monomial {monomial_name(expected)!r}, got {name!r}")
        try:
            coeffs.append(poly.rational(value))
        except poly.PolyParseError as exc:
            raise ConfigParseError(f"bad coefficient {value!r}: {exc}") from exc
    return CubicForm(tuple(coeffs))


def dump_cubic(f: CubicForm) -> str:
    return "\n".join(f"{monomial_name(e)} {c}"
                     for e, c in zip(CUBIC_MONOMIALS, f.coeffs)) + "\n"
