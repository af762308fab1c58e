"""Exhaustive scans over one-dimensional candidate non-integrable loci.

Setting: Z = sum(mu_i * C_i) + Omega is an effective member of |-mK| whose
non-integrability locus at threshold lam contains the curves C_i, so each
coefficient satisfies mu_i >= m/lam.  The anticanonical degree budget
3m = Z.(-K) then caps the possible configurations to a handful of shapes,
and every one of them dies on exact lattice arithmetic.  The scans below
enumerate all shapes at a concrete level m and record one contradiction per
candidate (or a survivor, which the nodal model has for even m).

Candidate evaluation is pure, and records come in the shape table's order:
each model has one table of shapes, built once for every m and sorted by locus
labels, and the coefficients rise within each shape.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import poly
from .lattice import (C, MINUS_K, ZERO, DivisorClass, SurfaceModel,
                      curve_incidences, enumerate_negative_curves, is_ample,
                      is_effective)

if TYPE_CHECKING:
    from .plane_config import SixPointConfig

#: Contradiction vocabulary.  Every reason is re-checkable from the recorded
#: candidate alone: ampleness via is_ample, effectivity via is_effective, the
#: counting reasons by redoing the displayed intersection arithmetic.
NOT_AMPLE = "not-ample"
RESIDUAL_NOT_EFFECTIVE = "residual-not-effective"
INTERSECTION_VIOLATION = "intersection-violation"
DEGREE_OVERFLOW = "degree-overflow"
PROJECTION_DEGREE = "projection-degree"
NEIGHBOR_COUNTING = "neighbor-counting"
HALF_INTEGRAL = "half-integral"

#: largest m `lemma31_scan` accepts: its records grow by about 40 per unit of
#: m (40,689 at m = 1000, in 0.15 s, best of 3 runs on a 2-core x86_64 VM)
MAX_SCAN_M = 1000


@dataclass(frozen=True)
class Decomposition:
    """Z = sum(mu_i * C_i) + Omega split along a candidate locus.

    parts lists (label, class, mu) for the locus curves; residual is the
    lattice class Omega = -mK - sum(mu_i * C_i), so the defining identity
    holds by construction.  residual_support optionally names an explicit
    effective decomposition of Omega when the scan derives one.
    """

    m: int
    lam: Fraction
    parts: tuple[tuple[str, DivisorClass, int], ...]
    residual: DivisorClass
    residual_support: Optional[tuple[tuple[str, Fraction], ...]] = None

    def locus_class(self) -> DivisorClass:
        total = ZERO
        for _, cls, mu in self.parts:
            total = total + mu * cls
        return total

    def residual_is_effective(self, model: SurfaceModel) -> bool:
        return is_effective(self.residual, model)

    def __str__(self):
        body = " + ".join(f"{mu}*{lab}" for lab, _, mu in self.parts)
        if self.residual_support:
            omega = " + ".join(f"{k}*{lab}" for lab, k in self.residual_support)
            return f"{body} + {omega}"
        return f"{body} + Omega{self.residual}"


def decomposition(m: int, lam, parts) -> Decomposition:
    """Build a Decomposition, computing the residual from the lattice identity."""
    m, lam = operator.index(m), poly.exact(lam)
    parts = tuple((str(lab), cls, operator.index(mu)) for lab, cls, mu in parts)
    if any(mu < 0 for _, _, mu in parts):
        raise ValueError("locus coefficients must be non-negative")
    return _decompose(m, lam, parts, m * MINUS_K)


def _decompose(m: int, lam: Fraction, parts, target: DivisorClass) -> Decomposition:
    # parts are already normalised and target is m * MINUS_K
    residual = target
    for _, cls, mu in parts:
        residual = residual - mu * cls
    return Decomposition(m, lam, parts, residual)


def degree_budget_check(candidate: Decomposition) -> bool:
    """Anticanonical degrees balance: sum(mu_i*deg C_i) + deg Omega = 3m, deg Omega >= 0."""
    omega_deg = candidate.residual.degree()
    total = sum(mu * cls.degree() for _, cls, mu in candidate.parts) + omega_deg
    return omega_deg >= 0 and total == 3 * candidate.m


@dataclass(frozen=True)
class ScanRecord:
    """One examined candidate with its contradiction (reason None = survivor)."""

    candidate: Decomposition
    reason: Optional[str]
    detail: str = ""

    @property
    def survived(self) -> bool:
        return self.reason is None

    def line(self) -> str:
        verdict = "SURVIVOR" if self.survived else self.reason
        tail = f" -- {self.detail}" if self.detail else ""
        return f"{self.candidate}: {verdict}{tail}"


@dataclass(frozen=True)
class CaseVerdict:
    label: str
    records: tuple[ScanRecord, ...]

    @property
    def survivors(self) -> tuple[ScanRecord, ...]:
        return tuple(r for r in self.records if r.survived)

    def counts_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            key = "survivor" if r.survived else r.reason
            counts[key] = counts.get(key, 0) + 1
        return counts

    def report(self) -> str:
        lines = [self.label,
                 f"{len(self.records)} candidates, {len(self.survivors)} survivors"]
        lines += ["  " + r.line() for r in self.records]
        return "\n".join(lines)


# -- smooth model -------------------------------------------------------------

_SMOOTH_LINES = enumerate_negative_curves(SurfaceModel.SMOOTH)  # only read


@functools.cache
def _smooth_shapes() -> tuple[tuple[tuple[str, DivisorClass, int], ...], ...]:
    """lemma31_scan's shapes of (label, class, degree) parts, sorted by labels.

    The components are the 27 lines and the 27 classes -K - L (square 0,
    degree 2), the lattice proxies for irreducible conics.  Built once.
    """
    lines = _SMOOTH_LINES
    conics = {f"-K-{lab}": MINUS_K - cls for lab, cls in lines.items()}
    assert all(c.square() == 0 and c.degree() == 2 for c in conics.values())
    pool = [(lab, cls, cls.degree())
            for lab, cls in itertools.chain(lines.items(), conics.items())]
    pairs = [(a, b) for a, b in itertools.combinations(pool[:len(lines)], 2)
             if a[1].intersect(b[1]) >= 1]
    assert len(pool) == 54 and len(pairs) == 135
    return tuple(sorted([(part,) for part in pool] + pairs,
                        key=lambda shape: tuple(lab for lab, _, _ in shape)))


def classify_smooth_candidate(cand: Decomposition) -> ScanRecord:
    """Evaluate one smooth-model candidate against the case analysis.

    Checks, in order: the degree budget; for budget-exhausting loci (two
    lines, or one conic class) the ampleness of the locus class, which would
    have to equal the ample -mK; for a single line the degree-2 projection
    bound 2*mu <= 3m and then the 10-neighbour count against what the
    residual intersection number affords.  A single-line candidate that
    reaches the count must be one of the 27 lines.  The analysis holds for
    m >= 2, lam in (0, 2/3] (coefficients >= 3m/2) and a non-empty locus of
    curves of positive degree (-K is ample on the smooth cubic); anything
    else is refused, like a coefficient below m/lam.
    """
    m, lam = cand.m, cand.lam
    if m < 2:
        raise ValueError("m >= 2 required")
    if not 0 < lam <= Fraction(2, 3):
        raise ValueError("threshold lam must lie in (0, 2/3]")
    if not cand.parts:
        raise ValueError("the locus must have at least one curve")
    if any(mu * lam.numerator < m * lam.denominator for _, _, mu in cand.parts):
        raise ValueError(f"locus coefficients must be >= m/lam = {Fraction(m) / lam}")
    degrees = tuple(cls.degree() for _, cls, _ in cand.parts)
    for (lab, _, _), deg in zip(cand.parts, degrees):
        if deg <= 0:
            raise ValueError(f"{lab} has degree {deg}; every curve on the "
                             "smooth cubic has positive degree")
    spent = sum(mu * deg for (_, _, mu), deg in zip(cand.parts, degrees))
    return _classify_smooth(cand, degrees, spent)


def _classify_smooth(cand: Decomposition, degrees: tuple, spent: int) -> ScanRecord:
    # cand meets the floor; degrees are its parts', spent = sum(mu_i * deg_i)
    m = cand.m
    budget = 3 * m
    if spent > budget:
        return ScanRecord(cand, DEGREE_OVERFLOW,
                          f"locus degree {spent} exceeds the budget Z.(-K) = {budget}")

    if len(cand.parts) == 2 or degrees[0] == 2:
        # Budget is exhausted exactly (coefficients >= 3m/2, degrees sum to 2),
        # so the residual is empty and the locus class must be -mK itself.
        assert spent == budget and cand.residual.degree() == 0
        z = cand.locus_class()
        if not is_ample(z):
            shape = " + ".join(lab for lab, _, _ in cand.parts)
            return ScanRecord(cand, NOT_AMPLE,
                              f"empty residual forces Z = -{m}K, ample; but "
                              f"({shape}) scaled has square {z.square()} and "
                              f"fails Nakai-Moishezon")
        if cand.residual != ZERO:
            return ScanRecord(cand, RESIDUAL_NOT_EFFECTIVE,
                              "degree-0 residual is a nonzero class")
        return ScanRecord(cand, None, "locus class is ample")

    (lab, cls, mu), = cand.parts
    if 2 * mu > budget:
        return ScanRecord(cand, PROJECTION_DEGREE,
                          f"the line maps to a conic under a degree-2 blow-down, "
                          f"so 2*mu <= 3m; here 2*{mu} > {budget}")
    # 2*mu = 3m exactly.  Every line meeting C1 must sit in the residual with
    # coefficient >= m/2 (from m = L.Z >= mu - kappa_L), but C1.Omega = m + mu
    # affords only (m + mu)/(m/2) of them.
    neighbors = curve_incidences(SurfaceModel.SMOOTH).get(lab)
    if neighbors is None or _SMOOTH_LINES[lab] != cls:
        raise ValueError(f"{lab} = {cls} is not one of the 27 lines")
    afford = Fraction(m + mu, 1) / Fraction(m, 2)
    if len(neighbors) > afford:
        return ScanRecord(cand, NEIGHBOR_COUNTING,
                          f"{len(neighbors)} neighbouring lines each need "
                          f"coefficient >= {Fraction(m, 2)} in the residual, "
                          f"but C1.Omega = {m + mu} affords at most {afford}")
    return ScanRecord(cand, None, "neighbour count affordable")


def lemma31_scan(m: int, lam) -> CaseVerdict:
    """Rule out one-dimensional non-integrable loci on the smooth cubic.

    Enumerates every candidate locus with integer coefficients mu_i >=
    ceil(m/lam) fitting the degree budget 3m.  The coefficient floor (>= 3m/2
    for lam <= 2/3) caps the locus at total degree 2, so the shapes are: a
    connected pair of lines, a single conic class, or a single line.
    Disconnected pairs are excluded outright: the locus is connected.
    Budget-infeasible shapes (anything involving a conic in a pair, and all
    larger supports) admit no coefficients at all and are not candidates.
    m is an int and lam an exact rational (`poly.exact`); raises ValueError
    for m above MAX_SCAN_M before enumerating anything.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError("m >= 2 required")
    if m > MAX_SCAN_M:
        raise ValueError(f"m <= {MAX_SCAN_M} required; the scan grows "
                         "about 40 records per unit of m")
    lam = poly.exact(lam)
    if not 0 < lam <= Fraction(2, 3):
        raise ValueError("threshold lam must lie in (0, 2/3]")

    q = math.ceil(Fraction(m) / lam)
    budget = 3 * m
    assert budget // q <= 2  # the floor alone caps the support size

    target = m * MINUS_K

    # every candidate below has mu >= q >= m/lam, the classifier's floor; the
    # residual steps down by one class as its coefficient rises
    records = []
    for shape in _smooth_shapes():
        degrees = tuple(deg for _, _, deg in shape)
        if q * sum(degrees) > budget:
            continue
        if len(shape) == 1:
            (lab, cls, deg), = shape
            res = target - q * cls
            for mu in range(q, budget // deg + 1):
                records.append(_classify_smooth(
                    Decomposition(m, lam, ((lab, cls, mu),), res), degrees, mu * deg))
                res = res - cls
            continue
        (la, ca, da), (lb, cb, db) = shape  # the locus is connected
        outer = target - q * ca
        for mu1 in range(q, (budget - q * db) // da + 1):
            res = outer - q * cb
            for mu2 in range(q, (budget - mu1 * da) // db + 1):
                records.append(_classify_smooth(
                    Decomposition(m, lam, ((la, ca, mu1), (lb, cb, mu2)), res),
                    degrees, mu1 * da + mu2 * db))
                res = res - cb
            outer = outer - ca
    return CaseVerdict(f"smooth-model locus scan: m={m}, lam={lam}", tuple(records))


# -- nodal model --------------------------------------------------------------

def canonical_nodal_survivor(m: int) -> Decomposition:
    """The unique even-m decomposition (3m/2)C + (m/2)(E1+E2+E3+L45+L46+L56)."""
    if (m := operator.index(m)) < 2:
        raise ValueError("m >= 2 required")
    if m % 2:
        raise ValueError("only even m admits the survivor")
    mu, half = 3 * m // 2, Fraction(m, 2)
    return Decomposition(m, Fraction(2, 3), (("C", C, mu),), m * MINUS_K - mu * C,
                         tuple((lab, half) for lab in _node_adjacent()))


@functools.cache
def _node_adjacent() -> tuple[str, ...]:
    """The lines meeting C once, sorted by label."""
    return tuple(sorted(lab for lab, k in
                        curve_incidences(SurfaceModel.NODAL)["C"].items() if k == 1))


def lemma51_scan(m: int) -> CaseVerdict:
    """Classify one-dimensional non-integrable loci on the one-node resolution.

    The threshold is 2/3 (coefficient floor ceil(3m/2)) and the curve pool is
    the 21 lines plus the (-2)-curve C.  C has anticanonical degree 0, so it
    joins any locus for free and the budget allows exactly five connected
    shapes: {C}, {C1}, {C, C1}, {C1, C2}, {C, C1, C2} with the C_i lines.
    For even m the shape {C} survives with Z = (3m/2)C + (m/2)(E1+E2+E3+
    L45+L46+L56), verified as an exact lattice identity; everything else
    records a contradiction, and for odd m nothing survives (the forced
    coefficients are half-integral).  m is an int.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError("m >= 2 required")
    lam = Fraction(2, 3)
    forced = Fraction(3 * m, 2)
    q = math.ceil(forced)
    target = m * MINUS_K
    return CaseVerdict(f"nodal-model locus scan: m={m}, lam={lam}",
                       tuple(scan(m, lam, q, forced, target, *args)
                             for _, scan, args in _nodal_shapes()))


@functools.cache
def _nodal_shapes() -> tuple[tuple, ...]:
    """lemma51_scan's 148 shapes: (labels, scanner, m-free args), sorted by labels."""
    graph = curve_incidences(SurfaceModel.NODAL)
    lines = enumerate_negative_curves(SurfaceModel.NODAL)
    del lines["C"]
    adjacent = _node_adjacent()
    assert len(adjacent) == 6

    # graph[a] holds the curves meeting a, with their (positive) products
    six = sum((lines[lab] for lab in adjacent), ZERO)
    shapes = [(("C",), _scan_node_alone, (six, adjacent))]
    for lab, cls in lines.items():
        met = graph[lab]
        meets_node = met.get("C", 0)
        shapes.append(((lab,), _scan_single_line,
                       ((lab, cls), len(met) - (meets_node > 0), meets_node)))
    for lab in adjacent:
        near = [o for o in graph[lab] if o != "C"]
        assert all("C" not in graph[o] for o in near)
        shapes.append((("C", lab), _scan_node_plus_line, ((lab, lines[lab]), len(near))))
    for (la, ca), (lb, cb) in itertools.combinations(lines.items(), 2):
        meet = lb in graph[la]
        if meet:
            # -2K - 3(C1 + C2) has degree 0: as -K is nef and C is the one
            # curve of degree 0, it is effective iff it is k*C with k >= 0
            scaled = 2 * MINUS_K - 3 * (ca + cb)
            shapes.append(((la, lb), _scan_line_pair, ((la, ca), (lb, cb),
                           scaled.a >= 0 and scaled == scaled.a * C)))
        na, nb = graph[la].get("C", 0), graph[lb].get("C", 0)
        if (na and nb) or ((na or nb) and meet):  # connected
            shapes.append((("C", la, lb), _scan_node_plus_pair,
                           ((la, ca), (lb, cb), na + nb)))
    assert len(shapes) == 148
    return tuple(sorted(shapes, key=lambda shape: shape[0]))


def _scan_node_alone(m, lam, q, forced, target, six, adjacent) -> ScanRecord:
    # Each adjacent line E has m = E.Z = mu - kappa_E + ..., forcing it into
    # the residual with kappa_E >= mu - m; the residual degree 3m then gives
    # 6(mu - m) <= 3m, so mu = 3m/2 exactly and Omega = (m/2) * (sum of six):
    # a sum of curves, so effective, with the six lines at m/2 as its witness.
    if forced.denominator != 1:
        cand = decomposition(m, lam, [("C", C, q)])
        return ScanRecord(cand, HALF_INTEGRAL,
                          f"the six adjacent lines force the C-coefficient to "
                          f"exactly 3m/2 = {forced}, not an integer")
    mu = int(forced)
    cand = canonical_nodal_survivor(m)
    if 2 * cand.residual != m * six:
        return ScanRecord(cand, RESIDUAL_NOT_EFFECTIVE,
                          "equality analysis demands Omega = (m/2)(sum of the "
                          "six adjacent lines), which the lattice refutes")
    assert degree_budget_check(cand)
    return ScanRecord(cand, None,
                      f"forced exactly: Z = {mu}*C + {Fraction(m, 2)}*"
                      f"({'+'.join(adjacent)}), an identity in the lattice")


def _scan_single_line(m, lam, q, forced, target, line, n, meets_node) -> ScanRecord:
    # C1.Omega = m + mu must cover its n line neighbours at mu - m each, plus
    # mu/2 on C when C1 meets C (from 0 = C.Z = mu - 2*kappa_C + ...).  With
    # mu >= 3m/2 the load always exceeds the cover.
    lab, cls = line
    cand = _decompose(m, lam, ((lab, cls, q),), target)
    # cover >= load reduces to mu*(2n - 2 + meets_node) <= 2m(n + 1); check at
    # the floor, where the left side is smallest.
    lhs = q * (2 * n - 2 + meets_node)
    rhs = 2 * m * (n + 1)
    assert lhs > rhs, "single-line affordability must fail at the floor"
    node_part = f" plus {Fraction(q, 2)} on C" if meets_node else ""
    return ScanRecord(cand, INTERSECTION_VIOLATION,
                      f"C1.Omega = {m + q} cannot cover {n} forced neighbours "
                      f"at >= {q - m} each{node_part}; worse for larger mu")


def _scan_node_plus_line(m, lam, q, forced, target, line, n) -> ScanRecord:
    # Residual degree 3m - nu must cover the n = 5 line neighbours of C1 (all
    # disjoint from C) at nu - m each: 3m - nu >= 5(nu - m) fails for every
    # nu >= 3m/2.
    lab, cls = line
    cand = _decompose(m, lam, (("C", C, q), (lab, cls, q)), target)
    # 3m - nu >= n(nu - m) fails at nu = q and keeps failing above it.
    assert q * (n + 1) > m * (n + 3), "node-plus-line budget must fail at the floor"
    return ScanRecord(cand, INTERSECTION_VIOLATION,
                      f"residual degree {3 * m} - nu must cover "
                      f"{n} forced neighbours of {lab} at nu - m "
                      f"each; impossible for every nu >= {q}")


def _scan_line_pair(m, lam, q, forced, target, a, b, effective) -> ScanRecord:
    # at even m the residual is (m/2)(-2K - 3(C1 + C2)), effective or not
    (la, ca), (lb, cb) = a, b
    if forced.denominator != 1:
        cand = _decompose(m, lam, ((la, ca, q), (lb, cb, q)), target)
        return ScanRecord(cand, HALF_INTEGRAL,
                          f"the degree budget pins both coefficients to "
                          f"3m/2 = {forced}, not an integer")
    mu = int(forced)
    cand = _decompose(m, lam, ((la, ca, mu), (lb, cb, mu)), target)
    if not effective:
        return ScanRecord(cand, RESIDUAL_NOT_EFFECTIVE,
                          f"Omega = -{m}K - {mu}*({la}+{lb}) = "
                          f"{cand.residual} is not effective")
    # Z = mu*(C1 + C2) + Omega is -mK by construction, so every line sees
    # L.Z = m: no intersection test is left to fail
    return ScanRecord(cand, None, "all line intersections consistent")


def _scan_node_plus_pair(m, lam, q, forced, target, a, b, s) -> ScanRecord:
    # s = C.C1 + C.C2
    (la, ca), (lb, cb) = a, b
    if forced.denominator != 1:
        cand = _decompose(m, lam, (("C", C, q), (la, ca, q), (lb, cb, q)), target)
        return ScanRecord(cand, HALF_INTEGRAL,
                          f"the degree budget pins the line coefficients to "
                          f"3m/2 = {forced}, not an integer")
    nu = int(forced)
    # 0 = C.Z pins the C-coefficient: 2*mu = nu*(C.C1 + C.C2).
    mu_forced = Fraction(nu * s, 2)
    if mu_forced.denominator != 1 or mu_forced < q:
        cand = _decompose(m, lam, (("C", C, q), (la, ca, nu), (lb, cb, nu)), target)
        return ScanRecord(cand, INTERSECTION_VIOLATION,
                          f"C.Z = 0 forces the C-coefficient to {mu_forced}, "
                          f"incompatible with the floor {q}")
    mu = int(mu_forced)
    cand = _decompose(m, lam, (("C", C, mu), (la, ca, nu), (lb, cb, nu)), target)
    # The residual has degree 0 and may not contain C, so it must vanish.
    if cand.residual != ZERO:
        return ScanRecord(cand, RESIDUAL_NOT_EFFECTIVE,
                          f"degree-0 residual avoiding C must vanish, got "
                          f"{cand.residual}")
    # Z = -mK by construction here too, so every line sees L.Z = m
    return ScanRecord(cand, None, "all line intersections consistent")


# -- alpha_1 from the line catalogue ------------------------------------------

@dataclass(frozen=True)
class Alpha1Report:
    """Best alpha_1 bound from anticanonical members built out of lines.

    final is True when the bound is attained by a worst member (an Eckardt
    point); otherwise the value only bounds alpha_1 from above, since members
    with worse singularities (cuspidal curves etc.) are outside the catalogue.
    """

    value: Fraction
    final: bool
    witness: str

    def __str__(self):
        kind = "exact" if self.final else "upper bound only"
        return f"alpha_1 {'=' if self.final else '<='} {self.value} ({kind}; {self.witness})"


def alpha1_report(config: SixPointConfig) -> Alpha1Report:
    """Scan the tritangent catalogue of a smooth-model six-point config.

    A plane section through three concurrent lines has local model x*y*(x+y)
    at the triple point; a genuine triangle only has normal crossings, local
    model x*y.  Both thresholds are read off the Newton polygon, not quoted;
    both germs are nondegenerate, so the value is exact (no sympy needed).
    """
    from .germs import parse_germ  # here, so that the scans never load them
    from .lct import newton_lct
    from .plane_config import eckardt_points
    if config.mode is not SurfaceModel.SMOOTH:
        raise ValueError("smooth-model configurations only")
    found = eckardt_points(config)
    threshold = newton_lct(parse_germ("x*y*(x+y)" if found else "x*y"))
    assert threshold.exact
    if found:
        rec = found[0]
        where = (rec.location if isinstance(rec.location, str)
                 else f"at {rec.location}")
        return Alpha1Report(value=threshold.value, final=True,
                            witness=f"three concurrent lines "
                                    f"{{{', '.join(rec.triple)}}} {where}")
    return Alpha1Report(value=threshold.value, final=False,
                        witness="triangles of coplanar lines only reach "
                                "normal crossings")
