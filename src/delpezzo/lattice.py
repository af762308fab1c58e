"""Intersection theory on the Picard lattice of a blown-up plane.

The lattice is Z^7 = Z*H + Z*E1 + ... + Z*E6 with the signature (1,6) pairing.
A divisor class a*H - sum(b_i * E_i) is stored as the pair (a, b), so the
exceptional class E_i itself has b_i = -1.  Two surface models are supported:
the blow-up of six points of the plane in general position (Smooth, a cubic
surface) and the minimal resolution of a one-node cubic, where p1, p2, p3 lie
on a common line and C = H - E1 - E2 - E3 is the (-2)-curve over the node
(Nodal).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

from .constraints import cone_facets


class SurfaceModel(Enum):
    SMOOTH = "smooth"
    NODAL = "nodal"


@dataclass(frozen=True)
class DivisorClass:
    """Integer class a*H - sum(b_i * E_i) in the Picard lattice."""

    a: int
    b: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.b) != 6:
            raise ValueError("b must have length 6")
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        object.__setattr__(self, "a", int(self.a))

    def intersect(self, other: "DivisorClass") -> int:
        return self.a * other.a - sum(x * y for x, y in zip(self.b, other.b))

    def square(self) -> int:
        return self.intersect(self)

    def degree(self) -> int:
        """Anticanonical degree D.(-K)."""
        return self.intersect(MINUS_K)

    def coords(self) -> tuple[int, ...]:
        return (self.a,) + self.b

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a,
                            tuple(x + y for x, y in zip(self.b, other.b)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a,
                            tuple(x - y for x, y in zip(self.b, other.b)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, tuple(-x for x in self.b))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.a, tuple(k * x for x in self.b))

    __mul__ = __rmul__

    def __str__(self):
        return f"({self.a}; {','.join(str(x) for x in self.b)})"


def _unit(i: int) -> tuple[int, ...]:
    v = [0] * 6
    v[i - 1] = 1
    return tuple(v)


H = DivisorClass(1, (0, 0, 0, 0, 0, 0))
MINUS_K = DivisorClass(3, (1, 1, 1, 1, 1, 1))
#: (-2)-curve over the node in Nodal mode: the line through p1, p2, p3.
C = DivisorClass(1, (1, 1, 1, 0, 0, 0))


def E(i: int) -> DivisorClass:
    """Exceptional class over p_i."""
    if not 1 <= i <= 6:
        raise ValueError("index out of range")
    return DivisorClass(0, tuple(-x for x in _unit(i)))


def L(i: int, j: int) -> DivisorClass:
    """Strict transform of the line p_i p_j."""
    if i == j or not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError("need two distinct indices in 1..6")
    return DivisorClass(1, tuple(x + y for x, y in zip(_unit(i), _unit(j))))


def F(i: int) -> DivisorClass:
    """Strict transform of the conic through the five points other than p_i."""
    if not 1 <= i <= 6:
        raise ValueError("index out of range")
    return DivisorClass(2, tuple(1 - x for x in _unit(i)))


def anticanonical() -> DivisorClass:
    return MINUS_K


# The 27 lines: exactly the classes with D^2 = -1 and D.(-K) = 1 (the test
# suite checks this table against a brute-force enumeration of the lattice).
_SMOOTH_LABELS: list[tuple[str, DivisorClass]] = (
    [(f"E{i}", E(i)) for i in range(1, 7)]
    + [(f"L{i}{j}", L(i, j)) for i, j in itertools.combinations(range(1, 7), 2)]
    + [(f"F{i}", F(i)) for i in range(1, 7)]
)

# Canonical listing order for the 21 nodal lines: exceptional curves first,
# then the surviving secant transforms, then the three conic transforms.
_NODAL_LABELS: list[str] = (
    [f"E{i}" for i in range(1, 7)]
    + [f"L{i}{j}" for i in (1, 2, 3) for j in (4, 5, 6)]
    + ["L45", "L46", "L56"]
    + ["F1", "F2", "F3"]
)


def enumerate_negative_curves(model: SurfaceModel) -> dict[str, DivisorClass]:
    """Labeled negative curves: the 27 lines (Smooth) or 21 lines plus C (Nodal).

    In Nodal mode the smooth solutions with D.C < 0 are dropped: those classes
    (L12, L13, L23, F4, F5, F6) contain C and decompose as C plus a (-1)-class,
    so they are not irreducible on the resolution.
    """
    smooth = dict(_SMOOTH_LABELS)
    if model is SurfaceModel.SMOOTH:
        return smooth
    nodal = {lab: smooth[lab] for lab in _NODAL_LABELS}
    assert all(d.intersect(C) >= 0 for d in nodal.values())
    assert len([lab for lab, d in smooth.items() if d.intersect(C) >= 0]) == 21
    nodal["C"] = C
    return nodal


def incidence_graph(curves: dict[str, DivisorClass]) -> dict[str, dict[str, int]]:
    """For each curve, the other curves met with positive intersection number."""
    graph: dict[str, dict[str, int]] = {}
    for lab, d in curves.items():
        graph[lab] = {
            other: d.intersect(e)
            for other, e in curves.items()
            if other != lab and d.intersect(e) > 0
        }
    return graph


def third_line(l1: DivisorClass, l2: DivisorClass) -> DivisorClass:
    """The unique third line coplanar with two meeting lines: -K - l1 - l2."""
    if l1.intersect(l2) != 1:
        raise ValueError(
            f"lines must meet with product 1, got {l1}.{l2} = {l1.intersect(l2)}")
    d = MINUS_K - l1 - l2
    assert d.square() == -1 and d.degree() == 1
    return d


def tritangent_triples(curves: dict[str, DivisorClass]) -> list[tuple[str, str, str]]:
    """All unordered triples with sum -K and pairwise product 1.

    Listed in the order of `itertools.combinations(curves, 3)`, and computed
    once per distinct curve table.
    """
    return list(_tritangent_triples(tuple(curves.items())))


@functools.cache
def _tritangent_triples(items: tuple[tuple[str, DivisorClass], ...]
                        ) -> tuple[tuple[str, str, str], ...]:
    # each meeting pair a, b closes only with the class -K - a - b
    where: dict[DivisorClass, list[int]] = {}
    for k, (_, d) in enumerate(items):
        where.setdefault(d, []).append(k)
    triples = []
    for (_, (la, da)), (j, (lb, db)) in itertools.combinations(enumerate(items), 2):
        if da.intersect(db) != 1:
            continue
        for k in where.get(MINUS_K - da - db, ()):
            lc, dc = items[k]
            if k > j and db.intersect(dc) == da.intersect(dc) == 1:
                triples.append((la, lb, lc))
    return tuple(triples)


def is_ample(d: DivisorClass) -> bool:
    """Nakai-Moishezon on the smooth cubic: d^2 > 0 and d.L > 0 for all 27 lines."""
    if d.square() <= 0:
        return False
    return all(d.intersect(line) > 0 for _, line in _SMOOTH_LABELS)


@functools.cache
def effective_cone_facets(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The primitive classes F with F.D >= 0 cutting out the effective cone.

    They generate the nef cone: on the smooth cubic the 27 conic classes
    -K - L and the 72 classes with F^2 = 1, F.(-K) = 3.  Computed on first use
    for each model, by double description over the negative curves, and kept.
    """
    curves = enumerate_negative_curves(model).values()
    # F.D is the dot product of F's coordinates with (a; -b1..-b6) for D = (a; b)
    normals = cone_facets([(d.a,) + tuple(-x for x in d.b) for d in curves])
    return tuple(DivisorClass(f[0], f[1:]) for f in normals)


def is_effective(d: DivisorClass, model: SurfaceModel = SurfaceModel.SMOOTH) -> bool:
    """Membership in the effective cone, generated by the negative curves.

    d is effective iff F.d >= 0 for every facet class F of
    `effective_cone_facets(model)`: a few integer products per query.  The
    exact simplex `constraints.nonnegative_combination` over the same curves
    produces a certificate, and the tests use it as the oracle for this one.
    """
    return all(f.intersect(d) >= 0 for f in effective_cone_facets(model))
