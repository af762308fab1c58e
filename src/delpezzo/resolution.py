"""Embedded resolution of plane-curve germs by iterated point blow-ups.

The engine tracks, for every exceptional divisor E it creates, the

    a_E  discrepancy      (1 at a smooth ambient point, 1 + sum over the
                           exceptional divisors through the blown-up point)
    b_E  vanishing order  (multiplicity of the full transformed germ at the
                           point, plus the parents' orders)

of standard point-blow-up bookkeeping.  Work happens in local charts: a site
is a germ in coordinates (x, y) over a field K, where either coordinate axis
may be (the strict transform of) an exceptional divisor.  Blowing up maps a
site into chart A (x, y) -> (x, x*y), which keeps the old {y=0} axis, and
chart B (x, y) -> (x*y, y), which keeps the old {x=0} axis; the new
exceptional divisor is {x=0} in chart A and {y=0} in chart B.

Every site carries two transforms: g, the strict transform of the germ with
its multiplicities (its order at the point feeds b_E), and g_red, the strict
transform of the reduced germ (which decides where the curve is singular,
tangent or absent).  The root g_red is the product of the square-free parts
p_i of the germ f = c * prod p_i^i (gcds only, no factoring), and from then
on g_red goes through exactly the same chart maps, translations and
coefficient embeddings as g, divided by its own multiplicity.  In
characteristic 0 this keeps g_red equal to the square-free part of g up to a
nonzero constant, so no site ever recomputes it:

  * a chart map is an isomorphism once x (or y) is inverted, and the
    division leaves a polynomial not divisible by the new exceptional
    coordinate, so the strict transform of a square-free curve is
    square-free and distinct branches stay coprime;
  * a translation y -> y + v0 is an automorphism;
  * a square-free polynomial over K stays square-free over any extension
    K2, because K has characteristic 0.

Points needing further blow-ups are located along the new exceptional line
only: multiple roots of the restriction of g_red (tangency, singular point,
or several branches), plus the chart origins when a triple intersection with
an old axis occurs.  Those roots come from the monic gcd(r, r') of that
restriction r, so the constant left free in g_red never shows.  Roots that
are irrational are handled by extending K; conjugate points yield identical
(a, b) data, so one representative per irreducible factor is blown up and the
cluster shares a single node.

K is always QQ or an absolute algebraic extension QQ(theta); towers that
would arise from nested irrational centers are flattened back to absolute
fields with a primitive element found by resultants.

sympy is imported on the first call that does polynomial algebra, not with
this module, so the sympy-free commands never load it.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import TYPE_CHECKING, Callable, Optional

from . import poly
from .germs import CurveGerm

if TYPE_CHECKING:
    from sympy import Poly


@functools.cache
def _symbols(names: str):
    """sympy.symbols(names), built (and sympy imported) on first use."""
    import sympy
    return sympy.symbols(names)


DEFAULT_MAX_BLOWUPS = 64
MAX_BLOWUPS_ENV = "DELPEZZO_MAX_BLOWUPS"


class DepthExceededError(RuntimeError):
    """Raised when the blow-up budget is exhausted; never a silent answer."""

    def __init__(self, limit: int):
        super().__init__(f"resolution exceeded the blow-up budget of {limit}; "
                         f"raise {MAX_BLOWUPS_ENV} to continue")
        self.limit = limit


class BlowupBudgetSettingError(ValueError):
    """Raised when the budget environment variable is not a count."""


def blowup_limit(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(MAX_BLOWUPS_ENV)
    if raw is None:
        return DEFAULT_MAX_BLOWUPS
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise BlowupBudgetSettingError(
            f"{MAX_BLOWUPS_ENV} must be a non-negative integer, got {raw!r}")
    return limit


@dataclass(eq=False)
class ResolutionNode:
    """One exceptional divisor (a conjugate cluster shares one node)."""

    index: int
    a: int
    b: int
    parents: tuple["ResolutionNode", ...]
    site: str

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.a + 1, self.b)

    def chain(self) -> list["ResolutionNode"]:
        """Ancestors (by first parent) from the root down to this node."""
        out, cur = [], self
        while cur is not None:
            out.append(cur)
            cur = cur.parents[0] if cur.parents else None
        return out[::-1]

    def __str__(self):
        return f"E{self.index} (a={self.a}, b={self.b}) at {self.site}"


@dataclass(frozen=True)
class Component:
    """A rational factor of the germ f = c * prod p_i^i, with multiplicity i.

    A square-free part p_i is split into its irreducible factors over QQ only
    when an output reads them: when p_i passes through the origin and i >= 2
    (the blow-up witness 1/i and the equality certificate of lct = 1/k), when
    f is smooth at the origin (its certificate), and when p_i carries all of
    the reduced germ's order 2 at the origin with a tangent cone that splits
    into two distinct rational lines (two rational branches crossing
    normally).  Every other part stays whole: one that misses the origin, or
    one of order 1 there (a single smooth branch times a unit, with that
    branch's tangent), or one that cannot pass the normal-crossings test.
    """

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]
    multiplicity: int
    mult_at_origin: int   # 0 when the component misses the origin

    @property
    def label(self) -> str:
        """The factor as sympy prints it, built only when asked for."""
        return str(_qq_poly(dict(self.coeffs)).as_expr())

    @property
    def through_origin(self) -> bool:
        return self.mult_at_origin > 0

    def __str__(self):
        return f"component {self.label} with multiplicity {self.multiplicity}"


@dataclass(frozen=True)
class Resolution:
    nodes: tuple[ResolutionNode, ...]
    #: the germ's factors by multiplicity: irreducible where Component says
    #: an output reads them, whole square-free parts elsewhere
    components: tuple[Component, ...]
    blowups: int


# -- germ dictionaries over a sympy domain K --------------------------------

def _mult(g: dict) -> int:
    return min(i + j for i, j in g)


def _chart_a(g: dict, m: int) -> dict:
    # x -> x, y -> x*y, divide by x^m
    return {(i + j - m, j): c for (i, j), c in g.items()}


def _chart_b(g: dict, m: int) -> dict:
    # x -> x*y, y -> y, divide by y^m
    return {(i, i + j - m): c for (i, j), c in g.items()}


def _translate_y(g: dict, K, v0) -> dict:
    """g(x, y + v0) in the domain K."""
    return poly.substitute(g, [{(1, 0): K.one}, {(0, 1): K.one, (0, 0): v0}])


def _restrict_to_x0(g: dict, K) -> Poly:
    """The univariate restriction g(0, v) along the new exceptional line."""
    from sympy import Poly
    d = {(j,): c for (i, j), c in g.items() if i == 0}
    return Poly.from_dict(d, _symbols("v"), domain=K)


def _map_coeffs(g: dict, phi: Callable) -> dict:
    out = {}
    for e, c in g.items():
        v = phi(c)
        if v:
            out[e] = v
    return out


# -- field towers ------------------------------------------------------------

def _linear_root(factor: Poly, K):
    d = factor.rep.to_dict()
    c1 = d[(1,)]
    c0 = d.get((0,), K.zero)
    return -c0 / c1


def _extend_field(K, q: Poly):
    """Adjoin a root of the irreducible q over K.

    Returns (K2, phi, gamma) with phi an embedding K -> K2 and gamma in K2 a
    root of phi(q).  For K = QQ this is a plain algebraic field; otherwise a
    primitive element for the compositum is located by resultants.
    """
    import sympy
    from sympy import QQ, CRootOf, Poly
    _T, _Z = _symbols("t z")
    if K == QQ:
        root = CRootOf(q.as_expr(), 0)
        K2 = QQ.algebraic_field(root)
        return K2, K2.convert, K2.from_sympy(root)

    mod = K.mod.to_list()                  # alpha's minpoly, descending QQ list
    m_expr = sum(c * _T ** k for k, c in enumerate(reversed(mod)))
    # q with alpha written as t: coefficients are ANP with QQ lists
    q_tv: dict[tuple[int, int], object] = {}
    for (k,), c in q.rep.to_dict().items():
        for power, cc in enumerate(reversed(c.to_list())):
            if cc:
                q_tv[(power, k)] = q_tv.get((power, k), 0) + cc

    def q_expr_in(vsym):
        return sum(c * _T ** it * vsym ** iv for (it, iv), c in q_tv.items())

    s = 1
    while True:
        shifted = q_expr_in(_Z - s * _T)
        r = sympy.resultant(m_expr, sympy.expand(shifted), _T)
        rp = Poly(r, _Z, domain=QQ)
        if rp.gcd(rp.diff(_Z)).degree() == 0:
            break
        s += 1
        if s > 40:
            raise RuntimeError("no square-free primitive-element resultant")
    for factor, _ in rp.factor_list()[1]:
        root = CRootOf(factor.as_expr(), 0)
        K2 = QQ.algebraic_field(root)
        delta = K2.from_sympy(root)
        m_over = Poly(m_expr, _T, domain=K2)
        for lin, _m in m_over.factor_list()[1]:
            if lin.degree() != 1:
                continue
            alpha2 = _linear_root(lin, K2)
            gamma2 = delta - K2.convert(s) * alpha2
            value = K2.zero
            for (it, iv), c in q_tv.items():
                value += K2.convert(c) * alpha2 ** it * gamma2 ** iv
            if value == K2.zero:
                def phi(c, _a=alpha2, _K2=K2):
                    acc = _K2.zero
                    for cc in c.to_list():
                        acc = acc * _a + _K2.convert(cc)
                    return acc
                return K2, phi, gamma2
    raise RuntimeError("primitive element search failed")   # unreachable


# -- the engine ---------------------------------------------------------------

class _Engine:
    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self.nodes: list[ResolutionNode] = []

    def blow_up(self, g: dict, g_red: dict, K, xa: Optional[ResolutionNode],
                ya: Optional[ResolutionNode], where: str) -> None:
        if self.count >= self.limit:
            raise DepthExceededError(self.limit)
        self.count += 1
        m, m_red = _mult(g), _mult(g_red)
        parents = tuple(p for p in (xa, ya) if p is not None)
        node = ResolutionNode(
            index=len(self.nodes) + 1,
            a=1 + sum(p.a for p in parents),
            b=m + sum(p.b for p in parents),
            parents=parents,
            site=where)
        self.nodes.append(node)

        g_a, g_a_red = _chart_a(g, m), _chart_a(g_red, m_red)
        g_b = _chart_b(g, m)

        # chart B: only its origin is new; visit when the curve passes through
        if (0, 0) not in g_b:
            self.process(g_b, _chart_b(g_red, m_red), K, xa, node,
                         where + " / chart B origin")

        # chart A: bad points along the new exceptional line {x = 0}
        r = _restrict_to_x0(g_a_red, K)
        assert not r.is_zero, "exceptional line cannot be a component"
        through_origin = (0, 0) not in g_a
        origin_needed = ya is not None and through_origin
        if r.degree() >= 1:
            bad = r.gcd(r.diff(_symbols("v")))
            for q, _m in bad.factor_list()[1]:
                if q.degree() == 1:
                    v0 = _linear_root(q, K)
                    if v0 == K.zero:
                        origin_needed = True
                        continue
                    self.process(_translate_y(g_a, K, v0),
                                 _translate_y(g_a_red, K, v0), K, node, None,
                                 where + f" / chart A at y={K.to_sympy(v0)}")
                else:
                    K2, phi, gamma = _extend_field(K, q)
                    self.process(
                        _translate_y(_map_coeffs(g_a, phi), K2, gamma),
                        _translate_y(_map_coeffs(g_a_red, phi), K2, gamma),
                        K2, node, None,
                        where + f" / chart A at root of {q.as_expr()}")
        if origin_needed:
            self.process(g_a, g_a_red, K, node, ya, where + " / chart A origin")

    def process(self, g: dict, g_red: dict, K, xa: Optional[ResolutionNode],
                ya: Optional[ResolutionNode], where: str) -> None:
        """Decide SNC at a site on at least one exceptional axis."""
        if (0, 0) in g_red:
            return   # curve misses the point; axes alone are normal crossings
        if xa is not None and ya is not None:
            self.blow_up(g, g_red, K, xa, ya, where)   # curve + two axes
            return
        if _mult(g_red) >= 2:
            self.blow_up(g, g_red, K, xa, ya, where)   # singular reduced curve
            return
        # smooth reduced curve on one axis: transverse iff the linear part
        # involves the non-axis variable
        key = (0, 1) if xa is not None else (1, 0)
        if key not in g_red:
            self.blow_up(g, g_red, K, xa, ya, where)   # tangent to the axis
            return


def _qq_poly(terms: dict) -> Poly:
    """An exponent dict over Fraction as a sympy Poly in x, y over QQ."""
    from sympy import QQ, Poly
    return Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items()},
                          *_symbols("x y"), domain=QQ)


def _int_terms(p: Poly) -> dict:
    return {e: int(c) for e, c in p.rep.to_dict().items()}


def _order(terms: dict) -> int:
    """Order at the origin, 0 when the polynomial misses it."""
    return 0 if (0, 0) in terms else _mult(terms)


def _splits_transversally(terms: dict) -> bool:
    """Does the tangent cone a*x^2 + b*x*y + c*y^2 of an integer polynomial
    of order 2 split into two distinct rational lines, b^2 - 4ac a nonzero
    square?"""
    a, b, c = (terms.get(e, 0) for e in ((2, 0), (1, 1), (0, 2)))
    disc = b * b - 4 * a * c
    return disc > 0 and isqrt(disc) ** 2 == disc


def _components_of(f: CurveGerm) -> tuple[tuple[Component, ...], dict]:
    """The components of f, and their reduced product over QQ.

    f = c * prod p_i^i is the square-free decomposition, computed over ZZ
    after clearing denominators (over QQ sympy converts to ZZ inside every
    gcd), and the reduced germ is prod p_i.  A part
    p_i is factored only where an output reads its irreducible factors (see
    Component); the factors of one part keep sympy's factor_list order, which
    is their order within multiplicity i in the factorization of f.
    """
    from sympy import ZZ, Poly
    terms = f.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    _c, parts = Poly.from_dict({e: int(c * scale) for e, c in terms.items()},
                               *_symbols("x y"), domain=ZZ).sqf_list()
    part_terms = [_int_terms(part) for part, _i in parts]
    reduced_order = sum(_order(t) for t in part_terms)
    out = []
    for (part, i), t in zip(parts, part_terms):
        order = _order(t)
        split = order and (i >= 2 or f.multiplicity == 1 or (
            order == reduced_order == 2 and _splits_transversally(t)))
        pieces = [_int_terms(q) for q, _ in part.factor_list()[1]] if split \
            else [t]
        out += [Component(tuple((e, Fraction(c)) for e, c in piece.items()),
                          i, _order(piece)) for piece in pieces]
    reduced = functools.reduce(operator.mul, (part for part, _i in parts))
    return tuple(out), reduced.to_field().rep.to_dict()


def _snc_at_origin(components: tuple[Component, ...]) -> bool:
    """Normal crossings at 0 without any blow-up, judged on the components;
    the parts left whole cannot change the verdict (see Component)."""
    through = [c for c in components if c.through_origin]
    if any(c.mult_at_origin != 1 for c in through) or len(through) > 2:
        return False
    if len(through) == 2:
        lins = []
        for c in through:
            t = dict(c.coeffs)
            lins.append((t.get((1, 0), Fraction(0)), t.get((0, 1), Fraction(0))))
        (a1, b1), (a2, b2) = lins
        return a1 * b2 - a2 * b1 != 0   # proportional tangents need a blow-up
    return True


def resolve_germ(f: CurveGerm, max_blowups: Optional[int] = None) -> Resolution:
    """Resolve until the total transform is SNC near the origin fiber."""
    from sympy import QQ
    limit = blowup_limit(max_blowups)
    components, g0_red = _components_of(f)
    engine = _Engine(limit)
    if not _snc_at_origin(components):
        g0 = {e: QQ.convert(c) for e, c in f.coeffs}
        engine.blow_up(g0, g0_red, QQ, None, None, "origin")
    return Resolution(tuple(engine.nodes), components, engine.count)
