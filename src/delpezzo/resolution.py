"""Embedded resolution of plane-curve germs by iterated point blow-ups.

The engine tracks, for every exceptional divisor E it creates, the

    a_E  discrepancy      (1 at a smooth ambient point, 1 + sum over the
                           exceptional divisors through the blown-up point)
    b_E  vanishing order  (sum of i * mult(p) over the site's components,
                           plus the parents' orders)

of standard point-blow-up bookkeeping.  Work happens in local charts: a site
is a germ in coordinates (x, y) over a field K, where either coordinate axis
may be (the strict transform of) an exceptional divisor.  Blowing up maps a
site into chart A (x, y) -> (x, x*y), which keeps the old {y=0} axis, and
chart B (x, y) -> (x*y, y), which keeps the old {x=0} axis; the new
exceptional divisor is {x=0} in chart A and {y=0} in chart B.

A site's state is the list of the germ's components through the point: the
strict transform p of each factor of f = c * prod p^i, with its multiplicity
i.  The root takes the components of the square-free decomposition (see
Component); each site after that takes the strict transforms of its parent's
components, and drops those that miss the point, which are units there.  In
characteristic 0 the components stay square-free and pairwise coprime: a
chart map is an isomorphism once x (or y) is inverted and the strict
transform is not divisible by the new exceptional coordinate, a translation
is an automorphism, and a square-free polynomial over K stays square-free
over any extension of K.

One normal-crossings rule decides every site, the root included: blow up
unless the components and exceptional axes through the point are at most
two smooth branches with distinct tangents.  Points needing further
blow-ups are located along the new exceptional line only: multiple roots of
the product r of the components' restrictions to that line (tangency,
singular point, or several branches), plus the chart origins when a triple
intersection with an old axis occurs.  Those roots come from the monic
gcd(r, r'), so no constant factor of r shows.  Roots that are irrational are
handled by extending K; conjugate points yield identical (a, b) data, so one
representative per irreducible factor is blown up and the cluster shares a
single node.

K is always QQ or an absolute algebraic extension QQ(theta), built from the
irreducible polynomial in hand, so no minimal polynomial is recomputed.
One chain per field finds those roots.  Over QQ: modp, whose one irreducible
factor of degree 2 or 3 gives the engine's own field (numfield), then
sympy.  Over a NumberField K: Euclid's gcd(r, r'), which decides r when it
is constant or a power of one linear factor besides the root 0, then a
switch of the site and the sites under it to sympy's copy of K (see
_sympy_copy), whose power basis is K's.  Over sympy's fields: sympy, which
flattens towers back to absolute fields with Trager's square-free norm (see
_extend_field).  A site over an own field is printed by sympy, in that
copy, only when an output reads it (see ResolutionNode.site).

resolve_germ resolves each live germ once.  A germ's resolution depends on
the germ alone, so the Resolution it returns is kept, keyed by the
(frozen, hashable) CurveGerm, until that germ is garbage-collected: equal
germs share one entry, and blowup_lct followed by check_mult_bounds on one
germ runs the engine once.  Every node and component of a kept Resolution is
frozen, so its callers cannot alter what the next caller reads.

Sites over QQ (K is _RATIONALS) hold primitive integer polynomials, as a
site matters only up to a nonzero constant (see _translate_y), and every
site reads its line as one dense list (see _restriction).  Over QQ both
questions are first put modulo the prime P = 2^61 - 1 (see modp).  A germ
certified square-free there is its own one part of multiplicity 1, and so
is the rest h of a germ x^a * y^b * h whose h is certified: its parts are
then known by multiplicity, and sympy's sqf_list does not run.  The axes
are irreducible, and modp.irreducible_xy proves the rest of a part
irreducible where an output reads its factors (see Component).  Labels are
printed by poly.expr_text, as sympy prints them.  At a site over QQ,
modp.multiple_roots reduces the line once and proves its multiple roots, in
the order sympy's factor_list would give, when they are rational, or when
besides the root 0 they are the roots of one irreducible factor of degree 2
or 3, which gives the own field.  What modp does not prove, sympy's
factor_list decides (see _factor_gcd).

So sympy is imported, on first use and never with this module, only for:
sqf_list of a germ that is not certified reduced after its axis factors are
divided out, such as (y^2 - x^3)^2*(x + y); factor_list of a part that an
output reads and whose rest modp does not prove irreducible; a site that
modp or Euclid leaves undecided (a rational root modp does not prove, a
factor of degree 4 or more, several irreducible factors, roots over K
beyond one linear factor) and the sites under it; and printing a site over
a number field.  A germ that needs none of these, such as y^2 - x^3,
x^2*y^3 - y^5, (2*y - 3*x)^2 - x^3 or (y^2 - 2*x^2)^2 - x^5 with its sites
at the roots of v^2 - 2, is resolved without it.
"""

from __future__ import annotations

import functools
import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional

from . import modp, poly
from .germs import CurveGerm

if TYPE_CHECKING:
    from sympy import Poly

    from .numfield import NumberField


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
    """Raised when a blow-up budget is not a count."""


def blowup_limit() -> int:
    """The budget: the environment variable, else DEFAULT_MAX_BLOWUPS.  A
    value that is not a count raises, so a bad budget is never mistaken for
    an exhausted one."""
    raw = os.environ.get(MAX_BLOWUPS_ENV)
    if raw is None:
        return DEFAULT_MAX_BLOWUPS
    try:
        limit = int(raw)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise BlowupBudgetSettingError(
        f"{MAX_BLOWUPS_ENV} must be a non-negative integer, got {raw!r}")


@dataclass(frozen=True, eq=False)
class ResolutionNode:
    """One exceptional divisor (a conjugate cluster shares one node)."""

    index: int
    a: int
    b: int
    parents: tuple["ResolutionNode", ...]
    #: the site's steps: text, or a cached call that prints one with sympy
    _path: tuple

    @property
    def site(self) -> str:
        """Where the node was blown up, printed when asked for."""
        return _site(self._path)

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
    """A primitive factor over ZZ of f = c * prod p_i^i, with multiplicity i.

    A square-free part p_i is split into its irreducible factors over QQ only
    when an output reads them: when p_i passes through the origin and i >= 2
    (the blow-up witness 1/i and the equality certificate of lct = 1/k), when
    f is smooth at the origin (its certificate), and when p_i carries all of
    the reduced germ's order 2 at the origin with a tangent cone that splits
    into two distinct rational lines (two rational branches crossing
    normally).  Every other part stays whole: one that misses the origin, or
    one of order 1 there (a single smooth branch times a unit, with that
    branch's tangent), or one that cannot pass the normal-crossings test.
    The factors are the axes x and y that divide p_i, and the rest once modp
    proves it irreducible; sympy's factor_list splits any other rest (see
    _factors).
    """

    coeffs: tuple[tuple[tuple[int, int], int], ...]
    multiplicity: int
    mult_at_origin: int   # 0 when the component misses the origin

    @property
    def label(self) -> str:
        """The factor as sympy prints it (see poly.expr_text), built only
        when asked for."""
        return poly.expr_text(dict(self.coeffs), "xy")

    @property
    def through_origin(self) -> bool:
        return self.mult_at_origin > 0

    def __str__(self):
        return f"component {self.label} with multiplicity {self.multiplicity}"


@dataclass(frozen=True)
class Resolution:
    nodes: tuple[ResolutionNode, ...]
    #: the germ's components, which seeded the root site: irreducible where
    #: Component says an output reads them, whole square-free parts elsewhere
    components: tuple[Component, ...]
    blowups: int


# -- germ dictionaries over a field K --------------------------------------

#: K at a site over QQ, whose polynomial is a primitive integer one: the few
#: attributes of sympy's domain API that the engine reads.  Sites over a
#: number field take sympy's AlgebraicField.
_RATIONALS = SimpleNamespace(is_QQ=True, zero=0, one=1)


def _mult(g: dict) -> int:
    return min(i + j for i, j in g)


def _chart_a(g: dict, m: int) -> dict:
    # x -> x, y -> x*y, divide by x^m
    return {(i + j - m, j): c for (i, j), c in g.items()}


def _chart_b(g: dict, m: int) -> dict:
    # x -> x*y, y -> y, divide by y^m
    return {(i, i + j - m): c for (i, j), c in g.items()}


def _translate_y(g: dict, K, v0) -> dict:
    """g(x, y + v0) over K, by the binomial expansion
    c*x^i*y^j -> sum_t C(j, t) * v0^(j - t) * c*x^i*y^t.  Over QQ, for an
    integer g and v0 = n/d, v0^(j - t) is read as n^(j - t) * d^(D - j + t),
    D the top y-degree, which gives d^D * g(x, y + n/d); its content is
    divided out (von zur Gathen and Gerhard's scaled shift, ISSAC 1997)."""
    top = max(j for _i, j in g)
    n, d = (v0.numerator, v0.denominator) if K.is_QQ else (v0, 1)
    powers = [K.one]                    # powers[e] = n^e * d^(top - e)
    for _ in range(top):
        powers.append(powers[-1] * n)
    if d != 1:
        powers = [p * d ** (top - e) for e, p in enumerate(powers)]
    rows = {}                           # rows[j][t] = C(j, t) * powers[j - t]
    out = {}
    for (i, j), c in g.items():
        if j not in rows:
            rows[j] = [comb(j, t) * powers[j - t] for t in range(j + 1)]
        for t, w in enumerate(rows[j]):
            out[i, t] = out[i, t] + w * c if (i, t) in out else w * c
    out = {e: c for e, c in out.items() if c}
    if K.is_QQ:
        content = gcd(*out.values())
        out = {e: c // content for e, c in out.items()}
    return out


def _restriction(g: dict, K) -> list:
    """g(0, v) along the new exceptional line over K, constant term first."""
    line = {j: c for (i, j), c in g.items() if i == 0}
    assert line, "exceptional line cannot be a component"
    return [line.get(j, K.zero) for j in range(max(line) + 1)]


def _mul(a: list, b: list) -> list:
    """a * b, constant term first; no sum starts from an int."""
    out = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t = ai * bj
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def _multiple_roots(comps: list, K) -> Optional[tuple[list, list]]:
    """For r the product of the components' restrictions p(0, v) to the new
    line: the roots of the linear factors of the monic gcd(r, r') over K,
    and its other irreducible factors (see _factor_gcd).  Over QQ,
    modp.multiple_roots decides r where it proves the answer, and sympy the
    rest.  Over a NumberField, _roots_over decides r or returns None."""
    r = functools.reduce(_mul, (_restriction(p, K) for p, _i in comps))
    if K.is_QQ:
        if (found := modp.multiple_roots(r)) is not None:
            return found
    else:
        from .numfield import NumberField
        if type(K) is NumberField:
            roots = _roots_over(K, r)
            return None if roots is None else (roots, [])
    from sympy import QQ, Poly
    roots, factors = _factor_gcd(
        Poly(r[::-1], _symbols("v"), domain=QQ if K.is_QQ else K))
    if K.is_QQ:
        roots = [Fraction(int(c.numerator), int(c.denominator)) for c in roots]
    return roots, factors


def _roots_over(K: NumberField, r: list) -> Optional[list]:
    """The roots of the linear factors of the monic gcd(r, r') over K, when
    that gcd is v^a * (v - b)^c: the root 0 is read off r's low
    coefficients, and b off the gcd of the rest and its derivative.
    Anything else gives None."""
    from .numfield import monic_gcd
    low = next(k for k, c in enumerate(r) if c)
    roots = [K.zero] if low >= 2 else []
    r = r[low:]
    g = monic_gcd(r, [k * c for k, c in enumerate(r)][1:])
    e = len(g) - 1
    if e:
        root, power = g[e - 1] * Fraction(-1, e), K.one
        for k in reversed(range(e)):            # g = (v - root)^e?
            power = power * -root
            if g[k] != comb(e, k) * power:
                return None
        roots.append(root)
    return roots


def _factor_gcd(r: Poly) -> tuple[list, list]:
    """The irreducible factors of the monic gcd(r, r') in sympy's
    factor_list order, which lists the linear ones first: the roots of those,
    and the rest."""
    factors = [q for q, _m in r.gcd(r.diff(_symbols("v"))).factor_list()[1]]
    return ([_linear_root(q) for q in factors if q.degree() == 1],
            [q for q in factors if q.degree() > 1])


def _map_coeffs(g: dict, phi: Callable) -> dict:
    out = {}
    for e, c in g.items():
        v = phi(c)
        if v:
            out[e] = v
    return out


# -- field towers ------------------------------------------------------------

def _linear_root(factor: Poly):
    c1, c0 = factor.rep.to_list()
    return -c0 / c1


def _extend_field(K, q):
    """Adjoin a root of q, which must be irreducible over K.

    Returns (K2, phi, gamma) with phi an embedding K -> K2 and gamma in K2 a
    root of phi(q).  A q that modp has proven irreducible over QQ, a list of
    ints, gives a NumberField, with gamma its generator.  Otherwise q is a
    sympy Poly and K2 is sympy's.  Over QQ, q is scaled to the primitive integer form with
    positive leading coefficient that sympy's minimal_polynomial returns, so
    K2 = QQ.algebraic_field((q, root)), its modulus and gamma = K2.unit equal
    sympy's own QQ.algebraic_field(root), with no minimal-polynomial search.
    A tower over K = QQ(alpha) is flattened by Trager's square-free norm:
    r = Norm(g) for g(v) = q(v - s*alpha) is square-free, hence irreducible
    over QQ; K2 = QQ(delta) for a root delta of r, alpha maps to the single
    root of gcd(minpoly_alpha(t), g(delta) with alpha read as t), and
    gamma = delta - s*alpha.
    """
    if type(q) is list:
        from .numfield import NumberField
        K2 = NumberField(q)
        return K2, K2.convert, K2.unit
    from sympy import QQ, CRootOf, Poly
    from sympy.polys.sqfreetools import dup_sqf_norm
    if K.is_QQ:
        q = q.monic().clear_denoms()[1]     # primitive over ZZ, LC > 0
        K2 = QQ.algebraic_field((q, CRootOf(q.as_expr(), 0)))
        return (K2, lambda c: K2.convert_from(QQ(c.numerator, c.denominator), QQ),
                K2.unit)

    s, g, r = dup_sqf_norm(q.rep.to_list(), K)
    K2, _, delta = _extend_field(_RATIONALS, Poly(r, _symbols("z"), domain=QQ))

    def in_t(c):   # c in K (or alpha's minpoly) with alpha written as t
        return Poly([K2.convert(cc) for cc in c.to_list()], _symbols("t"), domain=K2)

    g_delta = in_t(K.zero)
    for c in g:
        g_delta = g_delta.mul_ground(delta) + in_t(c)
    common = in_t(K.mod).gcd(g_delta)
    assert common.degree() == 1, "the norm of g is square-free"
    alpha2 = _linear_root(common)

    def phi(c):
        acc = K2.zero
        for cc in c.to_list():
            acc = acc * alpha2 + K2.convert(cc)
        return acc
    return K2, phi, delta - K2.convert(s) * alpha2


# -- the engine ---------------------------------------------------------------

#: sympy's copy of each NumberField whose sites an output has printed, as
#: _extend_field returns it: (K2, phi, gamma)
_sympy_fields: "weakref.WeakKeyDictionary[NumberField, tuple]" = \
    weakref.WeakKeyDictionary()


def _sympy_copy(K: NumberField):
    """sympy's AlgebraicField for K, which _extend_field builds from K's
    polynomial and root as the sympy path builds it, and the map from K into
    it: both fields use the power basis of that root."""
    copy = _sympy_fields.get(K)
    if copy is None:
        copy = _sympy_fields[K] = _extend_field(_RATIONALS, _qq_univariate(K.q))
    K2, phi, gamma = copy

    def convert(v0):
        value = K2.zero
        for c in reversed(v0.c):
            value = value * gamma + phi(c)
        return value
    return K2, convert


def _qq_univariate(q: list) -> Poly:
    """An integer list, constant term first, as a sympy Poly in v over QQ."""
    from sympy import QQ, Poly
    return Poly(q[::-1], _symbols("v"), domain=QQ)


def _site(path: tuple) -> str:
    return " / ".join(s if type(s) is str else s() for s in path)


def _at_y(K, v0):
    """The step of a site at y = v0: its text, or over a NumberField a call
    that prints it with sympy (see ResolutionNode._path)."""
    if K.is_QQ:
        return f"chart A at y={v0}"
    from .numfield import NumberField
    if type(K) is not NumberField:
        return f"chart A at y={K.to_sympy(v0)}"

    def render():
        K2, convert = _sympy_copy(K)
        return f"chart A at y={K2.to_sympy(convert(v0))}"
    return functools.cache(render)


def _at_root(q):
    """The step of a site at a root of q, likewise."""
    if type(q) is not list:
        return f"chart A at root of {q.as_expr()}"
    return functools.cache(lambda: f"chart A at root of {_qq_univariate(q).as_expr()}")


class _Engine:
    def __init__(self, limit: int):
        self.limit = limit
        self.nodes: list[ResolutionNode] = []

    def blow_up(self, comps: list, K, xa: Optional[ResolutionNode],
                ya: Optional[ResolutionNode], where: tuple) -> None:
        if len(self.nodes) >= self.limit:
            raise DepthExceededError(self.limit)
        mults = [_mult(p) for p, _i in comps]
        parents = tuple(p for p in (xa, ya) if p is not None)
        node = ResolutionNode(
            index=len(self.nodes) + 1,
            a=1 + sum(p.a for p in parents),
            b=sum(i * m for (_p, i), m in zip(comps, mults))
            + sum(p.b for p in parents),
            parents=parents,
            _path=where)
        self.nodes.append(node)

        comps_a = [(_chart_a(p, m), i) for (p, i), m in zip(comps, mults)]
        comps_b = [(_chart_b(p, m), i) for (p, i), m in zip(comps, mults)]

        # chart B: only its origin is new
        self.process(comps_b, K, xa, node, where + ("chart B origin",))

        # chart A: bad points along the new exceptional line {x = 0}
        origin_needed = ya is not None
        found = _multiple_roots(comps_a, K)
        if found is None:   # a NumberField site moves to sympy's copy of K
            K, convert = _sympy_copy(K)
            comps_a = [(_map_coeffs(p, convert), i) for p, i in comps_a]
            found = _multiple_roots(comps_a, K)
        roots, factors = found
        for v0 in roots:
            if v0 == K.zero:
                origin_needed = True
                continue
            self.process([(_translate_y(p, K, v0), i) for p, i in comps_a],
                         K, node, None, where + (_at_y(K, v0),))
        for q in factors:
            K2, phi, gamma = _extend_field(K, q)
            self.process(
                [(_translate_y(_map_coeffs(p, phi), K2, gamma), i)
                 for p, i in comps_a], K2, node, None, where + (_at_root(q),))
        if origin_needed:
            self.process(comps_a, K, node, ya, where + ("chart A origin",))

    def process(self, comps: list, K, xa: Optional[ResolutionNode],
                ya: Optional[ResolutionNode], where: tuple) -> None:
        """Blow up unless the components and exceptional axes through the
        point are at most two smooth branches with distinct tangents."""
        comps = [(p, i) for p, i in comps if (0, 0) not in p]   # drop units
        if any(_mult(p) > 1 for p, _i in comps):
            self.blow_up(comps, K, xa, ya, where)
            return
        # the branches' linear forms: the axis {x=0} is x, {y=0} is y
        lines = [(p.get((1, 0), K.zero), p.get((0, 1), K.zero))
                 for p, _i in comps]
        lines += [(K.one, K.zero)] * (xa is not None) \
            + [(K.zero, K.one)] * (ya is not None)
        if len(lines) > 2 or (len(lines) == 2 and lines[0][0] * lines[1][1]
                              == lines[0][1] * lines[1][0]):
            self.blow_up(comps, K, xa, ya, where)


def qq_poly(terms: dict) -> Poly:
    """A rational exponent dict as a sympy Poly in x, y over QQ."""
    from sympy import QQ, Poly
    return Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items()},
                          *_symbols("x y"), domain=QQ)


def _zz_poly(terms: dict) -> Poly:
    """An exponent dict over int as a sympy Poly in x, y over ZZ."""
    from sympy import ZZ, Poly
    return Poly.from_dict(terms, *_symbols("x y"), domain=ZZ)


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


def _primitive(terms: dict) -> dict:
    """An integer polynomial over the gcd of its coefficients, signed so that
    its lex-leading coefficient (at max(terms): highest x power, then highest
    y) is positive, its terms in sympy's to_dict order.  This is the one part
    sympy's dmp_sqf_list gives a square-free polynomial."""
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return {e: terms[e] // g for e in sorted(terms)}


def _axes(terms: dict) -> tuple[int, int, dict]:
    """(a, b, h) with terms = x^a * y^b * h, h divisible by neither x nor y."""
    a = min(i for i, _j in terms)
    b = min(j for _i, j in terms)
    return a, b, {(i - a, j - b): c for (i, j), c in terms.items()}


def _square_free_parts(ints: dict) -> list[tuple[dict, int]]:
    """The parts (p_i, i) of ints = c * prod p_i^i, as sympy's sqf_list gives
    them: by multiplicity, each primitive with a positive lex-leading
    coefficient (see _primitive).

    ints certified square-free modulo P (see modp) is its own one part.  Else
    ints = x^a * y^b * h (see _axes), and when h is certified, h is
    square-free and prime to x and y, so the parts are h times the axes of
    multiplicity 1, then x and y at multiplicities a and b, as the one part
    x*y when a = b.  Only otherwise does sympy's sqf_list run.
    """
    if modp.certifies_xy(ints):
        return [(_primitive(ints), 1)]
    a, b, h = _axes(ints)
    if (a or b) and modp.certifies_xy(h):
        one = {(i + (a == 1), j + (b == 1)): c for (i, j), c in h.items()}
        parts = [] if len(h) == 1 and 1 not in (a, b) else [(_primitive(one), 1)]
        return parts + [({(int(a == m), int(b == m)): 1}, m)
                        for m in sorted({a, b} - {0, 1})]
    return [(_int_terms(part), i) for part, i in _zz_poly(ints).sqf_list()[1]]


def _dense_key(terms: dict) -> tuple:
    """sympy's _sort_factors key of a factor of multiplicity 1, less the
    multiplicity: deg_x + 1, then the dense rep, the rows in x from the top,
    each its y coefficients from the top."""
    top = max(i for i, _j in terms)
    rows = [[] for _ in range(top + 1)]
    for (i, j), c in terms.items():
        row = rows[top - i]
        row += [0] * (j + 1 - len(row))
        row[j] = c
    return len(rows), [row[::-1] for row in rows]


def _factors(t: dict) -> list[dict]:
    """The irreducible factors over ZZ of a square-free part t, in sympy's
    factor_list order: x and y where they divide t, and the rest h (see
    _axes) once modp.irreducible_xy proves it irreducible, sorted by
    _dense_key.  A rest it does not prove goes to sympy's factor_list."""
    a, b, h = _axes(t)
    pieces = [{(1, 0): 1}] * a + [{(0, 1): 1}] * b
    if len(h) > 1:
        if not modp.irreducible_xy(h):
            return [_int_terms(q) for q, _ in _zz_poly(t).factor_list()[1]]
        pieces.append(h)
    return sorted(pieces, key=_dense_key)


def _components_of(f: CurveGerm) -> tuple[Component, ...]:
    """The components of f, which also seed the root site of the engine.

    f = c * prod p_i^i is the square-free decomposition, computed over ZZ
    after clearing denominators (over QQ sympy converts to ZZ inside every
    gcd), by _square_free_parts: from certificates mod P (see modp) when f,
    or f less its axis factors x^a * y^b, is certified square-free, and by
    sympy's sqf_list otherwise.  By Gauss's lemma a repeated factor of f
    over QQ is one over ZZ, and the certificate excludes those.  A part p_i
    is factored only where an output reads its irreducible factors (see
    Component), by _factors; the factors of one part keep sympy's
    factor_list order, which is their order within multiplicity i in the
    factorization of f.
    """
    terms = f.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * scale) for e, c in terms.items()}
    parts = _square_free_parts(ints)
    reduced_order = sum(_order(t) for t, _i in parts)
    out = []
    for t, i in parts:
        order = _order(t)
        split = order and (i >= 2 or f.multiplicity == 1 or (
            order == reduced_order == 2 and _splits_transversally(t)))
        pieces = _factors(t) if split else [t]
        out += [Component(tuple(piece.items()), i, _order(piece))
                for piece in pieces]
    return tuple(out)


#: the Resolution of every live germ resolve_germ has resolved; an entry goes
#: when its germ is garbage-collected
_resolved: "weakref.WeakKeyDictionary[CurveGerm, Resolution]" = \
    weakref.WeakKeyDictionary()


def resolve_germ(f: CurveGerm) -> Resolution:
    """Resolve until the total transform is SNC near the origin fiber.

    The engine runs once per live germ, each site on the chain of its field
    (see the module docstring); a later call on f, or on a germ equal to it,
    returns the same Resolution.  The budget means the same either way: it
    is checked on every call, and a kept resolution that needed more
    blow-ups than it allows raises DepthExceededError, as the engine does.
    A run that raises keeps nothing.
    """
    limit = blowup_limit()
    res = _resolved.get(f)
    if res is None:
        components = _components_of(f)
        seeds = [(dict(comp.coeffs), comp.multiplicity) for comp in components]
        engine = _Engine(limit)
        engine.process(seeds, _RATIONALS, None, None, ("origin",))
        nodes = tuple(engine.nodes)
        res = _resolved[f] = Resolution(nodes, components, len(nodes))
    elif res.blowups > limit:
        raise DepthExceededError(limit)
    return res
