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
the product v^low * r, r(0) != 0, of the components' restrictions to that
line (tangency, singular point, or several branches), plus the chart origins
when a triple intersection with an old axis occurs.  The origin v = 0 is
read once, off low (a multiple root when low >= 2), and the other roots come
from the monic gcd(r, r'), so no constant factor of r shows.  Roots that are
irrational are handled by extending K; conjugate points yield identical
(a, b) data, so one representative per irreducible factor is blown up and
the cluster shares a single node.

K is always QQ or an absolute algebraic extension QQ(theta), the engine's
own numfield.NumberField, built from the irreducible polynomial in hand, so
no minimal polynomial is recomputed.  A line is decided by modp over QQ,
whose one proven irreducible factor gives a NumberField, and by Euclid's
gcd(r, r') over a NumberField K, which decides r when it is constant or a
power of one linear factor.  sympy's factor_list decides
what they leave, in sympy's copy of K, whose power basis is K's (see
_sympy_copy), and its factors are read back into K.  A factor of degree 2
or more over K != QQ gives a tower, flattened to an absolute NumberField by
Trager's square-free norm (see _extend_field).  A site over a NumberField
is printed by sympy, in its copy of K, only when an output reads it (see
ResolutionNode.site).

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
x^a * y^b * h whose rest h is certified square-free there has its parts
known by multiplicity (the germ itself, once, when a, b <= 1), and sympy's
sqf_list does not run.  The axes are irreducible, and modp.irreducible_xy
proves the rest of a part irreducible where an output reads its factors (see
Component).  Labels, and the steps of sites over QQ, are printed by
poly.expr_text, as sympy prints them.  At a site over QQ,
modp.multiple_roots reduces the line once and proves its multiple roots, in
the order sympy's factor_list would give, when they are rational, or when
they are the roots of one irreducible factor, which gives the own field.
What modp does not prove, sympy's factor_list decides (see _factor_gcd).

So sympy is imported, on first use and never with this module, only for:
sqf_list of a germ that is not certified reduced after its axis factors are
divided out, such as (y^2 - x^3)^2*(x + y); factor_list of a part that an
output reads and whose rest modp does not prove irreducible; factor_list of
a line that modp or Euclid leaves undecided (a rational root modp does not
prove, several irreducible factors, roots over K beyond one linear
factor); the square-free norm of a tower; and printing a site over a
number field.  A germ that needs none of these, such as y^2 - x^3,
x^2*y^3 - y^5, (2*y - 3*x)^2 - x^3, (y^2 - 2*x^2)^2 - x^5 with its sites
at the roots of v^2 - 2, or (y^4 - 2*x^4)^2 - x^9, is resolved without it.
"""

from __future__ import annotations

import functools
import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

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
    #: the site's steps: text, or a cached call that prints one
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
#: attributes of a field that the engine reads.  Sites over a number field
#: take a numfield.NumberField.
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


def _multiple_roots(comps: list, K) -> tuple[bool, list, list]:
    """For v^low * r the product of the components' restrictions p(0, v) to
    the new line, r(0) != 0: whether the origin v = 0 is a multiple root,
    low >= 2, then the roots of the linear factors of the monic gcd(r, r')
    over K, and its other irreducible factors.  modp.multiple_roots over QQ,
    or _roots_over over a NumberField, decides r where it proves the answer,
    and sympy the rest (see _factor_gcd)."""
    r = functools.reduce(_mul, (_restriction(p, K) for p, _i in comps))
    low = next(k for k, c in enumerate(r) if c)
    r = r[low:]
    found = modp.multiple_roots(r) if K.is_QQ else _roots_over(K, r)
    return (low >= 2, *(found or _factor_gcd(r, K)))


def _roots_over(K: NumberField, r: list) -> Optional[tuple[list, list]]:
    """The roots of the linear factors of the monic gcd(r, r') over K, for r
    with r(0) != 0, and no other factor, when that gcd is 1 or (v - b)^c: b
    is read off its second coefficient.  Anything else gives None."""
    from .numfield import monic_gcd
    g = monic_gcd(r, [k * c for k, c in enumerate(r)][1:])
    e = len(g) - 1
    if not e:
        return [], []
    root, power = g[e - 1] * Fraction(-1, e), K.one
    for k in reversed(range(e)):                # g = (v - root)^e?
        power = power * -root
        if g[k] != comb(e, k) * power:
            return None
    return [root], []


def _factor_gcd(r: list, K) -> tuple[list, list]:
    """The irreducible factors of the monic gcd(r, r') over K, r(0) != 0, by
    sympy's factor_list in sympy's copy of K, in its order, which lists the
    linear ones first: the roots of those, and the rest, read back into K
    (over QQ as primitive integer lists, see _primitive_ints)."""
    from sympy import Poly
    domain, into, back = _sympy_copy(K)
    r = Poly([into(c) for c in reversed(r)], _symbols("v"), domain=domain)
    factors = [q for q, _m in r.gcd(r.diff()).factor_list()[1]]
    roots = [back(-c0 / c1) for c1, c0 in
             (q.rep.to_list() for q in factors if q.degree() == 1)]
    rest = [_primitive_ints(q) if K.is_QQ
            else [back(c) for c in reversed(q.rep.to_list())]
            for q in factors if q.degree() > 1]
    return roots, rest


# -- field towers ------------------------------------------------------------

def _extend_field(K, q: list):
    """Adjoin a root of q (constant term first), which must be irreducible
    over K.

    Returns (K2, phi, gamma): a NumberField K2, the embedding phi: K -> K2
    and gamma in K2 a root of phi(q).  Over QQ, q is a primitive integer
    list with positive top coefficient, and gamma is the generator of
    K2 = QQ(gamma).  A tower over K = QQ(alpha), q a list of K's elements,
    is flattened by Trager's square-free norm, which sympy computes in its
    copy of K: r = Norm(g) for g(v) = q(v - s*alpha) is square-free, hence
    irreducible over QQ; K2 = QQ(delta) for a root delta of r, alpha maps to
    the single root of gcd(minpoly_alpha(t), g(delta) with alpha read as t),
    and gamma = delta - s*alpha.  Its sympy copy is built at once, from r
    in the variable z, in which its sites are printed (see _sympy_copy).
    """
    from .numfield import NumberField, monic_gcd
    if K.is_QQ:
        K2 = NumberField(q)
        return K2, K2.convert, K2.unit
    from sympy import QQ, Poly
    from sympy.polys.sqfreetools import dup_sqf_norm
    domain, into, back = _sympy_copy(K)
    s, g, r = dup_sqf_norm([into(c) for c in reversed(q)], domain)
    r = _primitive_ints(Poly(r, _symbols("z"), domain=QQ))
    K2 = NumberField(r)
    _sympy_copy(K2, "z")
    delta, g_delta = K2.unit, [K2.zero] * K.n   # g(delta) in t, constant first
    for c in g:
        g_delta = [a * delta + K2.convert(b) for a, b in zip(g_delta, back(c).c)]
    common = monic_gcd([K2.convert(c) for c in K.q], g_delta)
    assert len(common) == 2, "the norm of g is square-free"
    alpha2 = -common[0]

    def phi(c):
        acc = K2.zero
        for cc in reversed(c.c):
            acc = acc * alpha2 + K2.convert(cc)
        return acc
    return K2, phi, delta - alpha2 * s


def _primitive_ints(q: Poly) -> list[int]:
    """A sympy Poly over QQ as the primitive integer list with positive top
    coefficient, constant term first, that q.monic().clear_denoms() gives."""
    return [int(c) for c in reversed(q.monic().clear_denoms()[1].rep.to_list())]


def _rational(c):
    """A sympy rational as an int, or as a Fraction when it is none."""
    n, d = int(c.numerator), int(c.denominator)
    return n if d == 1 else Fraction(n, d)


# -- the engine ---------------------------------------------------------------

#: sympy's copy of each NumberField that sympy has factored over or printed,
#: and of each flattened field (see _extend_field)
_sympy_fields: "weakref.WeakKeyDictionary[NumberField, object]" = \
    weakref.WeakKeyDictionary()


def _sympy_copy(K, name: str = "v"):
    """(domain, into, back): sympy's copy of K with the maps from K's
    elements into it and back.  The copy of QQ is sympy's QQ, read back as
    ints and Fractions.  The copy of a NumberField is built once, from K's
    polynomial q in the variable name and the root theta = CRootOf(q, 0):
    its modulus and unit equal those of sympy's own
    QQ.algebraic_field(theta), with no minimal-polynomial search, and it
    uses the power basis of that root, as K does.  theta is built as
    CRootOf builds it but over QQ, apart in sympy's cache from any root that
    CRootOf builds over ZZ from q in another variable."""
    from sympy import QQ, CRootOf, Poly, PurePoly
    from sympy.polys.polyroots import preprocess_roots
    if K.is_QQ:
        return QQ, lambda c: QQ(c.numerator, c.denominator), _rational
    from .numfield import Number
    domain = _sympy_fields.get(K)
    if domain is None:
        q = Poly(K.q[::-1], _symbols(name), domain=QQ)
        scale, p = preprocess_roots(PurePoly(q))
        root = scale * CRootOf._new(p.to_field(), 0)
        domain = _sympy_fields[K] = QQ.algebraic_field((q, root))

    def into(a):
        return domain([QQ(c.numerator, c.denominator) for c in reversed(a.c)])

    def back(a):
        c = [_rational(cc) for cc in reversed(a.to_list())]
        return Number(K, tuple(c + [0] * (K.n - len(c))))
    return domain, into, back


def _site(path: tuple) -> str:
    return " / ".join(s if type(s) is str else s() for s in path)


def _at_y(K, v0):
    """The step of a site at y = v0: its text over QQ, over a NumberField a
    call that prints it with sympy (see ResolutionNode._path)."""
    if K.is_QQ:
        return f"chart A at y={v0}"

    def render():
        domain, into, _back = _sympy_copy(K)
        return f"chart A at y={domain.to_sympy(into(v0))}"
    return functools.cache(render)


def _at_root(K, q: list):
    """The step of a site at a root of q over K, a call that prints q as
    sympy does: over QQ by poly.expr_text, else with sympy in its copy of K."""
    if K.is_QQ:
        terms = {(k,): c for k, c in enumerate(q) if c}
        return functools.cache(
            lambda: f"chart A at root of {poly.expr_text(terms, 'v')}")

    def render():
        from sympy import Poly
        domain, into, _back = _sympy_copy(K)
        q_k = Poly([into(c) for c in reversed(q)], _symbols("v"), domain=domain)
        return f"chart A at root of {q_k.as_expr()}"
    return functools.cache(render)


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
        origin, roots, factors = _multiple_roots(comps_a, K)
        for v0 in roots:
            self.process([(_translate_y(p, K, v0), i) for p, i in comps_a],
                         K, node, None, where + (_at_y(K, v0),))
        for q in factors:
            K2, phi, gamma = _extend_field(K, q)
            self.process(
                [(_translate_y({e: phi(c) for e, c in p.items()}, K2, gamma), i)
                 for p, i in comps_a], K2, node, None, where + (_at_root(K, q),))
        if origin or ya is not None:
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

    ints = x^a * y^b * h (see _axes), and when h is certified square-free
    modulo P (see modp), h is square-free and prime to x and y, so the parts
    are h times the axes of multiplicity 1, then x and y at multiplicities a
    and b, as the one part x*y when a = b (so ints itself when a, b <= 1).
    Only otherwise does sympy's sqf_list run.
    """
    a, b, h = _axes(ints)
    if modp.certifies_xy(h):
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
    gcd), by _square_free_parts: from a certificate mod P (see modp) when f
    less its axis factors x^a * y^b is certified square-free, and by sympy's
    sqf_list otherwise.  By Gauss's lemma a repeated factor of f over QQ is
    one over ZZ, and the certificate excludes those.  A part p_i is factored
    only where an output reads its irreducible factors (see Component), by
    _factors; the factors of one part keep sympy's factor_list order, which
    is their order within multiplicity i in the factorization of f.
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

    The engine runs once per live germ, each site over QQ or an own number
    field (see the module docstring); a later call on f, or on a germ equal
    to it, returns the same Resolution.  The budget means the same either
    way: it is checked on every call, and a kept resolution that needed more
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
