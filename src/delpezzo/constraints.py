"""Fourier-Motzkin solving, the multiplicity case systems and their text format.

A constraint is  sum(coeff * var) REL constant  with REL one of <=, <, =.
Everything here works on the primitive integer rows of `delpezzo.linalg`,
each scaled to integers once, on entry, with Fractions only at the boundary
(bounds, witness values).  Every elimination is linalg's one pivot step,
`cancel`, which clears a column and leaves a positive multiple of the row it
changes.  A variable that appears in an equality is eliminated by pivoting
on that equality; otherwise every upper row is combined with every lower
row, and strictness propagates through combinations (strict + anything =
strict).

`solve` builds one chain: prefix[k] is the system with the variables after
the k-th (declaration order) eliminated, last first, n - 1 eliminations in
all.  The system is feasible iff prefix[0] exists and bounds the first
variable.  A feasible system then reads each variable's bounds off one
divide-and-conquer tree of projections (`_projections`), whose leaf k is the
projection onto the k-th variable, through `_normalize`, with attainment
flags so that a supremum can be told apart from a maximum: n - 1 plus the
tree's eliminations come to 24 at n = 8, against 35 for one chain per
variable.  Forced values are bounds that coincide, and integrality is
checked on forced values of integer-flagged variables.  One pass over the
variables picks each witness value from prefix[k]'s rows with the earlier
witness values substituted, which eliminates nothing: FM with strictness is
an exact projection, so fixing the earlier variables commutes with
projecting the later ones away.  FM row growth depends on the order.

`parse_system` reads systems from text: it splits each constraint line at its
one relation and reads each side with `poly.parse` (degree cap 1); any error
names its line.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import poly
from .linalg import Row, cancel, dot, integral

LE = "<="
LT = "<"
EQ = "="


@dataclass
class LinearConstraint:
    """sum(coeffs[v] * v) rel rhs, with a provenance tag for audit."""

    coeffs: dict[str, Fraction]
    rel: str
    rhs: Fraction
    tag: str = ""

    def __post_init__(self):
        if self.rel not in (LE, LT, EQ):
            raise ValueError(f"relation must be one of <=, <, =; got {self.rel!r}")
        self.coeffs = {v: q for v, c in self.coeffs.items() if (q := poly.exact(c))}
        self.rhs = poly.exact(self.rhs)

    def evaluate(self, point: Mapping[str, Fraction]) -> bool:
        lhs = sum((c * point[v] for v, c in self.coeffs.items()), Fraction(0))
        if self.rel == LE:
            return lhs <= self.rhs
        if self.rel == LT:
            return lhs < self.rhs
        return lhs == self.rhs

    def __str__(self):
        lhs = poly.to_text((v, self.coeffs[v]) for v in sorted(self.coeffs))
        return f"{lhs or 0} {self.rel} {self.rhs}"


def le(coeffs, rhs, tag=""):
    return LinearConstraint(dict(coeffs), LE, rhs, tag)


def lt(coeffs, rhs, tag=""):
    return LinearConstraint(dict(coeffs), LT, rhs, tag)


def eq(coeffs, rhs, tag=""):
    return LinearConstraint(dict(coeffs), EQ, rhs, tag)


def ge(coeffs, rhs, tag=""):
    return LinearConstraint({v: -poly.exact(c) for v, c in dict(coeffs).items()}, LE,
                            -poly.exact(rhs), tag)


def gt(coeffs, rhs, tag=""):
    return LinearConstraint({v: -poly.exact(c) for v, c in dict(coeffs).items()}, LT,
                            -poly.exact(rhs), tag)


@dataclass
class ConstraintSystem:
    variables: list[str]
    constraints: list[LinearConstraint] = field(default_factory=list)
    integer_vars: set[str] = field(default_factory=set)

    def __post_init__(self):
        repeated = sorted({v for v in self.variables if self.variables.count(v) > 1})
        if repeated:
            raise ValueError(f"variables declared more than once: {repeated}")
        self._declared(self.integer_vars, *(con.coeffs for con in self.constraints))
        self.constraints = list(self.constraints)

    def add(self, constraint: LinearConstraint) -> None:
        self._declared(constraint.coeffs)
        self.constraints.append(constraint)

    def _declared(self, *names) -> None:
        unknown = set().union(*names) - set(self.variables)
        if unknown:
            raise ValueError(f"undeclared variables: {sorted(unknown)}")

    def copy(self) -> "ConstraintSystem":
        return ConstraintSystem(list(self.variables), self.constraints,
                                set(self.integer_vars))


@dataclass(frozen=True)
class VarBounds:
    lower: Optional[Fraction]        # None = unbounded below
    lower_attained: bool
    upper: Optional[Fraction]        # None = unbounded above
    upper_attained: bool

    def __str__(self):
        lo = "-inf <" if self.lower is None else (
            f"{self.lower} <=" if self.lower_attained else f"{self.lower} <")
        hi = "< inf" if self.upper is None else (
            f"<= {self.upper}" if self.upper_attained else f"< {self.upper}")
        return f"{lo} _ {hi}"


@dataclass
class SolveReport:
    feasible: bool
    bounds: dict[str, VarBounds]
    forced: dict[str, Fraction]
    integrality: dict[str, bool]     # forced integer-flagged vars: value integral?
    witness: Optional[dict[str, Fraction]]

    @property
    def integrality_contradiction(self) -> bool:
        return any(not ok for ok in self.integrality.values())


# ---------------------------------------------------------------------------
# Fourier-Motzkin internals.  A row is a primitive integer vector
# (c_0, ..., c_n-1, b) over the declaration order of the system's variables,
# standing for sum(c_i * x_i) REL b, and a system is a pair (eqs, ineqs):
#   eqs:   row              REL is =
#   ineqs: (row, strict)    REL is <=, or < when strict
# Each constraint is scaled to integers once, on entry (`integral`), and
# every later row is a `cancel` of two rows.  Fractions appear only at the
# boundary: reading the constraints, the bounds (kept by `_normalize`, like
# every step's rows) and `_pick`; the witness values go back in as numerators
# over their common denominator.  `_eliminate` returns a normalized system, or
# None on a contradiction, so `solve` chains its calls with nothing in
# between.  A variable that appears in an equality is eliminated by pivoting
# on it (no row growth); genuine upper-times-lower FM combination is reserved
# for variables constrained by inequalities only.

_Sys = tuple[list[Row], list[tuple[Row, bool]]]


def _rows_of(system: ConstraintSystem) -> _Sys:
    eqs, ineqs = [], []
    for con in system.constraints:
        row = integral([con.coeffs.get(v, 0) for v in system.variables] + [con.rhs])
        if con.rel == EQ:
            eqs.append(row)
        else:
            ineqs.append((row, con.rel == LT))
    return eqs, ineqs


def _normalize(sys_: _Sys) -> Optional[_Sys]:
    """Dedup rows; return None on a constant or equality contradiction.

    A row is keyed by its primitive direction, its coefficients divided by
    their gcd g, and stands for direction.x REL b/g.
    """
    eqs, ineqs = sys_
    eq_best: dict[Row, tuple[int, Row]] = {}
    for row in eqs:
        g = math.gcd(*row[:-1])
        if not g:
            if row[-1]:
                return None
            continue
        if next(c for c in row if c) < 0:
            g = -g
        g0, row0 = eq_best.setdefault(tuple(c // g for c in row[:-1]), (g, row))
        if row[-1] * g0 != row0[-1] * g:
            return None
    best: dict[Row, tuple[int, Row, bool]] = {}
    for row, strict in ineqs:
        key = row[:-1]
        g = math.gcd(*key)
        if not g:
            if row[-1] < 0 or (strict and row[-1] == 0):
                return None
            continue
        if g > 1:
            key = tuple(c // g for c in key)
        old = best.get(key)
        # for one direction the smaller b/g wins; ties: strict wins
        if old is None or (row[-1] * old[0], not strict) < (old[1][-1] * g, not old[2]):
            best[key] = (g, row, strict)
    return ([row for _, row in eq_best.values()],
            [(row, strict) for _, row, strict in best.values()])


def _eliminate(sys_: _Sys, var: int) -> Optional[_Sys]:
    eqs, ineqs = sys_
    pivot = next((i for i, row in enumerate(eqs) if row[var]), None)
    if pivot is not None:
        prow = eqs[pivot]
        return _normalize(([cancel(row, prow, var) for i, row in enumerate(eqs)
                            if i != pivot],
                           [(cancel(row, prow, var), strict) for row, strict in ineqs]))
    uppers, lowers, rest = [], [], []
    for row, strict in ineqs:
        side = uppers if row[var] > 0 else lowers if row[var] < 0 else rest
        side.append((row, strict))
    for (up, su), (lo, sl) in itertools.product(uppers, lowers):
        # up[var] > 0, so the lower row is the one kept in sense
        rest.append((cancel(lo, up, var), su or sl))
    return _normalize((eqs, rest))


def _bounds_from_univariate(sys_: _Sys, var: int,
                            values: Sequence[Fraction] = ()) -> Optional[VarBounds]:
    """Bounds for variable no. var, the variables before it set to values
    num_j/den over a common den: in integers, den*c_var*x REL den*b -
    sum(c_j*num_j), each equality as two <= rows.  `_normalize` keeps the
    tightest row with c_var < 0 (lower) and with c_var > 0 (upper) and tests
    the constant rows.  None = infeasible."""
    den = math.lcm(*(x.denominator for x in values))
    nums = [x.numerator * (den // x.denominator) for x in values]
    eqs, ineqs = sys_
    rows = [((den * row[var], den * row[-1] - dot(row, nums)), strict)
            for row, strict in ineqs]
    for row in eqs:
        c, const = den * row[var], den * row[-1] - dot(row, nums)
        rows += [((c, const), False), ((-c, -const), False)]
    kept = _normalize(([], rows))
    if kept is None:
        return None
    lower = upper = None
    lower_att = upper_att = False
    for (c, const), strict in kept[1]:
        if c > 0:
            upper, upper_att = Fraction(const, c), not strict
        else:
            lower, lower_att = Fraction(const, c), not strict
    if lower is not None and upper is not None and (
            lower > upper or lower == upper and not (lower_att and upper_att)):
        return None
    return VarBounds(lower, lower_att, upper, upper_att)


def _pick(bounds: VarBounds) -> Fraction:
    lo, hi = bounds.lower, bounds.upper
    if lo is not None and hi is not None:
        if lo == hi or bounds.lower_attained:
            return lo
        if bounds.upper_attained:
            return hi
        return (lo + hi) / 2
    if lo is not None:
        return lo if bounds.lower_attained else lo + 1
    if hi is not None:
        return hi if bounds.upper_attained else hi - 1
    return Fraction(0)


def _projections(prefix: list[_Sys]) -> list[_Sys]:
    """The leaves of one divide-and-conquer tree: leaf k projects onto x_k.

    A node [lo, hi) holds a system on exactly those variables and halves at
    mid.  Its left child is prefix[mid - 1] when lo = 0, else the node with
    mid .. hi-1 eliminated in reverse order; its right child is the node
    with lo .. mid-1 eliminated in order.  The system must be feasible.
    """
    def node(lo: int, hi: int, sys_: _Sys) -> list[_Sys]:
        if hi - lo == 1:
            return [sys_]
        mid = (lo + hi) // 2
        left = (prefix[mid - 1] if lo == 0
                else functools.reduce(_eliminate, reversed(range(mid, hi)), sys_))
        right = functools.reduce(_eliminate, range(lo, mid), sys_)
        return node(lo, mid, left) + node(mid, hi, right)
    return node(0, len(prefix), prefix[-1])


def solve(system: ConstraintSystem) -> SolveReport:
    """Exact feasibility, per-variable bounds, forced values, integrality.

    The prefix chain decides feasibility; a feasible system reads its bounds
    off `_projections`' tree, 24 eliminations in all at n = 8.
    """
    order = list(system.variables)
    # prefix[k] constrains order[:k + 1] only: the later variables are
    # eliminated from the whole system, last declared first
    prefix = [_normalize(_rows_of(system))]
    for k in reversed(range(1, len(order))):
        prefix.insert(0, None if prefix[0] is None else _eliminate(prefix[0], k))
    if prefix[0] is None or order and _bounds_from_univariate(prefix[0], 0) is None:
        return SolveReport(False, {}, {}, {}, None)

    bounds: dict[str, VarBounds] = {}
    forced: dict[str, Fraction] = {}
    integrality: dict[str, bool] = {}
    witness: dict[str, Fraction] = {}
    for k, (var, leaf) in enumerate(zip(order, _projections(prefix))):
        vb = bounds[var] = _bounds_from_univariate(leaf, k)
        assert vb is not None, "projection of a feasible system is feasible"
        # coinciding bounds are both attained, or the reader returns None
        if vb.lower is not None and vb.lower == vb.upper:
            forced[var] = vb.lower
            if var in system.integer_vars:
                integrality[var] = vb.lower.denominator == 1
        # rational witness: prefix[k] with the earlier values substituted (none
        # for the first variable, whose conditioned bounds are vb itself)
        witness[var] = _pick(_bounds_from_univariate(
            prefix[k], k, list(witness.values())) if k else vb)
    for con in system.constraints:
        assert con.evaluate(witness), f"witness violates {con}"
    return SolveReport(True, bounds, forced, integrality, witness)


# ---------------------------------------------------------------------------
# Case encodings.  Variable names follow the multiplicities they stand for:
# mu, nu   coefficients of the extracted negative curves in Z(s)
# d        mult_p D
# mult_s   mult_p s (= mult_p Z(s))
# mult_omega  mult_p Omega
# mult_q   multiplicity at the blown-up point Q of the residual
# e1,e2,e3 pairing slacks of the three lines through p

def encode_case2(m: int) -> ConstraintSystem:
    """Case of a conic D through p: Z = mu*D + Omega, three lines off D.

    Base rows: log-terminality mult_s > 3m/2, the line pairing m >= mult_s -
    2*mu, the conic pairing 2m >= mult_s + mu, multiplicity additivity with
    mult_p D = 1.  Blow-up rows (axioms from the log-terminality argument at
    the infinitely near point Q): mult_q + mult_s >= 3m and mult_q <=
    mult_omega.
    """
    if (m := operator.index(m)) < 1:
        raise ValueError("m must be >= 1")
    s = ConstraintSystem(
        variables=["mu", "d", "mult_s", "mult_omega", "mult_q"],
        integer_vars={"mu", "d", "mult_s", "mult_omega", "mult_q"},
    )
    s.add(gt({"mult_s": 1}, Fraction(3 * m, 2), tag="log-terminality at p"))
    s.add(le({"mult_s": 1, "mu": -2}, m, tag="line pairing L.Z = m"))
    s.add(le({"mult_s": 1, "mu": 1}, 2 * m, tag="conic pairing D.Z = 2m"))
    s.add(eq({"d": 1}, 1, tag="D smooth at p"))
    s.add(eq({"mult_omega": 1, "mu": 1, "mult_s": -1}, 0,
             tag="mult additivity mult_s = mu*d + mult_omega (d = 1)"))
    s.add(ge({"mu": 1}, 0, tag="effectivity"))
    s.add(ge({"mult_omega": 1}, 0, tag="effectivity"))
    s.add(ge({"mult_q": 1, "mult_s": 1}, 3 * m,
             tag="log-terminality at Q after blow-up"))
    s.add(le({"mult_q": 1, "mult_omega": -1}, 0,
             tag="mult_Q Omega-bar <= mult_p Omega"))
    s.add(ge({"mult_q": 1}, 0, tag="effectivity"))
    return s


def encode_case3(m: int) -> ConstraintSystem:
    """Case of three lines through p: Z = mu*L1 + nu*L2 + D + Omega', D = mult d.

    Pairing rows m = -mu + nu + e1 (e1 >= d), m = mu - nu + e2 (e2 >= d),
    m = mu + nu + e3 (e3 >= 0), additivity mult_s = mu + nu + d, and
    log-terminality mult_s > 3m/2.  Blow-up rows: the reduced inequality
    mult_q + d >= 2m with mult_q <= d, plus the primitive log-terminality
    inequality mult_q + mult_s >= 3m it was reduced from; the reduced form
    alone fixes only d = m, while the pair forces mu = nu = m/2.
    """
    if (m := operator.index(m)) < 1:
        raise ValueError("m must be >= 1")
    s = ConstraintSystem(
        variables=["mu", "nu", "d", "e1", "e2", "e3", "mult_s", "mult_q"],
        integer_vars={"mu", "nu", "d", "e1", "e2", "e3", "mult_s", "mult_q"},
    )
    s.add(eq({"mu": -1, "nu": 1, "e1": 1}, m, tag="pairing L1.Z = m"))
    s.add(eq({"mu": 1, "nu": -1, "e2": 1}, m, tag="pairing L2.Z = m"))
    s.add(eq({"mu": 1, "nu": 1, "e3": 1}, m, tag="pairing L3.Z = m"))
    s.add(ge({"e1": 1, "d": -1}, 0, tag="D meets L1 at p"))
    s.add(ge({"e2": 1, "d": -1}, 0, tag="D meets L2 at p"))
    s.add(ge({"e3": 1}, 0, tag="effectivity"))
    s.add(eq({"mult_s": 1, "mu": -1, "nu": -1, "d": -1}, 0,
             tag="mult additivity at p"))
    s.add(gt({"mult_s": 1}, Fraction(3 * m, 2), tag="log-terminality at p"))
    for v in ("mu", "nu", "d"):
        s.add(ge({v: 1}, 0, tag="effectivity"))
    s.add(le({"mult_q": 1, "d": -1}, 0, tag="Q on the strict transform of D"))
    s.add(ge({"mult_q": 1, "d": 1}, 2 * m, tag="reduced blow-up inequality"))
    s.add(ge({"mult_q": 1, "mult_s": 1}, 3 * m,
             tag="log-terminality at Q after blow-up"))
    s.add(ge({"mult_q": 1}, 0, tag="effectivity"))
    return s


#: sub-case identifiers for the nodal encoding
Q_FREE = "q_free"      # Q on neither strict transform
Q_ON_L = "q_on_l"      # Q on the strict transform of L
Q_ON_C = "q_on_c"      # Q on the strict transform of C

NODAL_SUBCASES = (Q_FREE, Q_ON_L, Q_ON_C)


def encode_nodal(m: int, subcase: Optional[str] = None) -> ConstraintSystem:
    """One-node model at the node's image: Z = mu*C + nu*L + Omega.

    Base rows express C.Omega = 2mu - nu, L.Omega = m - mu + nu and
    D.Omega = 2m - mu - nu (D = -K - C - L), each positive and each an upper
    bound for mult_p Omega, plus additivity, log-terminality and the plane
    pushforward bounds mu <= m, nu <= m.  Sub-cases bolt on the blow-up rows
    at Q: q_free (neither curve through Q), q_on_l, q_on_c; the latter two
    carry the slice (Fubini) inequality of their curve, and q_on_c also the
    Holder row mult_omega >= m/2 needed to pin nu = mult_omega = m/2.
    """
    if (m := operator.index(m)) < 1:
        raise ValueError("m must be >= 1")
    if subcase is not None and subcase not in NODAL_SUBCASES:
        raise ValueError(f"unknown subcase {subcase!r}; expected "
                         + ", ".join(NODAL_SUBCASES))
    variables = ["mu", "nu", "mult_s", "mult_omega",
                 "c_omega", "l_omega", "d_omega"]
    if subcase is not None:
        variables.append("mult_q")
    s = ConstraintSystem(variables=variables, integer_vars=set(variables))
    s.add(eq({"c_omega": 1, "mu": -2, "nu": 1}, 0, tag="C.Omega (C.Z = 0)"))
    s.add(eq({"l_omega": 1, "mu": 1, "nu": -1}, m, tag="L.Omega (L.Z = m)"))
    s.add(eq({"d_omega": 1, "mu": 1, "nu": 1}, 2 * m, tag="D.Omega (D.Z = 2m)"))
    for v in ("c_omega", "l_omega", "d_omega"):
        s.add(gt({v: 1}, 0, tag=f"Omega omits the curve behind {v}"))
        s.add(ge({v: 1, "mult_omega": -1}, 0,
                 tag=f"{v} bounds mult_p Omega (curve through p)"))
    s.add(eq({"mult_s": 1, "mu": -1, "nu": -1, "mult_omega": -1}, 0,
             tag="mult additivity at p"))
    s.add(gt({"mult_s": 1}, Fraction(3 * m, 2), tag="log-terminality at p"))
    for v in ("mu", "nu", "mult_omega"):
        s.add(ge({v: 1}, 0, tag="effectivity"))
    s.add(le({"mu": 1}, m, tag="plane pushforward multiplicity"))
    s.add(le({"nu": 1}, m, tag="plane pushforward multiplicity"))
    if subcase is None:
        return s

    s.add(ge({"mult_q": 1}, 0, tag="effectivity"))
    s.add(le({"mult_q": 1, "mult_omega": -1}, 0,
             tag="mult_Q Omega-bar <= mult_p Omega"))
    if subcase == Q_FREE:
        s.add(ge({"mult_q": 1, "mult_s": 1}, 3 * m,
                 tag="log-terminality at Q after blow-up"))
    elif subcase == Q_ON_L:
        s.add(ge({"nu": 1, "mult_q": 1, "mult_s": 1}, 3 * m,
                 tag="log-terminality at Q (L-bar through Q)"))
        s.add(ge({"l_omega": 1, "mult_omega": -1, "mult_s": 1}, 3 * m,
                 tag="fubini slice through L"))
    else:  # Q_ON_C
        s.add(ge({"mu": 1, "mult_q": 1, "mult_s": 1}, 3 * m,
                 tag="log-terminality at Q (C-bar through Q)"))
        s.add(ge({"c_omega": 1, "mult_omega": -1, "mult_s": 1}, 3 * m,
                 tag="fubini slice through C"))
        s.add(ge({"mult_omega": 1}, Fraction(m, 2), tag="holder"))
    return s


# ---------------------------------------------------------------------------
# Textual system format:  `int mu` declarations, one constraint per line,
# e.g. `2*mu + nu <= 3*m`; `m` is substituted numerically at load time.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_DECL_RE = re.compile(rf"(int|var)\s+({_NAME_RE.pattern})")
_RELATION_RE = re.compile(r"([<>]=?|=)")
_BUILDERS = {"<=": le, "<": lt, "=": eq, ">=": ge, ">": gt}


class SystemParseError(ValueError):
    pass


def parse_system(text: str, m: Optional[int] = None) -> ConstraintSystem:
    """Load a constraint system from the documented plain-text format.

    Undeclared variables are declared in order of first appearance, which
    fixes the elimination order of `solve`.  Every error names its line.
    """
    variables: list[str] = []
    integer_vars: set[str] = set()
    pending: list[LinearConstraint] = []
    constants = {} if m is None else {"m": m}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL_RE.fullmatch(line)
        if decl:
            kind, name = decl.groups()
            if name == "m":
                raise SystemParseError(
                    f"line {lineno}: m is a substituted constant, not a variable")
            if name not in variables:
                variables.append(name)
            if kind == "int":
                integer_vars.add(name)
            continue
        sides = _RELATION_RE.split(line)
        if len(sides) != 3:
            raise SystemParseError(f"line {lineno}: expected one relation in {line!r}")
        found = _NAME_RE.findall(line)
        if m is None and "m" in found:
            raise SystemParseError(f"line {lineno}: m used but no value supplied")
        names = tuple(dict.fromkeys(n for n in found if n != "m"))
        try:
            left, right = (poly.parse(side, names, 1, constants) for side in sides[::2])
        except poly.PolyParseError as exc:
            raise SystemParseError(f"line {lineno}: {exc}") from exc
        diff = poly.add(left, {e: -c for e, c in right.items()})
        # each exponent is a unit vector or zero; keep the variables in the
        # order of first appearance, left side before right
        linear = {e.index(1): c for e, c in diff.items() if any(e)}
        coeffs = {names[i]: linear[i] for i in sorted(linear)}
        rhs = -diff.get((0,) * len(names), 0)
        pending.append(_BUILDERS[sides[1]](coeffs, rhs, tag=f"line {lineno}"))
    for con in pending:
        for v in con.coeffs:
            if v not in variables:
                variables.append(v)
    return ConstraintSystem(variables, pending, integer_vars)
