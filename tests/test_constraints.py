"""Fourier-Motzkin engine: frozen case systems, random-grid oracle, parser."""

import functools
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from cli_runner import run
from delpezzo import constraints, linalg
from delpezzo.constraints import (NODAL_SUBCASES, ConstraintSystem,
                                  LinearConstraint, SystemParseError,
                                  encode_case2, encode_case3, encode_nodal,
                                  eq, ge, gt, le, lt, parse_system, solve)
from delpezzo.linalg import cone_facets, kernel, nonnegative_combination
from delpezzo.plane_config import ProjPoint

Q = Fraction


# -- elementary solves ---------------------------------------------------------

def test_pinch_forces_value():
    s = ConstraintSystem(["x"])
    s.add(le({"x": 1}, 1))
    s.add(ge({"x": 1}, 1))
    rep = solve(s)
    assert rep.feasible
    assert rep.forced == {"x": Q(1)}
    assert rep.witness == {"x": Q(1)}


def test_strict_pinch_is_infeasible():
    s = ConstraintSystem(["x"])
    s.add(lt({"x": 1}, 1))
    s.add(gt({"x": 1}, 1))
    rep = solve(s)
    assert not rep.feasible
    assert rep.forced == {}


def test_equalities_pivot_to_point():
    s = ConstraintSystem(["x", "y"])
    s.add(eq({"x": 1, "y": 1}, 2))
    s.add(eq({"x": 1, "y": -1}, 0))
    rep = solve(s)
    assert rep.forced == {"x": Q(1), "y": Q(1)}


def test_unbounded_variable_reports_open_bounds():
    s = ConstraintSystem(["x", "y"])
    s.add(ge({"x": 1}, 0))
    rep = solve(s)
    assert str(rep.bounds["x"]) == "0 <= _ < inf"
    assert str(rep.bounds["y"]) == "-inf < _ < inf"


def test_contradictory_equalities():
    s = ConstraintSystem(["x"])
    s.add(eq({"x": 1}, 0))
    s.add(eq({"x": 1}, 1))
    assert not solve(s).feasible


def test_a_trivial_equality_changes_nothing():
    # 0 = 0 is dropped before its sign is read off a nonzero entry
    text = "int x\nx + y <= 3\nx - y >= 1\n"
    report = solve(parse_system(text))
    assert report.feasible
    assert solve(parse_system(text + "x - x = 0\n")) == report
    system = parse_system(text)
    system.add(eq({}, 0))
    assert solve(system) == report


def test_integer_flag_detects_fractional_forcing():
    s = ConstraintSystem(["x"], integer_vars={"x"})
    s.add(eq({"x": 2}, 1))
    rep = solve(s)
    assert rep.forced == {"x": Q(1, 2)}
    assert rep.integrality == {"x": False}
    assert rep.integrality_contradiction


# -- frozen exclusion systems ----------------------------------------------------

def test_case2_forces_paper_values_at_m6():
    rep = solve(encode_case2(6))
    assert rep.feasible
    forced = {v: rep.forced[v] for v in ("mu", "mult_omega", "mult_q",
                                         "mult_s", "d")}
    assert forced == {"mu": Q(2), "mult_omega": Q(8), "mult_q": Q(8),
                      "mult_s": Q(10), "d": Q(1)}
    assert not rep.integrality_contradiction


def test_case2_contradiction_off_multiples_of_three():
    rep = solve(encode_case2(4))
    assert rep.forced["mu"] == Q(4, 3)
    assert rep.integrality["mu"] is False
    assert rep.integrality_contradiction


@pytest.mark.parametrize("m", [2, 4, 6])
def test_case3_forces_mu_nu_half_m(m):
    rep = solve(encode_case3(m))
    assert rep.forced["mu"] == Q(m, 2)
    assert rep.forced["nu"] == Q(m, 2)
    assert rep.forced["d"] == Q(m)
    assert not rep.integrality_contradiction


@pytest.mark.parametrize("m", [3, 5])
def test_case3_integrality_contradiction_at_odd_m(m):
    rep = solve(encode_case3(m))
    assert rep.forced["mu"] == Q(m, 2)
    assert rep.integrality["mu"] is False
    assert rep.integrality_contradiction


def test_case3_blowup_rows_do_the_pinning():
    full = encode_case3(6)
    base = ConstraintSystem(full.variables, [
        con for con in full.constraints if "mult_q" not in con.coeffs],
        full.integer_vars)
    rep = solve(base)
    assert rep.feasible and rep.forced == {}
    assert str(rep.bounds["mu"]) == "3/2 < _ < 9/2"


def test_nodal_base_bounds_at_m6():
    rep = solve(encode_nodal(6))
    assert rep.feasible and not rep.forced
    assert str(rep.bounds["mult_s"]) == "9 < _ <= 12"
    assert str(rep.bounds["mult_omega"]) == "0 <= _ <= 5"
    assert str(rep.bounds["mu"]) == "3 < _ <= 6"
    assert str(rep.bounds["nu"]) == "3/2 < _ <= 6"


def test_nodal_q_free_is_infeasible():
    assert not solve(encode_nodal(6, "q_free")).feasible


def test_nodal_q_on_l_caps_residual_multiplicity_at_two():
    rep = solve(encode_nodal(6, "q_on_l"))
    assert rep.feasible
    b = rep.bounds["mult_omega"]
    assert str(b) == "0 < _ <= 2"
    assert b.upper_attained and not b.lower_attained


def test_nodal_q_on_c_pins_everything():
    rep = solve(encode_nodal(6, "q_on_c"))
    for var, val in (("mu", 6), ("nu", 3), ("mult_omega", 3), ("mult_s", 12)):
        assert rep.forced[var] == Q(val)
    assert not rep.integrality_contradiction
    assert solve(encode_nodal(5, "q_on_c")).integrality_contradiction


def test_encoded_witnesses_satisfy_their_systems():
    for system in (encode_case2(6), encode_case3(6), encode_nodal(6),
                   encode_nodal(6, "q_on_l"), encode_nodal(6, "q_on_c")):
        rep = solve(system)
        assert rep.feasible
        for con in system.constraints:
            assert con.evaluate(rep.witness), str(con)


def test_encode_nodal_rejects_unknown_subcase():
    with pytest.raises(ValueError):
        encode_nodal(6, "q_somewhere")


@pytest.mark.parametrize("system, order", [
    (encode_case2(4), ["mu", "d", "mult_s", "mult_omega", "mult_q"]),
    (encode_case3(5), ["mu", "nu", "d", "e1", "e2", "e3", "mult_s", "mult_q"]),
    (encode_nodal(5, "q_on_c"), ["mu", "nu", "mult_s", "mult_omega",
                                 "c_omega", "l_omega", "d_omega"]),
], ids=["case2", "case3", "nodal"])
def test_integrality_follows_declaration_order(system, order):
    assert list(solve(system).integrality) == order


def test_solve_eliminates_along_the_chain_and_one_tree(monkeypatch):
    # n - 1 eliminations build the prefix chain, which decides feasibility; a
    # feasible system then builds the projection tree, where a node [lo, hi)
    # off the left spine costs hi - lo eliminations and one on it (lo = 0)
    # only hi - mid, its left child being prefix[mid - 1].  So n - 1 + tree:
    # 0, 2, 5, 8, 12, 16, 20, 24, 29 for n = 1 .. 9, against n - 1 +
    # n(n-1)/2 for one chain per variable.  The witness substitutes values and
    # eliminates nothing.
    calls = []
    inner = constraints._eliminate
    monkeypatch.setattr(constraints, "_eliminate",
                        lambda sys_, var: calls.append(var) or inner(sys_, var))
    for system, feasible, count in [(encode_nodal(4, "q_on_c"), True, 7 + 17),
                                    (encode_nodal(5), True, 6 + 14),
                                    (encode_case2(4), True, 4 + 8),
                                    (encode_nodal(4, "q_free"), False, 7)]:
        calls.clear()
        assert solve(system).feasible is feasible
        assert len(calls) == count


def _prefix_chain(system):
    prefix = [constraints._normalize(constraints._rows_of(system))]
    for k in reversed(range(1, len(system.variables))):
        prefix.insert(0, prefix[0] and constraints._eliminate(prefix[0], k))
    return prefix


def _chain_bounds(prefix, k):
    # the reading the tree replaced: x_0 .. x_k-1 eliminated from prefix[k]
    return constraints._bounds_from_univariate(
        functools.reduce(constraints._eliminate, range(k), prefix[k]), k)


def _mixed_system(rng):
    """Up to 6 variables, rows of one to three of them, equalities and
    strict rows among them."""
    names = [f"x{i}" for i in range(rng.randint(1, 6))]
    s = ConstraintSystem(names)
    for _ in range(rng.randint(1, len(names) + 4)):
        support = rng.sample(names, rng.randint(1, min(3, len(names))))
        build = rng.choice((le, le, lt, ge, gt, eq))
        s.add(build({v: rng.choice((-2, -1, 1, 2)) for v in support},
                    Q(rng.randint(-4, 8), rng.randint(1, 2))))
    return s


def test_projection_tree_agrees_with_one_chain_per_variable():
    rng = random.Random(20261020)
    systems = [_random_system(rng, den) for den in (1, 3) for _ in range(60)]
    systems += [_mixed_system(rng) for _ in range(300)]
    systems += [encode(m) for m in range(1, 21) for encode in
                (encode_case2, encode_case3,
                 *(functools.partial(encode_nodal, subcase=sub)
                   for sub in (None,) + NODAL_SUBCASES))]
    widths = set()
    for system in systems:
        prefix = _prefix_chain(system)
        if (prefix[0] is None
                or constraints._bounds_from_univariate(prefix[0], 0) is None):
            continue
        leaves = constraints._projections(prefix)
        assert len(leaves) == len(system.variables)
        for k, leaf in enumerate(leaves):
            # leaf k constrains x_k alone
            assert all(not any(row[:k] + row[k + 1:-1])
                       for row in leaf[0] + [row for row, _ in leaf[1]])
            assert constraints._bounds_from_univariate(leaf, k) == \
                _chain_bounds(prefix, k)
        widths.add(len(leaves))
    assert widths == set(range(1, 9))


def _report_fields(rep):
    return (rep.feasible, {v: str(b) for v, b in rep.bounds.items()},
            {v: str(x) for v, x in rep.forced.items()}, rep.integrality,
            rep.witness and {v: str(x) for v, x in rep.witness.items()})


CHAIN9 = "int x0\nx0 >= 0\n" + "".join(
    f"x{i + 1} - x{i} >= 1\n" for i in range(8)) + "x8 < 10\n"


@pytest.mark.parametrize("text, report", [
    ("0 <= 1", (True, {}, {}, {}, {})),
    ("1 <= 0", (False, {}, {}, {}, None)),
    ("", (True, {}, {}, {}, {})),
    ("int x", (True, {"x": "-inf < _ < inf"}, {}, {}, {"x": "0"})),
    ("int x\n2*x = 1", (True, {"x": "1/2 <= _ <= 1/2"}, {"x": "1/2"},
                        {"x": False}, {"x": "1/2"})),
    ("x + y <= 2\nx - y > 0\ny >= -1",
     (True, {"x": "-1 < _ <= 3", "y": "-1 <= _ < 1"}, {}, {},
      {"x": "3", "y": "-1"})),
    # 9 variables: the tree splits [0, 9) at 4, then [4, 9) at 6 and [6, 9) at 7
    (CHAIN9, (True, {f"x{i}": f"{i} <= _ < {i + 2}" for i in range(9)}, {}, {},
              {f"x{i}": str(i) for i in range(9)})),
], ids=["no-vars", "no-vars-infeasible", "empty", "one-var-free",
        "one-var-half", "two-vars", "nine-var-chain"])
def test_solve_reports_on_edge_sizes(text, report):
    assert _report_fields(solve(parse_system(text))) == report


# -- random-grid oracle ----------------------------------------------------------

BOX = 2


def _random_system(rng, den=1):
    """Boxed random rows; den > 1 draws every coefficient and right-hand side
    with a denominator in 1..den."""
    def number(lo, hi):
        if den == 1:
            return rng.randint(lo, hi)
        return Q(rng.randint(lo, hi), rng.randint(1, den))

    names = ["w", "x", "y", "z"][:rng.randint(1, 4)]
    s = ConstraintSystem(list(names))
    for v in names:  # box so grid enumeration is exhaustive
        s.add(ge({v: 1}, 0))
        s.add(le({v: 1}, BOX))
    build = {"le": le, "lt": lt, "eq": eq}
    for _ in range(rng.randint(1, 4)):
        coeffs = {v: number(-3, 3) for v in names}
        kind = rng.choice(["le", "le", "lt", "eq"])
        s.add(build[kind](coeffs, number(-3, 6)))
    return s


def _grid_points(names, denom):
    steps = [Q(k, denom) for k in range(BOX * denom + 1)]
    for combo in itertools.product(steps, repeat=len(names)):
        yield dict(zip(names, combo))


def _respects_bounds(rep, pt):
    for v, b in rep.bounds.items():
        x = pt[v]
        if b.lower is not None and (x < b.lower
                                    or (x == b.lower and not b.lower_attained)):
            return False
        if b.upper is not None and (x > b.upper
                                    or (x == b.upper and not b.upper_attained)):
            return False
    return all(pt[v] == val for v, val in rep.forced.items())


def test_fm_agrees_with_grid_enumeration():
    rng = random.Random(20240817)
    infeasible_seen = 0
    for _ in range(40):
        system = _random_system(rng)
        rep = solve(system)
        satisfying = [pt for pt in _grid_points(system.variables, denom=2)
                      if all(c.evaluate(pt) for c in system.constraints)]
        if not rep.feasible:
            assert not satisfying
            infeasible_seen += 1
            continue
        for con in system.constraints:
            assert con.evaluate(rep.witness)
        for pt in satisfying:
            assert _respects_bounds(rep, pt)
    assert infeasible_seen >= 3  # the sample exercises both outcomes


def test_fm_agrees_with_grid_enumeration_on_rational_rows():
    # every row is scaled to integers on entry by the lcm of its denominators
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(40):
        system = _random_system(rng, den=3)
        rep = solve(system)
        satisfying = [pt for pt in _grid_points(system.variables, denom=3)
                      if all(c.evaluate(pt) for c in system.constraints)]
        outcomes.add(rep.feasible)
        if not rep.feasible:
            assert not satisfying
            continue
        assert all(con.evaluate(rep.witness) for con in system.constraints)
        assert all(_respects_bounds(rep, pt) for pt in satisfying)
    assert outcomes == {True, False}


@pytest.mark.parametrize("rows, bounds", [
    ([le({"x": 1}, 1), lt({"x": 2}, 2)], "-inf < _ < 1"),
    ([lt({"x": 2}, 2), le({"x": 1}, 1)], "-inf < _ < 1"),
    ([le({"x": Q(1, 3)}, Q(1, 3)), ge({"x": 6}, 6)], "1 <= _ <= 1"),
    ([eq({"x": 1}, 1), eq({"x": 2}, 3)], None),
    ([eq({"x": 1}, 1), eq({"x": -2}, -2)], "1 <= _ <= 1"),
])
def test_parallel_rows_compare_after_scaling(rows, bounds):
    rep = solve(ConstraintSystem(["x"], rows))
    assert (str(rep.bounds["x"]) if rep.feasible else None) == bounds


def test_a_multiple_of_a_row_leaves_one_row():
    system = ConstraintSystem(["x", "y"], [le({"x": 3, "y": 3}, 6),
                                           le({"x": 1, "y": 1}, 2)])
    eqs, ineqs = constraints._normalize(constraints._rows_of(system))
    assert len(eqs) + len(ineqs) == 1


# c*x REL b as (c, b, REL), and the bounds `_bounds_from_univariate` reads
READER_CASES = [
    ([(1, 1, "<="), (1, 1, "<")], "-inf < _ < 1"),
    ([(1, 1, "<"), (1, 1, "<=")], "-inf < _ < 1"),
    ([(2, 2, "<="), (1, 1, "<")], "-inf < _ < 1"),     # the strict row wins
    ([(1, 1, "<"), (2, 2, "<=")], "-inf < _ < 1"),
    ([(-2, -2, "<="), (-1, -1, "<")], "1 < _ < inf"),
    ([(1, 1, "="), (1, 1, "<")], None),
    ([(-1, -1, "<="), (2, 2, "<=")], "1 <= _ <= 1"),   # forced
    ([(3, 2, "=")], "2/3 <= _ <= 2/3"),
    ([(-1, -1, "<"), (1, 1, "<=")], None),
    ([(-1, 0, "<="), (1, -1, "<=")], None),
    ([(0, 0, "<")], None),                             # 0 < 0
    ([(0, -1, "<=")], None),
    ([(0, 0, "<=")], "-inf < _ < inf"),
]


def _univariate(rows, fixed):
    """The rows over (x,), or over (y, x) with y to be fixed at 1/2: then
    c*x REL b is written 2*y + 2c*x REL 2b + 1, a constant row for c = 0."""
    eqs, ineqs = [], []
    for c, b, rel in rows:
        row = (2, 2 * c, 2 * b + 1) if fixed else (c, b)
        if rel == "=":
            eqs.append(row)
        else:
            ineqs.append((row, rel == "<"))
    return eqs, ineqs


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("rows, bounds", READER_CASES)
def test_bounds_reader_keeps_the_tightest_row(rows, bounds, fixed):
    sys_ = _univariate(rows, fixed)
    got = (constraints._bounds_from_univariate(sys_, 1, [Q(1, 2)]) if fixed
           else constraints._bounds_from_univariate(sys_, 0))
    assert (None if got is None else str(got)) == bounds
    if got is not None:
        assert got.lower_attained <= (got.lower is not None)
        assert got.upper_attained <= (got.upper is not None)


def _scaled(system, rng):
    """The system with every row multiplied by its own positive rational."""
    rows = []
    for con in system.constraints:
        k = rng.choice((Q(7, 3), Q(10 ** 30, 11), Q(1, 6),
                        Q(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))))
        rows.append(LinearConstraint({v: k * c for v, c in con.coeffs.items()},
                                     con.rel, k * con.rhs))
    return ConstraintSystem(list(system.variables), rows, set(system.integer_vars))


def test_solve_is_invariant_under_scaling_rows():
    rng = random.Random(31)
    systems = [_random_system(rng) for _ in range(30)]
    systems += [encode_case3(m) for m in (4, 5, 6)]
    systems += [encode_nodal(m, sub)
                for m in (5, 6) for sub in (None,) + NODAL_SUBCASES]
    for system in systems:
        rep, scaled = solve(system), solve(_scaled(system, rng))
        assert scaled == rep and _report_line(scaled) == _report_line(rep)


def test_solve_is_order_independent():
    rng = random.Random(7)
    for _ in range(15):
        system = _random_system(rng)
        rep1 = solve(system)
        shuffled = system.copy()
        rng.shuffle(shuffled.constraints)
        rep2 = solve(shuffled)
        assert rep1.feasible == rep2.feasible
        assert rep1.forced == rep2.forced
        assert rep1.bounds == rep2.bounds


def test_solve_ignores_redundant_consequences():
    rng = random.Random(11)
    for _ in range(15):
        system = _random_system(rng)
        rep1 = solve(system)
        fat = system.copy()
        a, b = rng.sample([c for c in fat.constraints if c.rel == "<="], 2)
        fat.add(le({v: a.coeffs.get(v, 0) + b.coeffs.get(v, 0)
                    for v in fat.variables}, a.rhs + b.rhs))
        rep2 = solve(fat)
        assert rep1.feasible == rep2.feasible
        if rep1.feasible:
            assert rep1.forced == rep2.forced
            assert rep1.bounds == rep2.bounds


# -- pinned reports --------------------------------------------------------------

# Every field of `solve`'s report, key order included, on seeded random
# systems and edge systems, and the bytes of `delpezzo case --json`, as the
# forward-chain solver produced them.  A rewrite of `solve` must leave these
# unchanged.
PINNED = json.loads((Path(__file__).parent / "data" / "solve_reports.json").read_text())

CASE_ARGS = {"2": ["--id", "2"], "3": ["--id", "3"], "nodal": ["--id", "nodal"],
             **{f"nodal {sub}": ["--id", "nodal", "--subcase", sub]
                for sub in NODAL_SUBCASES}}


def _pinned_random_system(rng):
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    s = ConstraintSystem(names, integer_vars={v for v in names if rng.random() < 0.5})
    build = (le, le, lt, ge, gt, eq)
    for _ in range(rng.randint(1, len(names) + 4)):
        coeffs = {v: rng.randint(-3, 3)
                  for v in rng.sample(names, rng.randint(1, len(names)))}
        s.add(rng.choice(build)(coeffs, Q(rng.randint(-8, 12), rng.randint(1, 3))))
    return s


def _pinned_systems():
    rng = random.Random(20261018)
    yield from (_pinned_random_system(rng) for _ in range(240))
    yield ConstraintSystem([])
    yield ConstraintSystem([], [le({}, -1)])
    yield ConstraintSystem(["x", "y"], [le({"x": 1}, 1), gt({"x": 1}, -2)])


def _report_line(rep):
    return repr((rep.feasible,
                 [(v, str(b)) for v, b in rep.bounds.items()],
                 [(v, str(x)) for v, x in rep.forced.items()],
                 list(rep.integrality.items()),
                 rep.witness and [(v, str(x)) for v, x in rep.witness.items()]))


def test_solve_reports_are_pinned():
    lines = [_report_line(solve(s)) for s in _pinned_systems()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert {"systems": len(lines), "sha256": digest} == PINNED["reports"]


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("case", list(CASE_ARGS))
def test_case_json_is_pinned(case, m):
    out = run(["case", *CASE_ARGS[case], "--m", str(m), "--json"])
    assert out.exit_code == 0
    assert hashlib.sha256(out.output.encode()).hexdigest() == \
        PINNED["case_json"][case][str(m)]


def test_forced_values_absorb_resubstitution():
    rep1 = solve(encode_case3(6))
    pinned = encode_case3(6)
    for var, val in rep1.forced.items():
        pinned.add(eq({var: 1}, val))
    rep2 = solve(pinned)
    assert rep2.feasible and rep2.forced == rep1.forced


# -- cone membership -------------------------------------------------------------

def test_nonnegative_combination_inside_cone():
    gens = [(1, 0), (0, 1), (1, 1)]
    lam = nonnegative_combination(gens, (3, 2))
    assert lam is not None
    assert all(c >= 0 for c in lam)
    total = [sum(c * g[r] for c, g in zip(lam, gens)) for r in range(2)]
    assert total == [3, 2]


def test_nonnegative_combination_outside_cone():
    assert nonnegative_combination([(1, 0), (0, 1)], (-1, 2)) is None
    assert nonnegative_combination([(1, 1)], (1, 2)) is None


def test_nonnegative_combination_zero_target():
    lam = nonnegative_combination([(2, 3), (5, -1)], (0, 0))
    assert lam == [0, 0]


def test_kernel_spans_the_null_space():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    basis = kernel(rows, 4)
    assert basis == [[-1, -1, 1, 0], [-4, 0, 0, 1]]
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert kernel([[1, 0], [0, 3]], 2) == []


@pytest.mark.parametrize("build", [
    lambda: kernel([[0.5, 1.0]], 2),
    lambda: nonnegative_combination([(1, 0.5)], (1, 1)),
    lambda: le({"x": 0.5}, 1),
    lambda: le({"x": 0.0, "y": 1}, 1),
    lambda: parse_system("x <= m", m=0.1),
], ids=["kernel", "simplex", "constraint", "zero-coefficient", "system-constant"])
def test_exact_linear_algebra_refuses_floats(build):
    with pytest.raises(TypeError, match="floating point"):
        build()


@pytest.mark.parametrize("build", [
    lambda: ProjPoint(("0.1", 1, 1)),
    lambda: kernel([["1e3", "0.5"]], 2),
    lambda: le({"x": "2.5"}, "1e2"),
    lambda: parse_system("x <= m", m="1e3"),
], ids=["ProjPoint", "kernel", "constraint", "system-constant"])
def test_exact_linear_algebra_refuses_text(build):
    # Fraction would read decimals and exponents; text goes through
    # poly.rational, whose grammar has neither
    with pytest.raises(TypeError, match="poly.rational"):
        build()


def test_phase_one_never_enters_a_basic_column(monkeypatch):
    # the cost row starts at 0 on the basic artificials, so Bland's rule
    # never picks a column that is already basic (a no-op pivot)
    basis = []
    pivot = linalg._pivot

    def recording(tab, r, col):
        assert col not in basis
        basis[r] = col
        return pivot(tab, r, col)

    monkeypatch.setattr(linalg, "_pivot", recording)
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randint(1, 4)
        gens = [[_random_rational(rng) for _ in range(dim)]
                for _ in range(rng.randint(1, 6))]
        target = [_random_rational(rng, -4, 4) for _ in range(dim)]
        basis[:] = [len(gens) + r for r in range(dim)]
        lam = nonnegative_combination(gens, target)
        assert (lam is not None) == _caratheodory(gens, target)


def _random_rational(rng, lo=-3, hi=3, den=3):
    return Q(rng.randint(lo, hi), rng.randint(1, den))


def _sym(x):
    x = Q(x)
    return sympy.Rational(x.numerator, x.denominator)


def _random_matrix(rng):
    """Rows of width 1..6, some all zero and some repeated or scaled copies."""
    width = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * width)
        elif kind < 0.35 and rows:
            scale = _random_rational(rng, 1, 3)
            rows.append([scale * x for x in rng.choice(rows)])
        else:
            rows.append([_random_rational(rng) for _ in range(width)])
    return rows, width


def test_kernel_agrees_with_sympy_nullspace():
    # sympy's nullspace also puts a 1 in each free column of the reduced
    # row echelon form, in increasing column order
    rng = random.Random(20261018)
    for _ in range(200):
        rows, width = _random_matrix(rng)
        mat = sympy.Matrix(len(rows), width, [_sym(x) for row in rows for x in row])
        expected = [[Q(int(x.p), int(x.q)) for x in vec] for vec in mat.nullspace()]
        assert kernel(rows, width) == expected, rows


def _caratheodory(generators, target):
    """Is target a non-negative combination of the generators?  By
    Caratheodory it is one of some linearly independent subset, whose
    coefficients are then unique; try every such subset."""
    goal = sympy.Matrix([_sym(x) for x in target])
    if not any(goal):
        return True
    for size in range(1, len(target) + 1):
        for subset in itertools.combinations(generators, size):
            cols = sympy.Matrix([[_sym(x) for x in g] for g in subset]).T
            if cols.rank() < size:
                continue
            try:
                lam, _ = cols.gauss_jordan_solve(goal)
            except ValueError:        # target outside the span
                continue
            if all(x >= 0 for x in lam):
                return True
    return False


def test_nonnegative_combination_agrees_with_caratheodory():
    rng = random.Random(20261018)
    feasible = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        gens = [[_random_rational(rng) for _ in range(dim)]
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            target = [sum(c * g[r] for c, g in zip(
                [rng.randint(0, 3) for _ in gens], gens)) for r in range(dim)]
        else:
            target = [_random_rational(rng, -4, 4) for _ in range(dim)]
        lam = nonnegative_combination(gens, target)
        assert (lam is not None) == _caratheodory(gens, target), (gens, target)
        feasible += lam is not None
    # both verdicts are well represented
    assert 60 < feasible < 240


def test_cone_facets_orient_each_normal_towards_the_cone():
    # each start normal is the kernel of the other generator, found up to
    # sign: the kernel (1, 0) of (0, 1) is negative on (-1, 0) and is flipped
    assert cone_facets([(-1, 0), (0, 1)]) == [(-1, 0), (0, 1)]


@pytest.mark.parametrize("gens", [[], [(1, 0), (2, 0)]], ids=["none", "rank-1"])
def test_cone_facets_refuse_generators_that_do_not_span(gens):
    with pytest.raises(ValueError, match="do not span the space"):
        cone_facets(gens)


# -- parser ----------------------------------------------------------------------

SYSTEM_TEXT = """
# comment line
int mu
int nu
var s

2*mu + nu <= 3*m
mu - nu = 0
s < m
s >= 1/2
"""


def test_parse_system_substitutes_m():
    system = parse_system(SYSTEM_TEXT, m=6)
    assert system.variables == ["mu", "nu", "s"]
    assert system.integer_vars == {"mu", "nu"}
    rep = solve(system)
    assert rep.feasible
    assert str(rep.bounds["s"]) == "1/2 <= _ < 6"


def test_parse_system_requires_m_when_used():
    with pytest.raises(SystemParseError):
        parse_system("var x\nx <= m\n")


def test_parse_system_autodeclares_plain_variables():
    # bare identifiers register as rational vars; `int` is what needs a decl
    system = parse_system("var x\nx + y <= 1\n")
    assert system.variables == ["x", "y"]
    assert system.integer_vars == set()


@pytest.mark.parametrize("kind", ["int", "var"])
def test_parse_system_rejects_declaring_m(kind):
    with pytest.raises(SystemParseError, match="^line 2: m "):
        parse_system(f"var x\n{kind} m\nm + x <= 3\n", m=2)


def test_linear_constraint_rejects_an_unknown_relation():
    with pytest.raises(ValueError, match="relation must be one of <=, <, =; got '=='"):
        LinearConstraint({"x": 1}, "==", 1)


def test_constraint_system_checks_constructor_rows():
    with pytest.raises(ValueError, match="undeclared variables: \\['y'\\]"):
        ConstraintSystem(["x"], [le({"x": 1, "y": 1}, 1)])


def test_constraint_system_checks_integer_flags():
    # an undeclared flag would be ignored: x = 1/2 with no integrality
    # contradiction, where the flag was meant for x
    with pytest.raises(ValueError, match="undeclared variables: \\['X'\\]"):
        ConstraintSystem(["x"], [eq({"x": 2}, 1)], {"X"})


def test_constraint_system_rejects_a_repeated_variable():
    # solve would eliminate the second copy before reading the first's bounds
    # and report -inf < x < inf, although the rows force 0 <= x <= 1
    with pytest.raises(ValueError, match="declared more than once: \\['x'\\]"):
        ConstraintSystem(["x", "y", "x"], [le({"x": 1}, 1), ge({"x": 1}, 0)])


@pytest.mark.parametrize("encode", [encode_case2, encode_case3,
                                    lambda m: encode_nodal(m, "q_on_c")],
                         ids=["case2", "case3", "nodal"])
@pytest.mark.parametrize("m", [Fraction(9, 2), 4.5, "4"], ids=["fraction", "float", "text"])
def test_encodings_take_an_integer_level(encode, m):
    # m is the paper's integer level: a system for m = 9/2 would be solved,
    # and reported feasible, as if it meant something
    with pytest.raises(TypeError):
        encode(m)


@pytest.mark.parametrize("encode", [encode_case2, encode_case3, encode_nodal,
                                    lambda m: encode_nodal(m, "q_on_c")],
                         ids=["case2", "case3", "nodal", "nodal-q_on_c"])
@pytest.mark.parametrize("m", [0, -2])
def test_encodings_refuse_a_level_below_one(encode, m):
    # solve(encode_case2(0)) was "infeasible", which reads like an exclusion
    # proof at a level that means nothing
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        encode(m)


def test_encode_nodal_names_the_subcases_it_accepts():
    with pytest.raises(ValueError, match="unknown subcase 'q_somewhere'; "
                                         "expected q_free, q_on_l, q_on_c$"):
        encode_nodal(6, "q_somewhere")


def test_parse_system_rejects_bad_syntax():
    with pytest.raises(SystemParseError):
        parse_system("var x\nx ~ 1\n")
    with pytest.raises(SystemParseError):
        parse_system("var x\nx*y <= 1\n")
    with pytest.raises(SystemParseError):
        parse_system("var x\n0.5*x <= 1\n")
    with pytest.raises(SystemParseError, match="line 1: m used"):
        parse_system("x <= m\n")


@pytest.mark.parametrize("bad", ["x**2", "x^y", "x/y", "x/0", "x^-1", "0.5*x",
                                 "x*x", "x*(y + 1)", "2 < x"])
def test_parse_system_rejects_text_outside_the_grammar(bad):
    with pytest.raises(SystemParseError, match="^line 3: "):
        parse_system(f"var x\nvar y\n{bad} <= 1\n", m=2)


@pytest.mark.parametrize("line", ["x <= 1 <= 2", "x =< 1", "x == 1", "x \u2264 1",
                                  "x + 1", "x < = 1"])
def test_parse_system_refuses_anything_but_one_relation(line):
    # =< and == are two relations; the sign \u2264 is none
    with pytest.raises(SystemParseError,
                       match=f"^line 2: expected one relation in {re.escape(repr(line))}$"):
        parse_system(f"var x\n{line}\n", m=2)


@pytest.mark.parametrize("line, m, message", [
    # a bad token on each side: the left one
    ("x + $ <= y ~ 1", 2, "unexpected '$'"),
    ("x ** 2 <= y ~ 1", 2, "unexpected '**'; write powers with '^'"),
    # the left side is read whole before the right side's tokens
    ("x * <= $", 2, "unexpected end of input"),
    ("x <= y ~ $", 2, "unexpected '~'"),
    # m without a value is reported before any bad token
    ("m*x $ <= 1", None, "m used but no value supplied"),
    ("x <= ~ m", None, "m used but no value supplied"),
], ids=["both-sides", "power-left", "left-unfinished", "right-only", "m-left",
        "m-right"])
def test_parse_system_reports_the_first_error_of_a_line(line, m, message):
    with pytest.raises(SystemParseError, match=f"^line 1: {re.escape(message)}$"):
        parse_system(f"{line}\n", m=m)


def test_parse_system_ignores_a_relation_in_a_comment():
    system = parse_system("x <= 1  # a < b\nx >= 0  # = <= >=\n")
    assert system.variables == ["x"]
    assert [str(con) for con in system.constraints] == ["x <= 1", "-x <= 0"]


def test_parse_system_reads_the_shared_grammar():
    system = parse_system("2*(x + y) - x/2 <= m^2 - (1 + 1)\n", m=3)
    [con] = system.constraints
    assert con.coeffs == {"x": Q(3, 2), "y": 2} and con.rhs == 7


def test_parse_system_orders_variables_by_first_appearance():
    # left side before right; a variable whose coefficient cancels is skipped
    system = parse_system("0*z + b - b + a <= c\nd >= a\n")
    assert system.variables == ["a", "c", "d"]
    assert list(system.constraints[1].coeffs) == ["d", "a"]


def _encodings():
    for m in (4, 5, 6, 7):
        yield encode_case2(m)
        yield encode_case3(m)
        for subcase in (None,) + NODAL_SUBCASES:
            yield encode_nodal(m, subcase)


@pytest.mark.parametrize("system", list(_encodings()))
def test_encodings_survive_a_text_round_trip(system):
    text = "".join(f"int {v}\n" for v in system.variables)
    text += "".join(f"{con}\n" for con in system.constraints)
    parsed = parse_system(text)
    assert parsed.variables == system.variables
    assert parsed.integer_vars == system.integer_vars
    assert [(c.coeffs, c.rel, c.rhs) for c in parsed.constraints] == \
        [(c.coeffs, c.rel, c.rhs) for c in system.constraints]
