"""Log canonical thresholds: golden values, certificates, invariance laws."""

import random
from fractions import Fraction

import pytest

from delpezzo.germs import parse_germ
from delpezzo.lct import (EqualityCase, MultBoundsVerdict, blowup_lct,
                          check_lemma52, check_mult_bounds,
                          holder_product_bound, newton_lct, newton_polygon)
from delpezzo.resolution import (BlowupBudgetSettingError,
                                 DepthExceededError, ResolutionNode,
                                 resolve_germ)
from germgen import random_germ, random_unimodular

Q = Fraction

# germ text, lct, newton certificate exact?, (a, b) chain of the resolution
GOLDENS = [
    ("y^2 - x^3",                 Q(5, 6), True,  [(1, 2), (2, 3), (4, 6)]),
    ("x*y*(x + y)",               Q(2, 3), True,  [(1, 3)]),
    ("x*(y^2 - x^3)",             Q(5, 8), True,  [(1, 3), (2, 4), (4, 8)]),
    ("x*(y - x)^2*(y + x)^2",     Q(2, 5), False, [(1, 5)]),
    ("(y^2 - 2*x^2)^2 - x^7",     Q(1, 2), False, [(1, 4), (2, 6), (3, 7), (6, 14)]),
    ("x*y",                       Q(1),    True,  []),
    ("x^2*y^3",                   Q(1, 3), True,  []),
    ("y - x^2",                   Q(1),    True,  []),
    ("x^2*y*(x + y)",             Q(1, 2), True,  [(1, 4)]),
    ("(y^2 - 2*x^2)*(y^2 - 3*x^2)", Q(1, 2), True, [(1, 4)]),
]


@pytest.mark.parametrize("text, value, _, chain", GOLDENS)
def test_blowup_golden_values(text, value, _, chain):
    f = parse_germ(text)
    report = blowup_lct(f)
    assert report.value == value
    assert report.exact
    res = resolve_germ(f)
    assert [(n.a, n.b) for n in res.nodes] == chain


@pytest.mark.parametrize("text, value, exact, _", GOLDENS)
def test_newton_golden_values(text, value, exact, _):
    report = newton_lct(parse_germ(text))
    assert report.exact == exact
    if exact:
        assert report.value == value
    else:
        assert report.value >= value


def test_newton_skips_the_square_free_test_on_faces_of_length_one(monkeypatch):
    # a face of lattice length 1 has a linear H, square-free by itself; the
    # exact flag matches the flag with every face tested
    from delpezzo import lct as lct_module
    tested = []
    face_univariate = lct_module._face_univariate

    def recording(f, face):
        tested.append(face)
        return face_univariate(f, face)

    monkeypatch.setattr(lct_module, "_face_univariate", recording)
    for text in ("x*y*(x + y)", "y^2 - x^3", "x*y"):
        assert newton_lct(parse_germ(text)).exact
    assert tested == []
    rng = random.Random(4021)
    for _ in range(100):
        f = random_germ(rng)
        every_face = all(face_univariate(f, face).is_sqf
                         for face in newton_polygon(f).faces)
        assert newton_lct(f).exact == every_face


def test_newton_certificate_failure_is_a_strict_upper_bound():
    # (y - x)^2 is the canonical nondegeneracy counterexample: the polygon
    # face poly has a square factor and the polygon value 1 overshoots 1/2
    f = parse_germ("(y - x)^2")
    newton = newton_lct(f)
    blowup = blowup_lct(f)
    assert newton.value == Q(1) and not newton.exact
    assert blowup.value == Q(1, 2) and blowup.exact


def test_squared_smooth_germ_thresholds():
    assert blowup_lct(parse_germ("(y - x^2)^3")).value == Q(1, 3)
    assert blowup_lct(parse_germ("(y - x)^2")).value == Q(1, 2)


def test_discrepancy_ratios_along_the_cusp_chain():
    res = resolve_germ(parse_germ("y^2 - x^3"))
    assert [n.ratio for n in res.nodes] == [Q(2, 2), Q(3, 3), Q(5, 6)]
    last = res.nodes[-1]
    assert isinstance(last, ResolutionNode)
    assert last.chain()[-1] is last


def test_newton_polygon_shape_of_the_cusp():
    poly = newton_polygon(parse_germ("y^2 - x^3"))
    assert poly.vertices == ((0, 2), (3, 0))
    assert len(poly.faces) == 1
    assert poly.faces[0].normal == (2, 3)
    assert poly.faces[0].level == 6
    assert poly.x_min == 0 and poly.y_min == 0


def test_monomial_thresholds_from_axes():
    # pure monomials resolve without any blow-up at all
    assert blowup_lct(parse_germ("x^2*y^3")).value == Q(1, 3)
    assert resolve_germ(parse_germ("x^2*y^3")).nodes == ()
    report = newton_lct(parse_germ("x^3"))
    assert report.value == Q(1, 3)
    assert "axis factor" in str(report.witness)


def test_report_formatting():
    assert str(blowup_lct(parse_germ("y^2 - x^3"))).startswith(
        "lct = 5/6 (blowup, exact; ")
    assert "face" in str(newton_lct(parse_germ("y^2 - x^3")))


def test_depth_budget_is_honored(monkeypatch):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "2")
    with pytest.raises(DepthExceededError):
        resolve_germ(parse_germ("y^2 - x^3"))
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "1")
    with pytest.raises(DepthExceededError):
        blowup_lct(parse_germ("y^2 - x^3"))


@pytest.mark.parametrize("budget", ["-1", "2.0", "many"])
def test_bad_depth_budget_is_a_setting_error(monkeypatch, budget):
    # checked before any blow-up, even on a germ that needs none
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", budget)
    message = (f"DELPEZZO_MAX_BLOWUPS must be a non-negative integer, "
               f"got {budget!r}")
    with pytest.raises(BlowupBudgetSettingError, match=message):
        resolve_germ(parse_germ("x*y"))
    with pytest.raises(BlowupBudgetSettingError, match=message):
        blowup_lct(parse_germ("y^2 - x^3"))


def test_depth_budget_env_override(monkeypatch):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "2")
    with pytest.raises(DepthExceededError):
        resolve_germ(parse_germ("y^2 - x^3"))
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "3")
    assert blowup_lct(parse_germ("y^2 - x^3")).value == Q(5, 6)


def test_resolution_handles_irrational_branch_tangents():
    # the four branches y = ±sqrt(2)x, ±sqrt(3)x need a field extension but
    # the transverse crossing keeps the threshold at an ordinary 4-fold point
    f = parse_germ("(y^2 - 2*x^2)*(y^2 - 3*x^2)")
    report = blowup_lct(f)
    assert report.value == Q(1, 2)
    res = resolve_germ(f)
    assert len(res.nodes) == 1 and (res.nodes[0].a, res.nodes[0].b) == (1, 4)


# -- invariance and scaling laws ------------------------------------------------

def test_threshold_range_and_mult_bounds_on_random_germs():
    rng = random.Random(4021)
    for _ in range(40):
        f = random_germ(rng)
        k = f.multiplicity
        value = blowup_lct(f).value
        assert Q(1, k) <= value <= Q(2, k)
        assert 0 < value <= 1
        newton = newton_lct(f)
        assert newton.value >= value  # polygon only ever overestimates
        if newton.exact:
            assert newton.value == value


def test_blowup_lct_is_coordinate_invariant():
    rng = random.Random(90125)
    for text in ("y^2 - x^3", "x*y*(x + y)", "(y - x)^2"):
        f = parse_germ(text)
        base = blowup_lct(f).value
        for _ in range(8):
            g = f.compose_linear(*random_unimodular(rng))
            assert blowup_lct(g).value == base


def test_power_scaling_law():
    for text in ("y^2 - x^3", "x*y", "y - x^2"):
        f = parse_germ(text)
        c = blowup_lct(f).value
        for k in (2, 3, 4):
            assert blowup_lct(f ** k).value == min(Q(1), c / k)


def test_scaling_by_units_does_not_move_the_threshold():
    f = parse_germ("y^2 - x^3")
    assert blowup_lct(f.scale(Q(7, 3))).value == blowup_lct(f).value


def test_holder_product_bound():
    f = parse_germ("y^2 - x^3")
    g = parse_germ("x*y")
    assert holder_product_bound(f, g)
    assert holder_product_bound(f, f)
    assert blowup_lct(f * f).value == Q(5, 12)


# -- multiplicity bounds and the k-th power certificate ---------------------------

def test_mult_bounds_verdicts():
    v = check_mult_bounds(parse_germ("x*y"))
    assert v.k == 2 and v.lower_ok and v.upper_ok
    assert v.value == Q(1)
    assert v.equality_case is None  # upper end, not the 1/k end


def test_mult_bounds_equality_certificate():
    v = check_mult_bounds(parse_germ("(y - x^2)^3"))
    assert v.k == 3 and v.value == Q(1, 3)
    assert v.lower_ok and v.upper_ok
    assert v.equality_case is not None
    assert v.equality_case.verified
    assert str(v) == ("k=3: 1/3 <= 1/3 <= 2/3 holds; "
                      "equality case f = (-1) * (x**2 - y)^3")


def test_mult_bounds_verdict_holds():
    assert check_mult_bounds(parse_germ("y^2 - x^3")).holds
    v = check_mult_bounds(parse_germ("(y - x)^2"))
    assert v.value == Q(1, 2) and v.equality_case.verified
    assert v.holds
    # a bound that fails, and the value 1/k without a verified certificate
    assert not MultBoundsVerdict(2, Q(1, 3), False, True, None).holds
    assert not MultBoundsVerdict(2, Q(1, 2), True, True, None).holds
    unverified = EqualityCase("y - x", "1", verified=False)
    assert not MultBoundsVerdict(2, Q(1, 2), True, True, unverified).holds


def test_mult_bounds_on_random_germs():
    rng = random.Random(2718)
    for _ in range(25):
        v = check_mult_bounds(random_germ(rng, max_mult=5, max_degree=7))
        assert v.lower_ok and v.upper_ok
        if v.equality_case is not None:
            assert v.equality_case.verified


def test_lemma52_composite_germ_bound():
    v1 = check_lemma52(1, parse_germ("x + y"))
    assert str(v1) == "c0(x^3*y + x^2*y^2) = 1/2 > 1/3"
    assert v1.holds
    v2 = check_lemma52(2, parse_germ("y^2 - x^3"))
    assert str(v2) == "c0(x^4*y^4 - x^7*y^2) = 1/4 > 1/6"
    assert v2.holds


def test_lemma52_random_transverse_germs():
    rng = random.Random(31415)
    seen = 0
    for _ in range(60):
        h = random_germ(rng, min_mult=1, max_mult=3, max_degree=5)
        k = h.multiplicity
        terms = h.terms()
        if any(i == 0 for i, _ in terms) or any(j == 0 for _, j in terms):
            # cheap guarantee that neither coordinate divides h
            if all(i > 0 for i, _ in terms) or all(j > 0 for _, j in terms):
                continue
            assert check_lemma52(k, h).holds
            seen += 1
    assert seen >= 10


def test_lemma52_input_validation():
    with pytest.raises(ValueError, match="mult_0 h = 1, expected k = 2"):
        check_lemma52(2, parse_germ("x + y^2"))
    with pytest.raises(ValueError, match="divisible by coordinate"):
        check_lemma52(2, parse_germ("x*y + y^2"))
    with pytest.raises(ValueError):
        check_lemma52(0, parse_germ("x + y"))
