"""Picard lattice of the cubic surface: curves, incidences, cones."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from delpezzo.constraints import _kernel, nonnegative_combination
from delpezzo.lattice import (C, E, F, H, L, MINUS_K, DivisorClass,
                              SurfaceModel, effective_cone_facets,
                              enumerate_negative_curves, incidence_graph,
                              is_ample, is_effective, third_line,
                              tritangent_triples)
from delpezzo.lemma_verify import lemma51_scan

SMOOTH = enumerate_negative_curves(SurfaceModel.SMOOTH)
NODAL = enumerate_negative_curves(SurfaceModel.NODAL)
ZERO = DivisorClass(0, (0,) * 6)

small_ints = st.integers(min_value=-9, max_value=9)
classes = st.builds(DivisorClass, small_ints,
                    st.tuples(*[small_ints] * 6))


# -- intersection form ---------------------------------------------------------

def test_basis_is_orthogonal_with_signature_1_6():
    basis = [H] + [E(i) for i in range(1, 7)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = 0 if i != j else (1 if i == 0 else -1)
            assert a.intersect(b) == expected


def test_anticanonical_class():
    total = 3 * H
    for i in range(1, 7):
        total = total - E(i)
    assert total == MINUS_K
    assert MINUS_K.square() == 3
    assert MINUS_K.degree() == 3


@given(classes, classes)
def test_intersection_symmetric(d1, d2):
    assert d1.intersect(d2) == d2.intersect(d1)


@given(classes, classes, classes)
def test_intersection_bilinear(d1, d2, d3):
    assert (d1 + d2).intersect(d3) == d1.intersect(d3) + d2.intersect(d3)


@given(classes, st.integers(min_value=-5, max_value=5))
def test_scaling(d, k):
    assert (k * d).square() == k * k * d.square()
    assert (k * d).degree() == k * d.degree()


@given(classes)
def test_degree_is_pairing_with_minus_k(d):
    assert d.degree() == d.intersect(MINUS_K)


def test_class_str():
    assert str(MINUS_K) == "(3; 1,1,1,1,1,1)"
    assert str(E(1)) == "(0; -1,0,0,0,0,0)"


# -- smooth model --------------------------------------------------------------

def test_smooth_has_27_lines():
    assert len(SMOOTH) == 27
    assert list(SMOOTH) == (
        [f"E{i}" for i in range(1, 7)]
        + [f"L{i}{j}" for i, j in itertools.combinations(range(1, 7), 2)]
        + [f"F{i}" for i in range(1, 7)])
    for cls in SMOOTH.values():
        assert cls.square() == -1
        assert cls.degree() == 1


def test_label_table_is_the_lattice_enumeration():
    # Brute-force the lattice equations D^2 = -1, D.(-K) = 1.  Writing
    # D = (a; b), Cauchy-Schwarz on sum(b) = 3a - 1, sum(b^2) = a^2 + 1
    # gives (3a-1)^2 <= 6(a^2+1), so a in {0, 1, 2} and |b_i| <= 2.
    found = set()
    for a in range(0, 3):
        for b in itertools.product(range(-2, 3), repeat=6):
            d = DivisorClass(a, b)
            if d.square() == -1 and d.degree() == 1:
                found.add(d)
    assert len(found) == 27
    assert found == set(SMOOTH.values())


def test_each_line_meets_ten_others():
    graph = incidence_graph(SMOOTH)
    for lab in SMOOTH:
        assert len(graph[lab]) == 10
        assert all(v == 1 for v in graph[lab].values())


def test_double_six_incidences():
    for i in range(1, 7):
        for j in range(1, 7):
            assert E(i).intersect(F(j)) == (0 if i == j else 1)
    for i, j in itertools.combinations(range(1, 7), 2):
        for k in range(1, 7):
            assert E(k).intersect(L(i, j)) == (1 if k in (i, j) else 0)
    assert L(1, 2).intersect(L(3, 4)) == 1
    assert L(1, 2).intersect(L(1, 3)) == 0


def test_line_accessors_validate():
    assert L(2, 1) == L(1, 2)
    with pytest.raises(ValueError):
        L(1, 1)
    with pytest.raises(ValueError):
        E(7)
    with pytest.raises(ValueError):
        F(0)


def test_45_tritangent_triples():
    triples = tritangent_triples(SMOOTH)
    assert len(triples) == 45
    for t in triples:
        a, b, c = (SMOOTH[lab] for lab in t)
        assert a + b + c == MINUS_K
        assert a.intersect(b) == b.intersect(c) == a.intersect(c) == 1
    # every line lies on exactly five tritangent planes
    count = {lab: 0 for lab in SMOOTH}
    for t in triples:
        for lab in t:
            count[lab] += 1
    assert set(count.values()) == {5}


def _brute_force_triples(curves):
    """Every unordered triple with sum -K and pairwise products 1."""
    return [(la, lb, lc)
            for (la, da), (lb, db), (lc, dc) in itertools.combinations(curves.items(), 3)
            if da + db + dc == MINUS_K
            and da.intersect(db) == db.intersect(dc) == da.intersect(dc) == 1]


@pytest.mark.parametrize("curves", [SMOOTH, NODAL], ids=["smooth", "nodal"])
def test_tritangent_triples_match_the_brute_force(curves):
    assert tritangent_triples(curves) == _brute_force_triples(curves)
    # callers get their own list: changing it leaves the cached answer alone
    tritangent_triples(curves).clear()
    assert tritangent_triples(curves) == _brute_force_triples(curves)


def test_tritangent_triples_keep_curves_with_equal_classes():
    curves = {"a": E(1), "b": F(2), "c": L(1, 2), "c2": L(1, 2)}
    assert tritangent_triples(curves) == _brute_force_triples(curves) == [
        ("a", "b", "c"), ("a", "b", "c2")]


def test_third_line_closes_each_triple():
    assert third_line(E(1), F(2)) == L(1, 2)
    assert third_line(L(1, 2), L(3, 4)) == L(5, 6)
    with pytest.raises(ValueError):
        third_line(E(1), E(2))  # disjoint lines span no plane section


# -- nodal model ---------------------------------------------------------------

def test_nodal_has_21_lines_plus_node_curve():
    assert len(NODAL) == 22
    assert list(NODAL) == (
        [f"E{i}" for i in range(1, 7)]
        + ["L14", "L15", "L16", "L24", "L25", "L26", "L34", "L35", "L36",
           "L45", "L46", "L56"]
        + ["F1", "F2", "F3", "C"])
    assert NODAL["C"] == C
    assert C.square() == -2 and C.degree() == 0
    for lab, cls in NODAL.items():
        if lab != "C":
            assert cls.square() == -1 and cls.degree() == 1


def test_exactly_six_lines_meet_the_node_curve():
    adjacent = [lab for lab, cls in NODAL.items()
                if lab != "C" and cls.intersect(C) == 1]
    assert adjacent == ["E1", "E2", "E3", "L45", "L46", "L56"]
    # the six mutually disjoint: they form the survivor's support
    for la, lb in itertools.combinations(adjacent, 2):
        assert NODAL[la].intersect(NODAL[lb]) == 0


def test_nodal_incidence_degrees():
    graph = incidence_graph(NODAL)
    assert len(graph["C"]) == 6
    for lab in NODAL:
        if lab == "C":
            continue
        expected = 6 if NODAL[lab].intersect(C) == 1 else 8
        assert len(graph[lab]) == expected


def test_smooth_lines_dropped_from_nodal_model_split_off_c():
    # the six missing lines became reducible: L_ij = C + E_k, F_m = C + L_no
    assert SMOOTH["L12"] == C + NODAL["E3"]
    assert SMOOTH["L13"] == C + NODAL["E2"]
    assert SMOOTH["L23"] == C + NODAL["E1"]
    assert SMOOTH["F4"] == C + NODAL["L56"]
    assert SMOOTH["F5"] == C + NODAL["L46"]
    assert SMOOTH["F6"] == C + NODAL["L45"]


# -- ampleness and effectivity -------------------------------------------------

def test_nakai_moishezon_on_anticanonical_multiples():
    assert is_ample(MINUS_K)
    assert is_ample(2 * MINUS_K)
    assert not is_ample(H)          # H.E_i = 0
    assert not is_ample(E(1))
    assert not is_ample(MINUS_K - E(1))   # degree 0 against L_1j
    assert not is_ample(ZERO)


def test_effective_cone_membership():
    assert is_effective(ZERO)
    assert is_effective(MINUS_K)
    assert is_effective(E(1))
    assert is_effective(H)  # H = L12 + E1 + E2
    assert not is_effective(-1 * MINUS_K)
    assert not is_effective(DivisorClass(-1, (0,) * 6))
    assert not is_effective(DivisorClass(1, (3, 0, 0, 0, 0, 0)))


def test_no_nonzero_degree_zero_effective_class_on_smooth_model():
    # -K ample forces positive degree on every effective nonzero class
    assert not is_effective(C)
    assert not is_effective(MINUS_K - 3 * E(1))


def test_nodal_effective_degree_zero_classes_are_multiples_of_c():
    assert is_effective(C, SurfaceModel.NODAL)
    assert is_effective(2 * C, SurfaceModel.NODAL)
    assert not is_effective(DivisorClass(1, (1, 1, 0, 1, 0, 0)),
                            SurfaceModel.NODAL)
    assert is_effective(SMOOTH["L12"], SurfaceModel.NODAL)  # = C + E3


@given(st.lists(st.tuples(st.sampled_from(sorted(SMOOTH)),
                          st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=5))
def test_nonnegative_line_combinations_are_effective(combo):
    total = ZERO
    for lab, k in combo:
        total = total + k * SMOOTH[lab]
    assert is_effective(total)


# -- facets of the effective cone ----------------------------------------------

def _simplex_says_effective(d, model):
    gens = [c.coords() for c in enumerate_negative_curves(model).values()]
    return nonnegative_combination(gens, d.coords()) is not None


def test_facet_counts():
    assert len(effective_cone_facets(SurfaceModel.SMOOTH)) == 99
    assert len(effective_cone_facets(SurfaceModel.NODAL)) == 78


def test_smooth_facets_are_the_conics_and_the_72_blow_down_classes():
    # F^2 = 1, F.(-K) = 3 means sum(b) = 3a - 3 and sum(b^2) = a^2 - 1;
    # Cauchy-Schwarz gives (3a-3)^2 <= 6(a^2-1), so a in 1..5.
    blow_downs = set()
    for a in range(1, 6):
        r = math.isqrt(a * a - 1)
        for head in itertools.product(range(-r, r + 1), repeat=5):
            d = DivisorClass(a, head + (3 * a - 3 - sum(head),))
            if d.square() == 1 and d.degree() == 3:
                blow_downs.add(d)
    conics = {MINUS_K - line for line in SMOOTH.values()}
    assert len(blow_downs) == 72 and len(conics) == 27
    assert set(effective_cone_facets(SurfaceModel.SMOOTH)) == blow_downs | conics


@pytest.mark.parametrize("model", list(SurfaceModel))
def test_facet_normals_are_primitive_and_supported_on_rank_6(model):
    curves = list(enumerate_negative_curves(model).values())
    for f in effective_cone_facets(model):
        assert math.gcd(*f.coords()) == 1
        assert all(f.intersect(c) >= 0 for c in curves)
        tight = [c.coords() for c in curves if f.intersect(c) == 0]
        assert len(_kernel(tight, 7)) == 1   # the tight curves have rank 6


@pytest.mark.parametrize("m", range(2, 21))
def test_facet_test_agrees_with_the_simplex_on_scan_residuals(m):
    residuals = {r.candidate.residual for r in lemma51_scan(m).records}
    for d in residuals:
        assert is_effective(d, SurfaceModel.NODAL) == \
            _simplex_says_effective(d, SurfaceModel.NODAL), d


@pytest.mark.parametrize("model", list(SurfaceModel))
def test_facet_test_agrees_with_the_simplex_on_random_classes(model):
    # Half uniform classes, half sums of curves minus a curve, which land
    # near the boundary of the cone on either side.
    curves = list(enumerate_negative_curves(model).values())
    rng = random.Random(20261018)
    verdicts = []
    for i in range(150):
        if i % 2:
            d = DivisorClass(rng.randint(-2, 6),
                             tuple(rng.randint(-3, 3) for _ in range(6)))
        else:
            d = ZERO
            for _ in range(rng.randint(1, 4)):
                d = d + rng.randint(1, 3) * rng.choice(curves)
            d = d - rng.randint(1, 2) * rng.choice(curves)
        verdict = is_effective(d, model)
        assert verdict == _simplex_says_effective(d, model), d
        verdicts.append(verdict)
    assert 30 <= sum(verdicts) <= 120    # both sides are exercised
