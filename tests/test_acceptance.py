"""Ten headline checks, each timed against its stated budget.

Every test prints one PASS line on success (run with -s to see them all);
a failure shows up as an ordinary pytest failure with the assert context.
"""

import random
import time
from fractions import Fraction

from cli_runner import run
from delpezzo.constraints import (encode_case2, encode_case3, encode_nodal,
                                  solve)
from delpezzo.germs import parse_germ
from delpezzo.lattice import (SurfaceModel, enumerate_negative_curves,
                              is_ample)
from delpezzo.lct import blowup_lct, newton_lct
from delpezzo.lemma_verify import (MINUS_K, NEIGHBOR_COUNTING, NOT_AMPLE,
                                   PROJECTION_DEGREE, canonical_nodal_survivor,
                                   lemma31_scan, lemma51_scan)
from delpezzo.plane_config import CubicForm, is_eckardt_on_cubic, point
from delpezzo.resolution import resolve_germ
from germgen import random_germ, random_unimodular
from test_constraints import _grid_points, _random_system, _respects_bounds

Q = Fraction


class _clock:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_criterion_1_smooth_line_enumeration():
    with _clock() as t:
        result = run(["lines", "--mode", "smooth"])
        assert result.exit_code == 0
        out = result.output.splitlines()
        assert out[0] == "smooth cubic: 27 lines"
        assert sum(1 for line in out if line.endswith("meets 10")) == 27
        assert "tritangent triples: 45" in out
        assert len(out[out.index("tritangent triples: 45") + 1:]) == 45
    assert t.elapsed < 1.0
    print(f"criterion 1: PASS 27 lines, incidence 10, 45 triples "
          f"({t.elapsed:.2f}s)")


def test_criterion_2_nodal_line_enumeration():
    expected = ["E1", "E2", "E3", "E4", "E5", "E6",
                "L14", "L15", "L16", "L24", "L25", "L26",
                "L34", "L35", "L36", "L45", "L46", "L56",
                "F1", "F2", "F3"]
    with _clock() as t:
        result = run(["lines", "--mode", "nodal"])
        assert result.exit_code == 0
        out = result.output.splitlines()
        assert out[0] == "one-node cubic: 21 lines and the (-2)-curve C"
        labels = [line.split()[0] for line in out[1:-1]]
        assert labels == expected + ["C"]
        assert sum(1 for line in out if "[adjacent to C]" in line) == 6
        assert out[-1] == "adjacent to C: E1 E2 E3 L45 L46 L56"
    assert t.elapsed < 1.0
    print(f"criterion 2: PASS 21-line list verbatim, 6 adjacent to C "
          f"({t.elapsed:.2f}s)")


def test_criterion_3_lct_golden_values():
    goldens = [("x*y*(x + y)", Q(2, 3)), ("y^2 - x^3", Q(5, 6)),
               ("x*y", Q(1))]
    for text, value in goldens:
        f = parse_germ(text)
        with _clock() as t:
            newton = newton_lct(f)
            blowup = blowup_lct(f)
            assert newton.exact and blowup.exact
            assert newton.value == value == blowup.value
        assert t.elapsed < 1.0
    with _clock() as t:
        chain = [(n.a, n.b) for n in resolve_germ(parse_germ("y^2 - x^3")).nodes]
        assert chain == [(1, 2), (2, 3), (4, 6)]
    assert t.elapsed < 1.0
    print("criterion 3: PASS lct(xy(x+y)) = 2/3, lct(y^2-x^3) = 5/6 with "
          "chain (1,2),(2,3),(4,6), lct(xy) = 1, both methods")


def test_criterion_4_multiplicity_bound_property_suite():
    rng = random.Random(20260825)
    agreements = 0
    with _clock() as t:
        for i in range(200):
            f = random_germ(rng)
            k = f.multiplicity
            assert 2 <= k <= 6
            blowup = blowup_lct(f)
            assert Q(1, k) <= blowup.value <= Q(2, k)
            newton = newton_lct(f)
            if newton.exact:
                assert newton.value == blowup.value
                agreements += 1
    assert t.elapsed < 60.0
    assert agreements >= 50  # the sample must actually exercise agreement
    print(f"criterion 4: PASS 200 germs, 1/k <= lct <= 2/k exact, "
          f"{agreements} Newton-exact agreements ({t.elapsed:.1f}s)")


def test_criterion_5_case_solvers():
    with _clock() as t:
        for m in (2, 4, 6):
            rep = solve(encode_case3(m))
            assert rep.forced["mu"] == rep.forced["nu"] == Q(m, 2)
            assert rep.forced["d"] == Q(m)
            assert not rep.integrality_contradiction
    assert t.elapsed < 3.0
    for m in (3, 5):
        with _clock() as t:
            rep = solve(encode_case3(m))
            assert rep.forced["mu"] == Q(m, 2)
            assert rep.integrality_contradiction
        assert t.elapsed < 1.0
    with _clock() as t:
        rep = solve(encode_case2(6))
        assert rep.forced["mu"] == Q(2) and rep.forced["mult_omega"] == Q(8)
        assert not rep.integrality_contradiction
    assert t.elapsed < 1.0
    with _clock() as t:
        assert solve(encode_case2(4)).integrality_contradiction
        assert solve(encode_case2(5)).integrality_contradiction
    assert t.elapsed < 1.0
    with _clock() as t:
        rep = solve(encode_nodal(6))
        assert rep.bounds["mult_s"].upper == 12
        assert rep.bounds["mult_omega"].upper == 5
    assert t.elapsed < 1.0
    print("criterion 5: PASS case 3 forces mu=nu=m/2 and d=m (odd m "
          "contradicts), case 2 at m=6 forces mu=2 and mult_omega=8, "
          "nodal bounds mult_s<=12 mult_omega<=5")


def test_criterion_6_nodal_survivor():
    with _clock() as t:
        verdict = lemma51_scan(2)
        (rec,) = verdict.survivors
        assert rec.candidate == canonical_nodal_survivor(2)
        assert str(rec.candidate) == ("3*C + 1*E1 + 1*E2 + 1*E3 + "
                                      "1*L45 + 1*L46 + 1*L56")
        total = rec.candidate.locus_class() + rec.candidate.residual
        assert total == MINUS_K * 2
        assert lemma51_scan(3).survivors == ()
    assert t.elapsed < 5.0
    print(f"criterion 6: PASS unique m=2 survivor "
          f"3C + (E1+E2+E3+L45+L46+L56) = -2K; none at m=3 "
          f"({t.elapsed:.2f}s)")


def test_criterion_7_smooth_scan_with_reverification():
    smooth = enumerate_negative_curves(SurfaceModel.SMOOTH)
    with _clock() as t:
        total = 0
        for m in (2, 3, 4, 5, 6):
            verdict = lemma31_scan(m, Q(2, 3))
            assert verdict.survivors == ()
            for rec in verdict.records:
                total += 1
                d = rec.candidate
                if rec.reason == NOT_AMPLE:
                    assert d.residual.degree() == 0
                    assert not is_ample(d.locus_class())
                elif rec.reason == PROJECTION_DEGREE:
                    (_, _, mu), = d.parts
                    assert 2 * mu > 3 * m
                elif rec.reason == NEIGHBOR_COUNTING:
                    (lab, cls, mu), = d.parts
                    neighbors = sum(1 for o, c in smooth.items()
                                    if o != lab and cls.intersect(c) > 0)
                    assert neighbors == 10
                    assert neighbors > Q(m + mu) / Q(m, 2)
                else:
                    raise AssertionError(f"unexpected reason {rec.reason!r}")
    assert t.elapsed < 30.0
    print(f"criterion 7: PASS zero survivors for m=2..6 at lam=2/3; all "
          f"{total} contradictions re-verified ({t.elapsed:.1f}s)")


def test_criterion_8_eckardt_checks():
    ex11 = CubicForm.from_dict({
        (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
        (0, 1, 1, 1): 6,
        (2, 1, 0, 0): 1, (2, 0, 1, 0): 2, (2, 0, 0, 1): 3,
    })
    fermat = CubicForm.from_dict({
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
    })
    with _clock() as t:
        assert is_eckardt_on_cubic(ex11, point(1, 0, 0, 0))
    assert t.elapsed < 1.0
    with _clock() as t:
        assert is_eckardt_on_cubic(fermat, point(1, -1, 0, 0))
    assert t.elapsed < 1.0
    with _clock() as t:
        assert not is_eckardt_on_cubic(fermat, point(3, 4, 5, -6))
    assert t.elapsed < 1.0
    print("criterion 8: PASS Eckardt true at (1:0:0:0) on the torus-term "
          "cubic and (1:-1:0:0) on Fermat; false at (3:4:5:-6)")


def test_criterion_9_constraint_engine_grid_oracle():
    rng = random.Random(20260824)
    infeasible = 0
    with _clock() as t:
        for _ in range(100):
            system = _random_system(rng)
            rep = solve(system)
            satisfying = [pt for pt in _grid_points(system.variables, denom=2)
                          if all(c.evaluate(pt) for c in system.constraints)]
            if not rep.feasible:
                assert not satisfying
                infeasible += 1
                continue
            for con in system.constraints:
                assert con.evaluate(rep.witness)
            for pt in satisfying:
                assert _respects_bounds(rep, pt)
    assert t.elapsed < 60.0
    assert infeasible >= 5
    print(f"criterion 9: PASS 100 random systems agree with grid "
          f"enumeration ({infeasible} infeasible) ({t.elapsed:.1f}s)")


def test_criterion_10_invariance_suite():
    goldens = ["y^2 - x^3", "x*y*(x + y)", "x*(y^2 - x^3)", "x*y",
               "x^2*y^3", "y - x^2"]
    rng = random.Random(577215)
    with _clock() as t:
        for text in goldens:
            f = parse_germ(text)
            base = blowup_lct(f).value
            for _ in range(50):
                g = f.compose_linear(*random_unimodular(rng))
                assert blowup_lct(g).value == base
            for k in (2, 3, 4):
                assert blowup_lct(f ** k).value == min(Q(1), base / k)
    assert t.elapsed < 60.0
    print(f"criterion 10: PASS lct invariant under 50 substitutions per "
          f"germ; power law lct(f^k) = min(1, lct/k) for k=2,3,4 "
          f"({t.elapsed:.1f}s)")
