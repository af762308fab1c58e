"""Case analysis scans over the anticanonical degree budget.

The exclusion counts below are frozen: they pin down both the candidate
enumeration (which supports are even considered) and the order of the
rejection tests, so any change to either shows up as a count diff.
"""

import functools
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cli_runner import run
from delpezzo import lemma_verify
from delpezzo.germs import parse_germ
from delpezzo.lattice import (C, E, L, MINUS_K, SurfaceModel, curve_incidences,
                              is_ample, is_effective)
from delpezzo.lct import blowup_lct
from delpezzo.lemma_verify import (DEGREE_OVERFLOW, INTERSECTION_VIOLATION,
                                   Decomposition,
                                   MAX_SCAN_M, NOT_AMPLE, PROJECTION_DEGREE,
                                   RESIDUAL_NOT_EFFECTIVE,
                                   alpha1_report, canonical_nodal_survivor,
                                   classify_smooth_candidate, decomposition,
                                   degree_budget_check, lemma31_scan,
                                   lemma51_scan)
from delpezzo.plane_config import SixPointConfig, point

Q = Fraction


def _config(*rows, mode=SurfaceModel.SMOOTH):
    return SixPointConfig(tuple(point(*r) for r in rows), mode)


SMOOTH_COUNTS = {
    2: {"not-ample": 162, "neighbor-counting": 27, "projection-degree": 81},
    3: {"projection-degree": 135},
    4: {"not-ample": 162, "neighbor-counting": 27, "projection-degree": 162},
    5: {"projection-degree": 216},
    6: {"not-ample": 162, "neighbor-counting": 27, "projection-degree": 243},
}


@pytest.mark.parametrize("m", sorted(SMOOTH_COUNTS))
def test_smooth_scan_excludes_everything(m):
    verdict = lemma31_scan(m, Q(2, 3))
    assert verdict.survivors == ()
    assert verdict.counts_by_reason() == SMOOTH_COUNTS[m]
    assert verdict.label == f"smooth-model locus scan: m={m}, lam=2/3"


def test_smooth_scan_smaller_lambda_shrinks_the_pool():
    verdict = lemma31_scan(2, Q(1, 2))
    assert verdict.counts_by_reason() == {"projection-degree": 81}
    assert verdict.survivors == ()


def test_smooth_scan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lemma31_scan(1, Q(2, 3))
    with pytest.raises(ValueError):
        lemma31_scan(2, Q(3, 4))
    with pytest.raises(ValueError):
        lemma31_scan(2, Q(0))


@pytest.mark.parametrize("call, message", [
    (lambda: lemma31_scan(4.9, Q(2, 3)), "as an integer"),
    (lambda: lemma31_scan(4, 0.6), "floating point"),
    (lambda: lemma31_scan(4, "2/3"), "poly.rational"),
    (lambda: lemma51_scan(3.7), "as an integer"),
    (lambda: decomposition(2, Q(2, 3), [("E1", E(1), 8.9)]), "as an integer"),
    (lambda: canonical_nodal_survivor(4.0), "as an integer"),
], ids=["lemma31-m", "lemma31-float-lam", "lemma31-text-lam", "lemma51-m",
        "decomposition-mu", "nodal-survivor-m"])
def test_scans_refuse_inexact_levels_and_thresholds(call, message):
    # int() would truncate 4.9 to 4 and Fraction() would read 0.6's binary
    # value or the text "2/3", each scanning a case nobody asked for
    with pytest.raises(TypeError, match=message):
        call()


def test_smooth_scan_caps_m_before_enumerating():
    # about 40 records per unit of m, so the cap refuses before building any
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"m <= {MAX_SCAN_M} required"):
        lemma31_scan(MAX_SCAN_M + 1, Q(2, 3))
    assert time.perf_counter() - start < 0.1


def test_classifier_enforces_the_coefficient_floor():
    # a single line with multiplicity below m/lam is not a candidate at all
    d = decomposition(2, Q(2, 3), [("E1", E(1), 2)])
    with pytest.raises(ValueError):
        classify_smooth_candidate(d)


@pytest.mark.parametrize("lam, parts", [
    (1, [("E1", E(1), 2), ("L12", L(1, 2), 2)]),
    (1, [("E1", E(1), 2)]),
    (0, [("E1", E(1), 2)]),
    (-1, [("E1", E(1), 2)]),
    (3, [("E1", E(1), 1), ("E2", E(2), 1), ("E3", E(3), 1)]),
], ids=["two-parts-at-1", "neighbour-count-at-1", "zero", "negative", "three-lines-at-3"])
def test_classifier_refuses_thresholds_outside_the_case_analysis(lam, parts):
    # the shapes and the neighbour count assume coefficients >= 3m/2; above
    # 2/3 a candidate reached a bare assert, a wrong reason or an unpacking
    # error, and 0 a division by zero
    with pytest.raises(ValueError, match=r"^threshold lam must lie in \(0, 2/3\]$"):
        classify_smooth_candidate(decomposition(2, lam, parts))


def test_classifier_refuses_an_empty_locus():
    with pytest.raises(ValueError, match="^the locus must have at least one curve$"):
        classify_smooth_candidate(decomposition(2, Q(2, 3), []))


@pytest.mark.parametrize("m", [0, 1, -2])
def test_classifier_refuses_m_below_two(m):
    # m = 0 divided by zero in the neighbour count
    with pytest.raises(ValueError, match="^m >= 2 required$"):
        classify_smooth_candidate(decomposition(m, Q(2, 3), [("E1", E(1), 0)]))


def test_classifier_refuses_a_curve_of_degree_zero():
    # -K is ample, so no curve has degree <= 0; the degree-0 class X made a
    # two-part locus that does not exhaust the budget and hit a bare assert
    parts = [("E1", E(1), 3), ("X", E(1) - E(2), 3)]
    with pytest.raises(ValueError, match="^X has degree 0; every curve on the "
                                         "smooth cubic has positive degree$"):
        classify_smooth_candidate(decomposition(2, Q(2, 3), parts))


def test_decomposition_refuses_negative_coefficients():
    with pytest.raises(ValueError, match="^locus coefficients must be non-negative$"):
        decomposition(2, Q(2, 3), [("E1", E(1), -1)])


def test_classifier_flags_degree_overflow():
    d = decomposition(2, Q(2, 3), [("E1", E(1), 7)])
    rec = classify_smooth_candidate(d)
    assert rec.reason == DEGREE_OVERFLOW
    assert "exceeds the budget" in rec.detail


@pytest.mark.parametrize("label, cls", [("X", E(1)), ("E1", E(2))])
def test_classifier_neighbour_count_needs_one_of_the_27_lines(label, cls):
    # 2*mu = 3m: a single part reaches the count of the lines it meets
    assert classify_smooth_candidate(
        decomposition(2, Q(2, 3), [("E1", E(1), 3)])).reason == "neighbor-counting"
    with pytest.raises(ValueError, match="not one of the 27 lines"):
        classify_smooth_candidate(decomposition(2, Q(2, 3), [(label, cls, 3)]))


def test_degree_budget_check():
    good = decomposition(2, Q(2, 3), [("E1", E(1), 3)])
    assert degree_budget_check(good)
    # residual degree goes negative once the support overspends the budget
    bad = decomposition(2, Q(2, 3), [("E1", E(1), 7)])
    assert not degree_budget_check(bad)


def test_smooth_records_carry_reverifiable_details():
    verdict = lemma31_scan(2, Q(2, 3))
    for rec in verdict.records:
        d = rec.candidate
        assert d.m == 2 and d.lam == Q(2, 3)
        if rec.reason == NOT_AMPLE:
            assert not is_ample(d.locus_class())
        elif rec.reason == PROJECTION_DEGREE:
            (_, _, mu), = d.parts
            assert 2 * mu > 3 * d.m


NODAL_EVEN_COUNTS = {"survivor": 1, "intersection-violation": 57,
                     "residual-not-effective": 90}


@pytest.mark.parametrize("m", [2, 4])
def test_nodal_scan_unique_survivor(m):
    verdict = lemma51_scan(m)
    assert verdict.counts_by_reason() == NODAL_EVEN_COUNTS
    (rec,) = verdict.survivors
    assert rec.survived and rec.reason is None
    assert rec.candidate == canonical_nodal_survivor(m)
    assert verdict.label == f"nodal-model locus scan: m={m}, lam=2/3"


def test_nodal_survivor_strings():
    v2 = lemma51_scan(2)
    assert str(v2.survivors[0].candidate) == (
        "3*C + 1*E1 + 1*E2 + 1*E3 + 1*L45 + 1*L46 + 1*L56")
    v4 = lemma51_scan(4)
    assert str(v4.survivors[0].candidate) == (
        "6*C + 2*E1 + 2*E2 + 2*E3 + 2*L45 + 2*L46 + 2*L56")


def test_nodal_scan_odd_multiple_is_empty():
    verdict = lemma51_scan(3)
    assert verdict.survivors == ()
    assert verdict.counts_by_reason() == {"half-integral": 121,
                                          "intersection-violation": 27}


def test_nodal_scan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lemma51_scan(1)


def test_canonical_survivor_identity():
    for m in (2, 4, 6):
        d = canonical_nodal_survivor(m)
        total = d.locus_class() + d.residual
        assert total == MINUS_K * m
        assert d.residual_is_effective(SurfaceModel.NODAL)
    with pytest.raises(ValueError):
        canonical_nodal_survivor(3)


@pytest.mark.parametrize("m", range(2, 41, 2))
def test_canonical_survivor_is_the_lattice_identity_with_its_six_lines(m):
    # the construction it had when it re-sorted the lines and re-validated its
    # parts on every call
    cand = decomposition(m, Q(2, 3), [("C", C, 3 * m // 2)])
    adjacent = sorted(lab for lab, k in curve_incidences(SurfaceModel.NODAL)["C"].items()
                      if k == 1)
    assert canonical_nodal_survivor(m) == Decomposition(
        m, cand.lam, cand.parts, cand.residual, tuple((lab, Q(m, 2)) for lab in adjacent))


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_the_node_alone_survivor_asks_no_effectivity_test(monkeypatch, m):
    # Omega = (m/2)(sum of the six adjacent lines) is a sum of curves: the
    # lattice identity makes it effective, and the six lines are its witness.
    # No other nodal shape asks either: the line pairs are decided by the
    # degree-0 argument as the shape table is built, here afresh.
    def refuse(*args):
        raise AssertionError("is_effective called")

    monkeypatch.setattr(lemma_verify, "is_effective", refuse)
    monkeypatch.setattr(lemma_verify, "_nodal_shapes", functools.cache(
        lemma_verify._nodal_shapes.__wrapped__))
    (rec,) = lemma51_scan(m).survivors
    assert rec.candidate.residual_support == tuple(
        (lab, Q(m, 2)) for lab in ("E1", "E2", "E3", "L45", "L46", "L56"))
    assert 2 * rec.candidate.residual == m * sum(
        (L(4, 5), L(4, 6), L(5, 6)), E(1) + E(2) + E(3))


@pytest.mark.parametrize("m", [0, 1, -2])
def test_canonical_survivor_refuses_m_below_two(m):
    # m = 0 gave 0*C with an empty residual, a degenerate "survivor"
    with pytest.raises(ValueError, match="^m >= 2 required$"):
        canonical_nodal_survivor(m)


def test_nodal_survivor_locus_is_a_multiple_of_c():
    d = canonical_nodal_survivor(4)
    locus = d.locus_class()
    # 6C + 2(E1+E2+E3) + 2(L45+L46+L56) lands on (6; 6,6,6,0,0,0) = 6C
    assert locus == C * 6
    assert locus.degree() == 0 and locus.square() == -72


def _canonical_key(rec):
    parts = rec.candidate.parts
    return (tuple(lab for lab, _, _ in parts), tuple(mu for _, _, mu in parts))


@pytest.mark.parametrize("lam", [None, "2/3", "3/5", "1/2"],
                         ids=["lemma51", "lemma31-2/3", "lemma31-3/5", "lemma31-1/2"])
def test_records_come_in_canonical_order(lam):
    # the scans emit their shape tables in order and sort nothing; the pins
    # below reach m = 17 (m = 8 below 2/3), this reaches m = 40
    for m in range(2, 41):
        verdict = lemma51_scan(m) if lam is None else lemma31_scan(m, Q(lam))
        keys = [_canonical_key(r) for r in verdict.records]
        assert all(a < b for a, b in zip(keys, keys[1:])), m


@pytest.mark.parametrize("m", range(2, 41, 2))
def test_line_pairs_are_refuted_exactly_when_their_residual_is_not_effective(m):
    # the scan decides each pair once by the degree-0 argument (the residual
    # is (m/2)(-2K - 3(C1 + C2)), effective iff a multiple k >= 0 of C); here
    # every even m asks is_effective, the cone facets, of the residual itself
    pairs = [r for r in lemma51_scan(m).records
             if len(r.candidate.parts) == 2
             and all(lab != "C" for lab, _, _ in r.candidate.parts)]
    assert len(pairs) == 75
    for rec in pairs:
        effective = is_effective(rec.candidate.residual, SurfaceModel.NODAL)
        assert (rec.reason == RESIDUAL_NOT_EFFECTIVE) == (not effective), rec.line()
        assert rec.reason in (None, RESIDUAL_NOT_EFFECTIVE)


def test_the_largest_scans_are_pinned():
    verdict = lemma31_scan(MAX_SCAN_M, Q(2, 3))
    assert MAX_SCAN_M == 1000 and len(verdict.records) == 40_689
    assert verdict.counts_by_reason() == {"not-ample": 162, "neighbor-counting": 27,
                                          "projection-degree": 40_500}
    assert verdict.survivors == ()
    verdict = lemma51_scan(100_000)
    assert len(verdict.records) == 148
    assert verdict.counts_by_reason() == NODAL_EVEN_COUNTS
    (rec,) = verdict.survivors
    assert rec.candidate == canonical_nodal_survivor(100_000)


def test_intersection_violation_records_are_genuine():
    verdict = lemma51_scan(2)
    flagged = [r for r in verdict.records if r.reason == INTERSECTION_VIOLATION]
    assert len(flagged) == 57
    assert all(r.detail for r in flagged)


def test_verdict_report_format():
    verdict = lemma51_scan(3)
    lines = verdict.report().splitlines()
    assert lines[0] == "nodal-model locus scan: m=3, lam=2/3"
    assert lines[1] == "148 candidates, 0 survivors"
    assert all(line.startswith("  ") for line in lines[2:])
    assert any("half-integral" in line for line in lines)


def test_record_line_format():
    (rec,) = lemma51_scan(2).survivors
    line = rec.line()
    assert line.startswith("3*C + 1*E1 + 1*E2 + 1*E3 + 1*L45 + 1*L46 + 1*L56"
                           ": SURVIVOR -- ")
    assert "identity in the lattice" in line
    flagged = next(r for r in lemma51_scan(2).records if not r.survived)
    assert f": {flagged.reason} -- " in flagged.line()


FRAME_A = _config((1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (1, 1, 1), (1, 2, 3), (1, 4, 9))
FRAME_PLAIN = _config((1, 0, 0), (0, 1, 0), (0, 0, 1),
                      (1, 1, 1), (1, 2, 5), (2, 7, 1))
FRAME_NODAL = _config((1, 0, 0), (0, 1, 0), (1, 1, 0),
                      (0, 0, 1), (2, 1, 1), (1, 2, 3), mode=SurfaceModel.NODAL)


def test_alpha1_sharp_when_three_lines_concur():
    report = alpha1_report(FRAME_A)
    assert report.value == Q(2, 3)
    assert report.final
    assert str(report) == ("alpha_1 = 2/3 (exact; three concurrent lines "
                           "{E3, F6, L36} infinitely near p3)")


def test_alpha1_upper_bound_without_eckardt_points():
    report = alpha1_report(FRAME_PLAIN)
    assert report.value == Q(1)
    assert not report.final
    assert str(report) == ("alpha_1 <= 1 (upper bound only; triangles of "
                           "coplanar lines only reach normal crossings)")


@pytest.mark.parametrize("config, germ", [
    (FRAME_A, "x*y*(x+y)"), (FRAME_PLAIN, "x*y")])
def test_alpha1_threshold_agrees_with_the_resolution(config, germ):
    # alpha1_report reads the threshold off the Newton polygon; the
    # blow-up resolution is the independent oracle
    assert alpha1_report(config).value == blowup_lct(parse_germ(germ)).value


def test_alpha1_rejects_nodal_configurations():
    with pytest.raises(ValueError):
        alpha1_report(FRAME_NODAL)


# -- pinned reports --------------------------------------------------------------

# Report digests, reason counts and survivor lines of the scans, and the bytes
# of `delpezzo verify --lemma 5.1 --json`, as the simplex-based effectivity
# test produced them.  Every reason, detail and survivor line enters the
# digest, so no effectivity verdict can flip without failing here.
PINNED = json.loads((Path(__file__).parent / "data" / "scan_reports.json").read_text())


def _pinned_summary(verdict):
    return {"sha256": hashlib.sha256(verdict.report().encode()).hexdigest(),
            "candidates": len(verdict.records),
            "counts_by_reason": dict(sorted(verdict.counts_by_reason().items())),
            "survivors": [r.line() for r in verdict.survivors]}


@pytest.mark.parametrize("m", range(2, 18))
def test_lemma51_reports_are_pinned(m):
    assert _pinned_summary(lemma51_scan(m)) == PINNED["lemma51"][str(m)]


@pytest.mark.parametrize("m", range(2, 18))
def test_lemma31_reports_are_pinned(m):
    assert _pinned_summary(lemma31_scan(m, Q(2, 3))) == PINNED["lemma31"][str(m)]


@pytest.mark.parametrize("lam", ["1/2", "3/5"])
@pytest.mark.parametrize("m", range(2, 9))
def test_lemma31_reports_below_two_thirds_are_pinned(m, lam):
    assert _pinned_summary(lemma31_scan(m, Q(lam))) == PINNED["lemma31_lam"][lam][str(m)]


@pytest.mark.parametrize("m", range(2, 13))
def test_verify_51_json_is_pinned(m):
    out = run(["verify", "--lemma", "5.1", "--m", str(m), "--json"])
    assert out.exit_code == 0
    assert hashlib.sha256(out.output.encode()).hexdigest() == \
        PINNED["cli_verify_51_json"][str(m)]
