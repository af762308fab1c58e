"""Tests of the benchmark itself: seeded generators, oracles, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import delpezzo  # noqa: E402
from delpezzo import constraints, lct, lemma_verify, plane_config, resolution  # noqa: E402


# -- generators ----------------------------------------------------------------------

GENERATORS = [
    gen.random_germ,
    lambda rng: gen.constructed_germ(rng, 3, 5),
    lambda rng: gen.compose_linear(gen.conjugate_germ(2, 2, 5, 3),
                                   *gen.random_unimodular(rng)),
    gen.general_config,
    gen.concurrent_config,
    lambda rng: gen.fermat_point(rng, False),
    lambda rng: gen.planted_system(rng, 6, 12),
]


@pytest.mark.parametrize("make", GENERATORS)
def test_generators_repeat_per_seed(make):
    assert make(random.Random("a:1")) == make(random.Random("a:1"))
    outputs = {repr(make(random.Random(f"a:{seed}"))) for seed in range(8)}
    assert len(outputs) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_per_seed(name):
    wl = workloads.WORKLOADS[name]
    lib = workloads.load(wl.layers)

    def shape(seed):
        items = wl.make_round(lib, workloads.round_rng(name, seed, 0))
        return [(item.kind, item.props) for item in items]

    assert shape(3) == shape(3)
    cli = [r.argv for r in wl.cli_runs(random.Random(f"{name}:3:cli"))]
    assert cli == [r.argv for r in wl.cli_runs(random.Random(f"{name}:3:cli"))]


def test_planted_point_satisfies_its_rows():
    rows, point = gen.planted_system(random.Random(5), 6, 12)
    assert oracles.witness(rows, True, {v: Fraction(x) for v, x in point.items()}) is None


def test_concurrent_config_is_valid_and_concurrent():
    pts, meet = gen.concurrent_config(random.Random(9))
    assert gen.general_position(pts)
    lines = [gen.cross(pts[a], pts[b]) for a, b in ((0, 1), (2, 3), (4, 5))]
    assert gen.det(lines) == 0
    assert gen.primitive(gen.cross(lines[0], lines[1])) == meet


# -- oracles reject wrong answers -------------------------------------------------------


def _lct_results(text):
    f = delpezzo.parse_germ(text)
    return lct.newton_lct(f), lct.blowup_lct(f), lct.check_mult_bounds(f)


def test_lct_oracle_accepts_and_rejects():
    newton, blowup, bounds = _lct_results("y^2 - x^3")
    expected = oracles.constructed_lct(2, 3)
    assert oracles.lct_pipeline(newton, blowup, bounds, 2, expected) is None
    wrong = dataclasses.replace(blowup, value=Fraction(1, 2))
    assert oracles.lct_pipeline(newton, wrong, bounds, 2, expected) is not None
    assert oracles.lct_pipeline(newton, blowup, bounds, 2, Fraction(1, 2)) is not None
    too_high = dataclasses.replace(blowup, value=Fraction(6, 5))
    assert oracles.lct_pipeline(newton, too_high, bounds, 2) is not None


def test_conjugate_closed_form_rejects_a_wrong_threshold():
    terms = gen.conjugate_germ(2, 2, 5, 2)
    results = _lct_results(gen.poly_text(terms))
    assert oracles.lct_pipeline(*results, 4, oracles.conjugate_lct(2, 2)) is None
    assert oracles.lct_pipeline(*results, 4, oracles.conjugate_lct(3, 2)) is not None


def test_scan_oracle_rejects_wrong_survivors():
    verdict = lemma_verify.lemma51_scan(2)
    assert oracles.scan(verdict, lemma_verify.canonical_nodal_survivor(2)) is None
    assert oracles.scan(verdict) is not None
    assert oracles.scan(lemma_verify.lemma31_scan(3, Fraction(2, 3))) is None


def test_eckardt_oracle_rejects_a_missing_or_moved_point():
    pts, meet = gen.concurrent_config(random.Random(4))
    records = plane_config.eckardt_points(plane_config.load_config(gen.config_text(pts)))
    assert oracles.eckardt(records, pts, meet) is None
    assert oracles.eckardt(records[1:], pts, meet) is not None
    moved = [dataclasses.replace(r, location=plane_config.point(1, 2, 3))
             for r in records]
    assert oracles.eckardt(moved, pts, meet) is not None


def test_fermat_oracle_rejects_a_flipped_verdict():
    assert oracles.fermat(True, True) is None
    assert oracles.fermat(False, True) is not None


def test_witness_and_planted_oracles_reject_bad_reports():
    rows, point = gen.planted_system(random.Random(2), 4, 8)
    system = constraints.parse_system(gen.system_text(rows, point.keys()))
    report = constraints.solve(system)
    assert oracles.planted(rows, report, point) is None
    bad_witness = {v: Fraction(100) for v in point}
    assert oracles.witness(rows, True, bad_witness) is not None
    assert oracles.planted(rows, dataclasses.replace(report, witness=bad_witness),
                           point) is not None
    above = {v: constraints.VarBounds(Fraction(-50), True, Fraction(-40), True)
             for v in point}
    assert oracles.planted(rows, dataclasses.replace(report, bounds=above),
                           point) is not None
    assert oracles.planted(rows, dataclasses.replace(report, feasible=False),
                           point) is not None


def test_text_round_trip_oracle():
    system = constraints.encode_case3(4)
    rows = oracles.rows_of(system)
    text = gen.system_text(rows, system.integer_vars, 4)
    direct = constraints.solve(system)
    parsed = constraints.solve(constraints.parse_system(text, m=4))
    assert oracles.witness(rows, parsed.feasible, parsed.witness) is None
    assert oracles.same_report(direct, parsed) is None
    other = constraints.solve(constraints.encode_case3(6))
    assert oracles.same_report(direct, other) is not None


# -- tracing ------------------------------------------------------------------------------


def test_tracer_wraps_reimports_and_restores_them():
    original = resolution.resolve_germ
    assert lct.resolve_germ is original and delpezzo.resolve_germ is original
    tracer = spans.Tracer(workloads.LAYERS)
    with tracer.installed():
        assert lct.resolve_germ is not original
        assert delpezzo.resolve_germ is lct.resolve_germ is resolution.resolve_germ
        f = delpezzo.parse_germ("y^2 - x^3")
        lct.blowup_lct(f)                 # outside an item: not recorded
        assert tracer.spans == []
        with tracer.item(0, "bench.test"):
            lct.check_mult_bounds(f)
    assert lct.resolve_germ is original and delpezzo.resolve_germ is original
    assert spans.wrapped_attributes() == []
    assert tracer.calls["resolution.resolve_germ"] == 2
    assert tracer.counts["resolution.blowups"] == 6
    names = {span[3] for span in tracer.spans}
    assert {"bench.test", "lct.check_mult_bounds", "lct.blowup_lct"} <= names
    # self times partition the item span's duration
    root = next(s for s in tracer.spans if s[3] == "bench.test")
    assert sum(tracer.self_s.values()) == pytest.approx(root[5] - root[4])


def test_untraced_phase_runs_no_wrapper():
    wl = workloads.WORKLOADS["fm-cases"]
    lib = workloads.load(wl.layers)
    seen = []
    solve = lib.constraints.solve
    item = workloads.Item("probe", (), lambda: seen.append(lib.constraints.solve is solve),
                          lambda result: None)
    phase = run.Phase(wl, lib, 1)
    phase._execute(item)
    assert seen == [True] and spans.wrapped_attributes() == []


def test_deadline_counts_a_hanging_item_as_failed(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        wl = workloads.WORKLOADS["fm-cases"]
        phase = run.Phase(wl, None, 1)
        phase._execute(workloads.Item("hang", (), lambda: time.sleep(5),
                                      lambda result: None))
    finally:
        signal.signal(signal.SIGALRM, previous)
    (kind, _, seconds, status), = phase.records
    assert status == "deadline" and seconds < 1 and phase.failed == 1


def test_wrong_answer_is_a_mismatch():
    wl = workloads.WORKLOADS["fm-cases"]
    phase = run.Phase(wl, None, 1)
    phase._execute(workloads.Item("bad", (), lambda: 1, lambda result: "wrong"))
    assert phase.failed == 1 and phase.mismatches == ["bad: wrong"]
