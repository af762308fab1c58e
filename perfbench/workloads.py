"""The four benchmark workloads: seeded rounds of items, warm-up, CLI runs.

A round is a fixed mix of item kinds, so every run sees the same proportions
and only the concrete inputs change with the seed.  Round r of a seed is
built from its own random stream, so the same (seed, round) always gives
the same items.  Items call the library through module attributes looked up
at call time, which is what lets the traced run put spans around them.

Load is one process with one thread: a closed loop that starts the next item
when the previous one has returned.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import gen
import oracles

LAYERS = ("germs", "lct", "resolution", "lattice", "constraints",
          "plane_config", "lemma_verify", "cli")


@dataclass
class Item:
    kind: str
    props: tuple           # input properties, counted into the run's shares
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class CliRun:
    argv: list
    check: Callable[[dict, object], Optional[str]]   # (json output, library)
    files: dict            # file name -> text, written before the run


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple          # library modules the items call
    make_round: Callable   # (lib, rng) -> list[Item]
    warm_up: Callable      # (lib) -> None: one-time first use before item 1
    cli_runs: Callable     # (rng) -> list[CliRun]
    tail_pct: int          # item_ms_tail percentile: >= 10 items beyond it today
    trace_rounds: int      # rounds in each phase of the traced run


def load(layers) -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"delpezzo.{name}")
                              for name in layers})


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- lct workloads -----------------------------------------------------------------


def _lct_item(lib, kind, props, terms, expected=None) -> Item:
    text, k = gen.poly_text(terms), gen.multiplicity(terms)

    def run():
        f = lib.germs.parse_germ(text)
        return (lib.lct.newton_lct(f), lib.lct.blowup_lct(f),
                lib.lct.check_mult_bounds(f))

    return Item(kind, props, run,
                lambda res: oracles.lct_pipeline(*res, k, expected))


def _lct_warm_up(lib):
    f = lib.germs.parse_germ("y^2 - x^3")
    lib.lct.newton_lct(f), lib.lct.blowup_lct(f), lib.lct.check_mult_bounds(f)


# Every round has each (p, q) once in adapted coordinates and once after a
# substitution, so rounds cost about the same.  Larger shapes such as (4, 9)
# cost up to 0.8 s after a substitution and would make a 15 s run's
# throughput hinge on how many of them the seed happened to draw.
CONSTRUCTED_SHAPES = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5))


def rational_round(lib, rng) -> list:
    items = [_lct_item(lib, "random", (), gen.random_germ(rng)) for _ in range(4)]
    for p, q in CONSTRUCTED_SHAPES:
        for substituted in (False, True):
            terms = gen.constructed_germ(rng, p, q)
            if substituted:
                terms = gen.compose_linear(terms, *gen.random_unimodular(rng))
            items.append(_lct_item(
                lib, "constructed_sub" if substituted else "constructed",
                ("constructed", "substituted" if substituted else "adapted"),
                terms, oracles.constructed_lct(p, q)))
    return items


# (p, k, substituted): squares and cubes of conjugate lines, with r = p*k + 1.
# The k = 2 cube family runs only in adapted coordinates: after a
# substitution it takes about 7.8 s per germ today, too close to the item
# deadline.  Per round the k = 1 germs take about 20 ms, the adapted k = 2
# square 0.1 s, the adapted k = 2 cube 0.5 s and the substituted k = 2 square
# 0.8 s (normalised); the tail percentile (78) sits in the middle of the cube
# group.  r is fixed because the cube's cost halves from r = 7 to r = 8,
# which would split that group in two.
CONJUGATE_FAMILIES = ((2, 1, False), (2, 1, True), (3, 1, False), (3, 1, True),
                      (2, 2, False), (3, 2, False), (2, 2, True))


def conjugate_round(lib, rng) -> list:
    items = []
    for p, k, substituted in CONJUGATE_FAMILIES:
        d = rng.choice(gen.NON_SQUARES if p == 2 else gen.NON_CUBES)
        terms = gen.conjugate_germ(p, k, p * k + 1, d)
        if substituted:
            terms = gen.compose_linear(terms, *gen.random_unimodular(rng))
        # k >= 2 puts the singular points of the first blow-up at conjugate
        # roots, so the resolution has to extend the field
        props = ("substituted" if substituted else "adapted",) + \
            (("extension",) if k >= 2 else ())
        items.append(_lct_item(lib, f"conjugate{p}k{k}", props, terms,
                               oracles.conjugate_lct(p, k)))
    return items


def _lct_cli(text, expected) -> CliRun:
    def check(out, lib):
        values = {r["method"]: Fraction(r["value"]) for r in out["reports"]}
        if values["blowup"] != expected or values["newton"] < expected:
            return f"cli lct gave {values}, expected blowup {expected}"
        return None
    return CliRun(["lct", text, "--json"], check, {})


def rational_cli(rng) -> list:
    p, q = rng.choice(CONSTRUCTED_SHAPES)
    terms = gen.constructed_germ(rng, p, q)
    return [_lct_cli(gen.poly_text(terms), oracles.constructed_lct(p, q))]


def conjugate_cli(rng) -> list:
    d = rng.choice(gen.NON_SQUARES)
    terms = gen.conjugate_germ(2, 2, 5, d)
    return [_lct_cli(gen.poly_text(terms), oracles.conjugate_lct(2, 2))]


# -- geometry-scan -------------------------------------------------------------------


def _parity(m) -> str:
    return "even_m" if m % 2 == 0 else "odd_m"


def geometry_round(lib, rng) -> list:
    lam = Fraction(2, 3)
    items = []
    for m in (2 * rng.randint(1, 8), 2 * rng.randint(1, 8) + 1):
        items.append(Item("lemma31", (_parity(m),),
                          lambda m=m: lib.lemma_verify.lemma31_scan(m, lam),
                          oracles.scan))
    # Two even m per round: the even-m 5.1 scans (about 0.25 s, the simplex
    # behind is_effective) then fill the top 2/9 of items, so the p90 tail
    # sits inside that group and the median inside the 3.1 scans.
    for m in (2 * rng.randint(1, 8), 2 * rng.randint(1, 8), 2 * rng.randint(1, 8) + 1):
        def check(verdict, m=m):
            survivor = (lib.lemma_verify.canonical_nodal_survivor(m)
                        if m % 2 == 0 else None)
            return oracles.scan(verdict, survivor)
        items.append(Item("lemma51", (_parity(m),),
                          lambda m=m: lib.lemma_verify.lemma51_scan(m), check))
    for constructed in (True, False):
        if constructed:
            pts, meet = gen.concurrent_config(rng)
        else:
            pts, meet = gen.general_config(rng), None
        text = gen.config_text(pts)

        def run(text=text):
            cfg = lib.plane_config.load_config(text)
            if not lib.plane_config.validate(cfg).ok:
                raise ValueError("generated configuration failed validation")
            return lib.plane_config.eckardt_points(cfg)
        items.append(Item("eckardt", ("constructed" if constructed else "general",),
                          run, lambda recs, pts=pts, meet=meet:
                          oracles.eckardt(recs, pts, meet)))
    for eckardt in (True, False):
        pt = gen.fermat_point(rng, eckardt)

        def run(pt=pt):
            pc = lib.plane_config
            return pc.is_eckardt_on_cubic(pc.CubicForm.from_dict(gen.FERMAT_TERMS),
                                          pc.point(*pt))
        items.append(Item("fermat", (), run,
                          lambda v, e=eckardt: oracles.fermat(v, e)))
    return items


def geometry_warm_up(lib):
    for model in lib.lattice.SurfaceModel:
        lib.lattice.enumerate_negative_curves(model)


EXPECTED_SURVIVOR_LABELS = ("E1", "E2", "E3", "L45", "L46", "L56")


def geometry_cli(rng) -> list:
    m = 2 * rng.randint(1, 5)
    pts, meet = gen.concurrent_config(rng)

    def lines_check(out, lib):
        if len(out["curves"]) != 27 or len(out["tritangent_triples"]) != 45:
            return "cli lines: expected 27 lines and 45 tritangent triples"
        return None

    def verify_check(out, lib):
        want = f"{3 * m // 2}*C + " + " + ".join(
            f"{m // 2}*{lab}" for lab in EXPECTED_SURVIVOR_LABELS)
        if not out["verified"] or out["survivors"] != [want]:
            return f"cli verify 5.1 m={m}: survivors {out['survivors']}"
        return None

    def eckardt_check(out, lib):
        got = {(tuple(r["triple"]), r["location"]) for r in out["eckardt_points"]}
        if got != oracles.eckardt_expected(pts):
            return f"cli eckardt: {sorted(got)}"
        return None

    return [CliRun(["lines", "--mode", "smooth", "--json"], lines_check, {}),
            CliRun(["verify", "--lemma", "5.1", "--m", str(m), "--json"],
                   verify_check, {}),
            CliRun(["eckardt", "--config", "{config.cfg}", "--json"],
                   eckardt_check, {"config.cfg": gen.config_text(pts)})]


# -- fm-cases ------------------------------------------------------------------------

# Planted random systems stop at 5 x 10: at 6 x 12 about one system in a few
# hundred runs Fourier-Motzkin past the 10 s item deadline today.
RANDOM_SIZES = ((3, 6), (4, 8), (5, 10))
SUBCASES = (None, "q_free", "q_on_l", "q_on_c")


def _hardwired(lib, m) -> list:
    c = lib.constraints
    systems = [("case2", lambda: c.encode_case2(m)),
               ("case3", lambda: c.encode_case3(m))]
    systems += [(f"nodal_{sub or 'base'}", lambda sub=sub: c.encode_nodal(m, sub))
                for sub in SUBCASES]
    return systems


def fm_round(lib, rng) -> list:
    m = rng.randint(2, 30)
    items = []
    for name, encode in _hardwired(lib, m):
        system = encode()
        rows = oracles.rows_of(system)
        text = gen.system_text(rows, system.integer_vars, m)
        direct = {}

        def run(encode=encode):
            return lib.constraints.solve(encode())

        def check(report, rows=rows, direct=direct):
            direct["report"] = report
            return oracles.witness(rows, report.feasible, report.witness)

        def run_text(text=text):
            return lib.constraints.solve(lib.constraints.parse_system(text, m=m))

        def check_text(report, rows=rows, direct=direct):
            bad = oracles.witness(rows, report.feasible, report.witness)
            if bad or "report" not in direct:
                return bad
            return oracles.same_report(direct["report"], report)

        items.append(Item(name, (_parity(m), "encoded"), run, check))
        items.append(Item(name + "_text", (_parity(m), "text"), run_text, check_text))
    for nvars, nrows in RANDOM_SIZES:
        rows, point = gen.planted_system(rng, nvars, nrows)
        text = gen.system_text(rows, point.keys())
        items.append(Item(f"random{nvars}x{nrows}", ("random", "text"),
                          lambda text=text: lib.constraints.solve(
                              lib.constraints.parse_system(text)),
                          lambda rep, rows=rows, point=point:
                          oracles.planted(rows, rep, point)))
    return items


def fm_warm_up(lib):
    lib.constraints.solve(lib.constraints.encode_case2(2))


def fm_cli(rng) -> list:
    m = rng.randint(2, 30)
    rows, point = gen.planted_system(rng, 4, 8)

    def case_check(out, lib):
        system = lib.constraints.encode_nodal(m, "q_on_c")
        wit = {v: Fraction(x) for v, x in out.get("witness", {}).items()}
        return oracles.witness(oracles.rows_of(system), out["feasible"], wit)

    def solve_check(out, lib):
        wit = {v: Fraction(x) for v, x in out.get("witness", {}).items()}
        if not out["feasible"]:
            return "cli solve: planted system reported infeasible"
        return oracles.witness(rows, True, wit)

    return [CliRun(["case", "--id", "nodal", "--m", str(m), "--subcase", "q_on_c",
                    "--json"], case_check, {}),
            CliRun(["solve", "{system.txt}", "--m", str(m), "--json"], solve_check,
                   {"system.txt": gen.system_text(rows, point.keys())})]


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("lct-rational", ("germs", "lct"), rational_round, _lct_warm_up,
             rational_cli, tail_pct=90, trace_rounds=12),
    Workload("lct-conjugate", ("germs", "lct"), conjugate_round, _lct_warm_up,
             conjugate_cli, tail_pct=78, trace_rounds=3),
    Workload("geometry-scan", ("lattice", "plane_config", "lemma_verify"),
             geometry_round, geometry_warm_up, geometry_cli, tail_pct=90,
             trace_rounds=12),
    Workload("fm-cases", ("constraints",), fm_round, fm_warm_up, fm_cli,
             tail_pct=95, trace_rounds=12),
)}
