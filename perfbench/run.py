"""Benchmark for delpezzo: seeded workloads, oracle-checked, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload lct-rational --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics:

  setup_s      median wall time of fresh interpreters that import what the
               workload calls and finish its one-time first use (warm-up)
  items_per_s  correctly answered items per second of item time
  item_ms_p50  median item latency
  item_ms_tail item latency at the workload's tail percentile, which has at
               least ten items beyond it at today's speed (the run reports
               the percentile and the item count)
  cli_cold_s   cold interpreters running delpezzo.cli as __main__ (what
               `python -m delpezzo.cli` does): the median time of each of
               the workload's representative subcommands, averaged over
               the subcommands

Item times are normalised to a fixed machine speed.  The shared 2-core
x86_64 VM of perfbench/baseline.json switches between a fast state and one
about 1.45x slower every few hundred milliseconds to tens of seconds,
whatever code runs, which spread raw 15 s runs by 25-60 %.  So a fixed
pure-Python reference loop is timed between items, and each item's time is
scaled by REFERENCE_S over the mean of the loop times just before and after
it.  Child processes (set-up and CLI runs) start through cold.py, which
times the same loop at the start and end of the child, and are scaled by
those.  The raw figures are in the detail line, as are failed_frac (failed
over attempted items; 0 on every workload today, so it is not a bounded
metric), the share of items with each input property and per-kind timings.

--trace 1 runs a fixed number of rounds twice, untraced and then with spans
around every public function of the library modules (see spans.py), and
reports per-layer calls, self time and counters plus the tracing overhead.
The totals cover the traced rounds and the traced first use (warm-up); a
fixed round count makes every counter repeat exactly for a seed.  Self times
there are raw seconds; the overhead compares normalised item times.
Spans go to perfbench/out/spans-<workload>-<seed>.jsonl.

Every item runs under a deadline; an item that raises, runs past it or gives
an answer its oracle rejects counts as failed.  A rejected answer is printed
as ORACLE MISMATCH, makes `correct` false and the exit code 1.  The metric
names and units are read from BENCHMARK.json.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
from speed import reference_loop  # noqa: E402
from workloads import LAYERS, WORKLOADS, load, round_rng  # noqa: E402

# Slowest items today take about 2 s (substituted conjugate germs); the
# deadline sits well clear of that so failed_frac does not flicker.
DEADLINE_S = 10.0
SETUP_RUNS = 5
CLI_RUNS = 6                # split evenly over the workload's subcommands
# About the reference loop's time in the fast state of the VM that measured
# perfbench/baseline.json, so normalised times read as fast-state time there.
REFERENCE_S = 0.0019
CHILD_TIMEOUT_S = 120


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an item; BaseException so no handler eats it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _child(argv, **kwargs):
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=CHILD_TIMEOUT_S, **kwargs)


def _timed_child(module_argv, **kwargs):
    """(normalised seconds, raw seconds, completed process) of one cold child."""
    start = time.perf_counter()
    proc = _child([sys.executable, str(HERE / "cold.py"), *module_argv], **kwargs)
    raw = time.perf_counter() - start
    tag, before, after = proc.stderr.splitlines()[-1].split()
    if tag != "reference":
        raise RuntimeError(f"child did not report its reference loops: {proc.stderr[-300:]}")
    return raw * REFERENCE_S / ((float(before) + float(after)) / 2), raw, proc


# -- setup and cold CLI ------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Body of one fresh-interpreter setup measurement."""
    wl = WORKLOADS[name]
    wl.warm_up(load(wl.layers))
    print(json.dumps({"sympy_loaded": "sympy" in sys.modules}))


def measure_setup(name: str) -> tuple[float, float]:
    """(normalised, raw) median set-up seconds."""
    probe = ["run", "--setup-probe", name]
    _timed_child(probe, check=True)              # compiles .pyc; not timed
    runs = [_timed_child(probe, check=True) for _ in range(SETUP_RUNS)]
    return (statistics.median(n for n, _, _ in runs),
            statistics.median(r for _, r, _ in runs))


def sympy_import_profile(name: str) -> tuple[float, bool]:
    """(cumulative sympy import seconds, sympy loaded) from -X importtime."""
    proc = _child([sys.executable, "-X", "importtime", str(HERE / "run.py"),
                   "--setup-probe", name], check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])["sympy_loaded"]
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "sympy":
            return int(fields[1]) / 1e6, loaded
    return 0.0, loaded


def run_cli(wl, seed: int):
    runs = wl.cli_runs(random.Random(f"{wl.name}:{seed}:cli"))
    OUT.mkdir(exist_ok=True)
    argvs = []
    for run in runs:
        paths = {}
        for fname, text in run.files.items():
            path = OUT / f"{wl.name}-{fname}"
            path.write_text(text, encoding="utf-8")
            paths["{" + fname + "}"] = str(path)
        argvs.append([paths.get(arg, arg) for arg in run.argv])
    times, raw, results = [], [], []
    for run, argv in zip(runs, argvs):
        reps = [_timed_child(["delpezzo.cli", *argv])
                for _ in range(CLI_RUNS // len(runs))]
        times.append(statistics.median(seconds for seconds, _, _ in reps))
        raw.append(statistics.median(wall for _, wall, _ in reps))
        results += [(run, argv, proc) for _, _, proc in reps]
    return statistics.mean(times), statistics.mean(raw), results


# -- items -------------------------------------------------------------------------


class Phase:
    """Runs rounds of items and keeps (kind, props, seconds, status) records.

    seconds is the normalised item time; raw wall times are kept apart.
    """

    def __init__(self, wl, lib, seed: int, tracer=None):
        self.wl, self.lib, self.seed, self.tracer = wl, lib, seed, tracer
        self.records: list[tuple] = []
        self.raw: list[float] = []
        self.mismatches: list[str] = []
        self._speed = reference_loop()

    def run(self, rounds, stop_at=None) -> "Phase":
        for index in rounds:
            for item in self.wl.make_round(self.lib, round_rng(self.wl.name, self.seed, index)):
                self._execute(item)
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
        return self

    def _execute(self, item) -> None:
        result, status = None, "ok"
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = item.run()
            else:
                with self.tracer.item(len(self.records), f"bench.{item.kind}"):
                    result = item.run()
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:                 # a library failure is data here
            status = "error"
            print(f"item error [{self.wl.name} {item.kind}]: {exc!r}", file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        before, self._speed = self._speed, reference_loop()
        self.raw.append(elapsed)
        elapsed *= REFERENCE_S / ((before + self._speed) / 2)
        if status == "ok":
            try:
                reason = item.check(result)
            except Exception as exc:             # a malformed answer is a wrong one
                reason = f"oracle raised {exc!r}"
            if reason is not None:
                status = "wrong"
                self.mismatches.append(f"{item.kind}: {reason}")
                print(f"ORACLE MISMATCH [{self.wl.name} {item.kind}]: {reason}",
                      file=sys.stderr)
        self.records.append((item.kind, item.props, elapsed, status))

    @property
    def failed(self) -> int:
        return sum(status != "ok" for *_, status in self.records)

    def durations(self) -> list[float]:
        return [seconds for _, _, seconds, _ in self.records]

    def shares(self) -> dict:
        """Share of items carrying each input property."""
        counts: dict[str, int] = {}
        for _, props, _, _ in self.records:
            for prop in props:
                counts[prop] = counts.get(prop, 0) + 1
        return {prop: n / len(self.records) for prop, n in sorted(counts.items())}

    def kinds(self) -> dict:
        """Item count and median milliseconds per item kind."""
        by_kind: dict[str, list] = {}
        for kind, _, seconds, _ in self.records:
            by_kind.setdefault(kind, []).append(seconds)
        return {kind: {"items": len(v), "ms_p50": statistics.median(v) * 1000}
                for kind, v in sorted(by_kind.items())}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def metric_specs(section: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


# -- the two modes -----------------------------------------------------------------


def end_to_end(wl, seed: int, seconds: float):
    setup_s, setup_raw = measure_setup(wl.name)
    cli_cold_s, cli_raw, cli_results = run_cli(wl, seed)

    lib = load(wl.layers)
    wl.warm_up(lib)
    phase = Phase(wl, lib, seed).run(itertools.count(),
                                     stop_at=time.perf_counter() + seconds)

    cli_failed = 0
    for run, argv, proc in cli_results:
        reason = (f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                  if proc.returncode else None)
        if reason is None:
            try:
                reason = run.check(json.loads(proc.stdout), lib)
            except (ValueError, KeyError) as exc:
                reason = f"unreadable output {exc!r}"
            if reason is not None:
                phase.mismatches.append(f"cli {argv[0]}: {reason}")
                print(f"ORACLE MISMATCH [{wl.name} cli {argv[0]}]: {reason}",
                      file=sys.stderr)
        cli_failed += reason is not None

    durations = phase.durations()
    ok = len(durations) - phase.failed
    tail = percentile(durations, wl.tail_pct)
    values = {
        "setup_s": setup_s,
        "items_per_s": ok / sum(durations),
        "item_ms_p50": statistics.median(durations) * 1000,
        "item_ms_tail": tail * 1000,
        "cli_cold_s": cli_cold_s,
    }
    detail = {
        "workload": wl.name, "seed": seed, "items": len(durations),
        "failed_frac": phase.failed / len(durations),
        "tail_percentile": wl.tail_pct,
        "items_beyond_tail": sum(d > tail for d in durations),
        "item_seconds": sum(durations),
        "raw": {"items_per_s": ok / sum(phase.raw),
                "item_ms_p50": statistics.median(phase.raw) * 1000,
                "item_ms_tail": percentile(phase.raw, wl.tail_pct) * 1000,
                "setup_s": setup_raw, "cli_cold_s": cli_raw},
        "cli_runs": len(cli_results), "cli_failed": cli_failed,
        "deadline_s": DEADLINE_S, "input_shares": phase.shares(),
        "item_kinds": phase.kinds(),
    }
    return values, detail, phase, len(cli_results), cli_failed


def traced(wl, seed: int):
    import_sympy_s, sympy_loaded = sympy_import_profile(wl.name)
    lib = load(wl.layers)
    tracer = spans.Tracer(LAYERS)
    # The first use is traced as item -1, so one-time costs such as the
    # 27-line enumeration show in the per-layer totals.
    with tracer.installed(), tracer.item(-1, "bench.warm_up"):
        wl.warm_up(lib)
    if spans.wrapped_attributes():
        raise RuntimeError("library wrapped before the untraced phase")
    # Both halves run the same rounds, so the difference between them is the
    # tracing cost plus run-to-run noise.
    plain = Phase(wl, lib, seed).run(range(wl.trace_rounds))
    with tracer.installed():
        phase = Phase(wl, lib, seed, tracer).run(range(wl.trace_rounds))
    leftover = spans.wrapped_attributes()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{seed}.jsonl")
    n = len(phase.records)
    plain_ms = sum(plain.durations()) / len(plain.records) * 1000
    traced_ms = sum(phase.durations()) / n * 1000
    newton_calls = tracer.calls.get("lct.newton_lct", 0)
    item_resolves = sum(1 for span in tracer.spans if span and span[2] >= 0
                        and span[3] == "resolution.resolve_germ")
    derived = {
        "lct.newton_exact_ratio": (tracer.counts["lct.newton_exact"] / newton_calls
                                   if newton_calls else 0.0),
        "resolution.resolves_per_item": item_resolves / n,
        "setup.import_sympy_s": import_sympy_s,
        "setup.sympy_loaded": int(sympy_loaded),
        "trace.overhead_ms_per_item": traced_ms - plain_ms,
        "trace.overhead_frac": (traced_ms - plain_ms) / plain_ms,
        "trace.items": n,
        "trace.spans": len(tracer.spans),
        **tracer.counts,
    }
    values = {}
    for spec in metric_specs("per_layer"):
        name = spec["name"]
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = tracer.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s.get(name[:-len(".self_s")], 0.0)
        else:
            raise KeyError(f"no source for per-layer metric {name}")
    detail = {
        "workload": wl.name, "seed": seed, "rounds": wl.trace_rounds,
        "untraced_ms_per_item": plain_ms, "traced_ms_per_item": traced_ms,
        "input_shares": phase.shares(),
        "calls": dict(sorted(tracer.calls.items())),
        "self_s": dict(sorted(tracer.self_s.items())),
        "counts": tracer.counts,
    }
    (OUT / f"layers-{wl.name}-{seed}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return values, detail, [plain, phase]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"error: no delpezzo sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGALRM, _alarm)
    wl = WORKLOADS[args.workload]

    if args.trace:
        values, detail, phases = traced(wl, args.seed)
        specs = metric_specs("per_layer")
        attempted = sum(len(p.records) for p in phases)
        failed = sum(p.failed for p in phases)
        mismatches = [m for p in phases for m in p.mismatches]
    else:
        values, detail, phase, cli_runs, cli_failed = end_to_end(wl, args.seed, args.seconds)
        specs = metric_specs("end_to_end")
        attempted = len(phase.records) + cli_runs
        failed = phase.failed + cli_failed
        mismatches = phase.mismatches

    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']:>40} = {values[spec['name']]} {spec['unit']}")
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
