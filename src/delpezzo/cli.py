"""Command-line frontend: every toolkit operation behind one entry point.

`parse` reads the arguments with argparse, one subparser per command, and
`COMMANDS` maps each command to its (build, text) pair: `build` returns the
command's one result, which `text` or --json writes.
Exit codes follow a fixed contract: 0 on success (for `verify`, success means
the scan reached the expected conclusion), 1 on a domain error such as a bad
mode name, an unparseable polynomial or a DELPEZZO_MAX_BLOWUPS value that is
not a non-negative integer, 2 when the resolution engine exhausts its blow-up
budget (that environment variable raises it), and 64 (EX_USAGE in sysexits.h)
on a usage error such as a missing argument, an extra argument or an unknown
option.  --help is the one help flag, so `lct -h` reads `-h` as a germ.
Every domain error the library raises is a ValueError, and `main` maps it to
exit 1 with its message in one place, as it maps a blown budget to exit 2; no
command catches one.  Every number read from text (configuration coordinates,
cubic coefficients, `--point`, `--lambda`) goes through `poly.rational`, the
polynomial grammar.
All rational output is lowest-terms p/q, every command is deterministic, and
`--json` emits the same fields, except the per-candidate records `verify` prints.
Each command imports the library modules it calls inside its own body, so a
cold process loads only what its command reads.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

#: exit code of a command-line usage error (sysexits.h)
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """A parser whose one help flag is --help and whose usage errors exit EX_USAGE."""

    def __init__(self, **settings):
        super().__init__(add_help=False, allow_abbrev=False, **settings)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


_PARSER = _Parser(prog="delpezzo", description="Exact tools for lines, "
                  "thresholds and locus scans on cubic surfaces.")
_SUBPARSERS = _PARSER.add_subparsers(dest="command", metavar="COMMAND")
#: command name -> (build, text); `parse` reads the options `build` takes
COMMANDS = {}
#: command name -> its options that take a value
_VALUED = {}


def parse(argv):
    """The command `argv` runs, and the options its build function takes.
    An option that takes a value reads the next word, even `-1/2`, as it."""
    words, valued = iter(argv[1:]), _VALUED.get(argv[0] if argv else None, ())
    argv = list(argv[:1])
    for word in words:
        if word == "--":
            valued = ()
        elif word in valued and (value := next(words, None)) is not None:
            word = f"{word}={value}"   # how argparse takes a value like -1/2
        argv.append(word)
    namespace, extra = _PARSER.parse_known_args(argv)
    options = vars(namespace)
    name = options.pop("command")
    parser = _SUBPARSERS.choices.get(name, _PARSER)
    if options.get("germ_text", "") is None and extra:  # a germ that starts with '-'
        options["germ_text"] = extra.pop(0)
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    if None in (name, options.get("germ_text", "")):
        parser.error("the following arguments are required: "
                     + ("GERM" if name else "COMMAND"))
    return name, options


def main(argv=None):
    """Run the command in `argv` (by default the process's arguments)."""
    name, options = parse(sys.argv[1:] if argv is None else argv)
    try:
        _write(*COMMANDS[name], **options)
    except ValueError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    except RuntimeError as exc:
        # only a command that resolved a germ can have blown the budget
        resolution = sys.modules.get("delpezzo.resolution")
        if resolution is None or not isinstance(exc, resolution.DepthExceededError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


@dataclass(frozen=True)
class _Scan:  # verify's result: `summary` is its JSON, `verdict` feeds its text
    summary: dict
    verdict: object  # the scan's lemma_verify.CaseVerdict


# the reports whose JSON is their fields, named so that writing a result
# imports no module the command did not
_REPORTS = {("delpezzo.lct", "LctReport"),
            ("delpezzo.lemma_verify", "Alpha1Report"),
            ("delpezzo.plane_config", "EckardtRecord")}


def _plain(x):
    """What json cannot write: a report's fields, a scan's summary, else text."""
    if (type(x).__module__, type(x).__qualname__) in _REPORTS:
        return vars(x)
    return x.summary if isinstance(x, _Scan) else str(x)


def _write(build, text, as_json, **options):
    # the one place a result is written, and where a failed scan exits 1
    result = build(**options)
    print(json.dumps(result, default=_plain, sort_keys=True, indent=2)
          if as_json else text(result))
    if isinstance(result, _Scan) and not result.summary["verified"]:
        sys.exit(1)


def _command(name, text, *arguments, **settings):
    """Register `build` as command `name`; `text` renders the result it returns."""
    def register(build):
        parser = _SUBPARSERS.add_parser(name, help=build.__doc__,
                                        description=build.__doc__, **settings)
        for *flags, options in arguments:  # the flags or name, then the settings
            action = parser.add_argument(*flags, **options)
            if action.nargs is None:  # positionals have no option strings
                _VALUED.setdefault(name, set()).update(action.option_strings)
        parser.add_argument("--json", action="store_true", dest="as_json", help="Emit JSON.")
        COMMANDS[name] = build, text
        return build
    return register


def _read(path):
    # plain open so a missing file is a domain error (exit 1), not usage
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None


# -- lines --------------------------------------------------------------------

def _lines_text(data):
    nodal = data["mode"] == "nodal"
    out = ["one-node cubic: 21 lines and the (-2)-curve C" if nodal else "smooth cubic: 27 lines"]
    for row in data["curves"]:
        mark = "  [adjacent to C]" if row.get("adjacent_to_C") else ""
        out.append(f"  {row['label']:<4}{row['class']}  meets {row['meets']}{mark}")
    if nodal:
        out.append("adjacent to C: " + " ".join(data["adjacent_to_C"]))
    else:
        out.append(f"tritangent triples: {len(data['tritangent_triples'])}")
        out += ["  " + " ".join(t) for t in data["tritangent_triples"]]
    return "\n".join(out)


@_command("lines", _lines_text,
          ("--mode", dict(default="smooth", metavar="MODE",
                          help="Surface model: smooth or nodal (default: smooth).")))
def cmd_lines(mode):
    """List the negative curves with their incidence degrees."""
    from .lattice import (SurfaceModel, curve_incidences,
                          enumerate_negative_curves, tritangent_triples)
    if mode not in ("smooth", "nodal"):
        raise ValueError(f"unknown mode {mode!r}; expected smooth or nodal")
    model = SurfaceModel(mode)
    curves = enumerate_negative_curves(model)
    graph = curve_incidences(model)
    rows = [{"label": lab, "class": str(cls), "meets": len(graph[lab])}
            for lab, cls in curves.items()]
    if model is SurfaceModel.SMOOTH:
        return {"mode": mode, "curves": rows, "tritangent_triples":
                [list(t) for t in tritangent_triples(curves)]}
    for row in rows:
        row["adjacent_to_C"] = row["label"] in graph["C"]
    return {"mode": mode, "curves": rows, "adjacent_to_C": sorted(graph["C"])}


# -- lct ----------------------------------------------------------------------

def _lct_text(data):
    out = [f"germ: {data['germ']}"] + [str(r) for r in data["reports"]]
    if "nodes" in data:
        chain = " ".join(f"({a},{b})" for a, b in data["nodes"])
        out.append(f"nodes: {chain or 'none (normal crossings at the start)'}")
    if "agree" in data:
        newton, blowup = data["reports"]
        out.append(f"agreement: both methods give {blowup.value}" if data["agree"] else
                   f"agreement: newton bound {newton.value} vs blowup {blowup.value}"
                   + ("" if newton.exact else " (newton certificate inexact)"))
    return "\n".join(out)


# GERM is optional to argparse so that `parse` may take a germ that starts with '-'
@_command("lct", _lct_text, ("germ_text", dict(nargs="?", metavar="GERM")),
          ("--method", dict(default="both", metavar="METHOD",
                            help="newton, blowup, or both (default: both).")),
          usage="%(prog)s [--help] [--method METHOD] [--json] GERM")
def cmd_lct(germ_text, method):
    """Log canonical threshold of a plane curve germ at the origin."""
    if method not in ("newton", "blowup", "both"):
        raise ValueError(f"unknown method {method!r}; expected newton, blowup or both")
    from .germs import parse_germ
    from .lct import newton_lct, resolution_lct
    f = parse_germ(germ_text)
    data = {"germ": str(f), "reports": []}
    if method != "blowup":
        data["reports"].append(newton_lct(f))
    if method != "newton":
        from .resolution import resolve_germ
        res = resolve_germ(f)
        data["reports"].append(resolution_lct(res))
        data["nodes"] = [[n.a, n.b] for n in res.nodes]
    if method == "both":
        data["agree"] = len({r.value for r in data["reports"]}) == 1
    return data


# -- eckardt ------------------------------------------------------------------

def _eckardt_text(data):
    if "mode" in data:
        return "\n".join([f"mode: {data['mode']}",
                          f"eckardt points: {len(data['eckardt_points'])}"]
                         + [f"  {r}" for r in data["eckardt_points"]])
    return "\n".join([f"cubic: {data['cubic']}", f"point: {data['point']}",
                      f"tangent plane section: {data['tangent_plane_section']}",
                      f"eckardt: {'true' if data['eckardt'] else 'false'}"])


@_command("eckardt", _eckardt_text,
          ("--config", dict(dest="config_path", metavar="PATH",
                            help="Six-point configuration file (blow-up model).")),
          ("--cubic", dict(dest="cubic_path", metavar="PATH", help="Explicit "
                           "cubic surface file (20 graded-lex coefficients).")),
          ("--point", dict(dest="point_text", metavar='"W X Y Z"',
                           help="Surface point to test against --cubic.")))
def cmd_eckardt(config_path, cubic_path, point_text):
    """Find Eckardt points of a configuration, or test one explicit point."""
    from .plane_config import (eckardt_points, is_eckardt_on_cubic,
                               load_config, load_cubic, point,
                               tangent_plane_restriction)
    from .poly import monomial, to_text
    if config_path and (cubic_path or point_text):
        raise ValueError("--config excludes --cubic/--point")
    if config_path:
        # eckardt_points validates it, raising a GeometryError when invalid
        cfg = load_config(_read(config_path))
        return {"mode": cfg.mode.value, "eckardt_points": eckardt_points(cfg)}
    if not (cubic_path and point_text):
        raise ValueError("need --config, or --cubic with --point")
    f = load_cubic(_read(cubic_path))
    tokens = point_text.replace(",", " ").split()
    if len(tokens) != 4:
        raise ValueError("--point needs four coordinates")
    p = point(*tokens)
    restricted = tangent_plane_restriction(f, p)
    section = to_text((monomial(e, ("s0", "s1", "s2")), c)
                      for e, c in sorted(restricted.items(), reverse=True))
    return {"cubic": str(f), "point": str(p), "tangent_plane_section": section,
            "eckardt": is_eckardt_on_cubic(f, p)}


# -- verify -------------------------------------------------------------------

@_command("verify", lambda scan: (f"{scan.verdict.report()}\n"
                                  f"conclusion: {scan.summary['conclusion']}"),
          ("--lemma", dict(dest="lemma_id", required=True, metavar="ID",
                           help="Which scan to run: 3.1 or 5.1.")),
          ("--m", dict(required=True, type=int, help="Multiple of -K.")),
          ("--lambda", dict(dest="lam_text", metavar="P/Q", help="Threshold "
                            "for 3.1 (default 2/3; 5.1 is fixed there).")))
def cmd_verify(lemma_id, m, lam_text):
    """Run a locus scan and check it reaches the expected conclusion."""
    from .lemma_verify import (canonical_nodal_survivor, lemma31_scan,
                               lemma51_scan)
    from .poly import rational
    lam = rational(lam_text) if lam_text is not None else Fraction(2, 3)
    if lemma_id not in ("3.1", "5.1"):
        raise ValueError(f"unknown lemma id {lemma_id!r}; expected 3.1 or 5.1")
    if lemma_id == "5.1" and lam != Fraction(2, 3):
        raise ValueError("the nodal scan is fixed at lambda = 2/3")
    verdict = lemma31_scan(m, lam) if lemma_id == "3.1" else lemma51_scan(m)
    got = verdict.survivors
    if lemma_id == "3.1":
        verified = not got
        conclusion = ("verified; no survivors" if verified
                      else f"FAILED; {len(got)} survivors")
    elif m % 2:
        verified = not got
        conclusion = ("verified; no survivor (m odd)" if verified
                      else f"FAILED; {len(got)} survivors at odd m")
    else:
        expected = canonical_nodal_survivor(m)
        verified = len(got) == 1 and got[0].candidate == expected
        conclusion = (f"verified; unique survivor {expected}" if verified
                      else "FAILED; survivor mismatch")
    return _Scan({"lemma": lemma_id, "m": m, "lambda": str(lam),
                  "candidates": len(verdict.records),
                  "counts": verdict.counts_by_reason(),
                  "survivors": [str(r.candidate) for r in got],
                  "verified": verified, "conclusion": conclusion}, verdict)


# -- case / solve -------------------------------------------------------------

def _solve_data(title, rep):
    if not rep.feasible:
        return {"title": title, "feasible": False}
    data = {"title": title, "feasible": True,
            "forced": {v: str(val) for v, val in rep.forced.items()},
            "integral": dict(rep.integrality),
            "bounds": {v: str(b) for v, b in rep.bounds.items()
                       if v not in rep.forced},
            "integrality_contradiction": rep.integrality_contradiction}
    if rep.witness:
        data["witness"] = {v: str(val) for v, val in rep.witness.items()}
    return data


def _solve_text(data):
    out = [data["title"], "feasible: " + ("yes" if data["feasible"] else "no")]
    for var, val in sorted(data.get("forced", {}).items()):
        # only forced integer variables carry an integrality flag
        clash = not data["integral"].get(var, True)
        out.append(f"{var} = {val}" + (" : integrality contradiction" if clash else ""))
    out += [bound.replace(" _ ", f" {var} ")
            for var, bound in sorted(data.get("bounds", {}).items())]
    if "witness" in data:
        out.append("witness: " + " ".join(
            f"{v}={x}" for v, x in sorted(data["witness"].items())))
    return "\n".join(out)


@_command("case", _solve_text,
          ("--id", dict(dest="case_id", required=True, metavar="ID",
                        help="Exclusion case: 2, 3 or nodal.")),
          ("--m", dict(required=True, type=int, help="Multiple of -K.")),
          ("--subcase", dict(metavar="NAME",
                             help="Nodal refinement: q_free, q_on_l or q_on_c.")))
def cmd_case(case_id, m, subcase):
    """Solve one hard-wired exclusion system and print what it forces."""
    from .constraints import encode_case2, encode_case3, encode_nodal, solve
    if subcase is not None and case_id != "nodal":
        raise ValueError("--subcase only refines --id nodal")
    encode = {"2": encode_case2, "3": encode_case3,
              "nodal": partial(encode_nodal, subcase=subcase)}.get(case_id)
    if encode is None:
        raise ValueError(f"unknown case id {case_id!r}; expected 2, 3 or nodal")
    name = f"nodal ({subcase or 'base'})" if case_id == "nodal" else case_id
    return _solve_data(f"case {name}, m={m}", solve(encode(m)))


@_command("solve", _solve_text,
          ("path", dict(metavar="SYSTEM_FILE")),
          ("--m", dict(type=int,
                       help="Value substituted for the symbol m in the file.")))
def cmd_solve(path, m):
    """Solve a plain-text linear system by exact Fourier-Motzkin."""
    from .constraints import parse_system, solve
    system = parse_system(_read(path), m=m)
    title = (f"system: {len(system.variables)} variables, "
             f"{len(system.constraints)} constraints")
    return _solve_data(title, solve(system))


# -- alpha --------------------------------------------------------------------

@_command("alpha", str,
          ("--config", dict(dest="config_path", required=True, metavar="PATH",
                            help="Six-point configuration file (smooth mode).")))
def cmd_alpha(config_path):
    """Bound alpha_1 from the line catalogue of a smooth configuration."""
    from .lemma_verify import alpha1_report
    from .plane_config import load_config
    return alpha1_report(load_config(_read(config_path)))


if __name__ == "__main__":
    main()
