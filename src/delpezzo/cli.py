"""Command-line frontend: every toolkit operation behind one entry point.

Exit codes follow a fixed contract: 0 on success (for `verify`, success means
the scan reached the expected conclusion), 1 on a domain error such as a bad
mode name, an unparseable polynomial or a DELPEZZO_MAX_BLOWUPS value that is
not a non-negative integer, 2 when the resolution engine exhausts its blow-up
budget (that environment variable raises it), and 64 (EX_USAGE in sysexits.h)
on a usage error such as a missing argument, an extra argument or an unknown
option.
Every domain error the library raises is a ValueError, and the group maps it
to exit 1 with its message in one place; no command catches one.  Every
number read from text (configuration coordinates, cubic coefficients,
`--point`, `--lambda`) goes through `poly.rational`, the polynomial grammar.
All rational output is lowest-terms p/q, every command is deterministic, and
`--json` emits the same fields, except the per-candidate records `verify` prints.
Each command imports the library modules it calls inside its own body, so a
cold process loads only what its command reads.
"""

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import click

#: exit code of a command-line usage error (sysexits.h)
EX_USAGE = 64


class _DepthAwareGroup(click.Group):
    """Group that maps the library's errors to exit codes, for every command.

    A domain error (every one the library raises is a ValueError) exits 1
    with its message; a blown blow-up budget exits 2; a usage error, whether
    the group's own or a subcommand's, exits EX_USAGE instead of click's 2.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EX_USAGE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EX_USAGE
            raise
        except ValueError as exc:
            raise click.ClickException(str(exc))
        except RuntimeError as exc:
            # only a command that resolved a germ can have blown the budget
            resolution = sys.modules.get("delpezzo.resolution")
            if resolution is None or not isinstance(exc, resolution.DepthExceededError):
                raise
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_DepthAwareGroup)
def cli():
    """Exact tools for lines, thresholds and locus scans on cubic surfaces."""


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
    click.echo(json.dumps(result, default=_plain, sort_keys=True, indent=2)
               if as_json else text(result))
    if isinstance(result, _Scan) and not result.summary["verified"]:
        sys.exit(1)


def _command(name, text, **settings):
    """Register `build` as command `name`; `text` renders the result it returns."""
    def register(build):
        command = cli.command(name, **settings)(build)
        command.callback = partial(_write, build, text)
        # appended, so that --help lists --json after the command's own options
        command.params.append(click.Option(["--json", "as_json"], is_flag=True,
                                           help="Emit JSON."))
        return build
    return register


def _read(path):
    # plain open so a missing file is a domain error (exit 1), not usage
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.ClickException(str(exc))


# ---------------------------------------------------------------------------
# lines


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


@_command("lines", _lines_text)
@click.option("--mode", default="smooth", show_default=True, metavar="MODE",
              help="Surface model: smooth or nodal.")
def cmd_lines(mode):
    """List the negative curves with their incidence degrees."""
    from .lattice import (SurfaceModel, curve_incidences,
                          enumerate_negative_curves, tritangent_triples)
    if mode not in ("smooth", "nodal"):
        raise click.ClickException(
            f"unknown mode {mode!r}; expected smooth or nodal")
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


# ---------------------------------------------------------------------------
# lct


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


@_command("lct", _lct_text, context_settings={"ignore_unknown_options": True})
@click.argument("germ_text", metavar="GERM")
@click.option("--method", default="both", show_default=True, metavar="METHOD",
              help="newton, blowup, or both.")
def cmd_lct(germ_text, method):
    """Log canonical threshold of a plane curve germ at the origin."""
    if method not in ("newton", "blowup", "both"):
        raise click.ClickException(
            f"unknown method {method!r}; expected newton, blowup or both")
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


# ---------------------------------------------------------------------------
# eckardt


def _eckardt_text(data):
    if "mode" in data:
        return "\n".join([f"mode: {data['mode']}",
                          f"eckardt points: {len(data['eckardt_points'])}"]
                         + [f"  {r}" for r in data["eckardt_points"]])
    return "\n".join([f"cubic: {data['cubic']}", f"point: {data['point']}",
                      f"tangent plane section: {data['tangent_plane_section']}",
                      f"eckardt: {'true' if data['eckardt'] else 'false'}"])


@_command("eckardt", _eckardt_text)
@click.option("--config", "config_path", default=None, metavar="PATH",
              help="Six-point configuration file (blow-up model).")
@click.option("--cubic", "cubic_path", default=None, metavar="PATH",
              help="Explicit cubic surface file (20 graded-lex coefficients).")
@click.option("--point", "point_text", default=None, metavar='"W X Y Z"',
              help="Surface point to test against --cubic.")
def cmd_eckardt(config_path, cubic_path, point_text):
    """Find Eckardt points of a configuration, or test one explicit point."""
    from .plane_config import (eckardt_points, is_eckardt_on_cubic,
                               load_config, load_cubic, point,
                               tangent_plane_restriction)
    from .poly import monomial, to_text
    if config_path and (cubic_path or point_text):
        raise click.ClickException("--config excludes --cubic/--point")
    if config_path:
        # eckardt_points validates it, raising a GeometryError when invalid
        cfg = load_config(_read(config_path))
        return {"mode": cfg.mode.value, "eckardt_points": eckardt_points(cfg)}
    if not (cubic_path and point_text):
        raise click.ClickException("need --config, or --cubic with --point")
    f = load_cubic(_read(cubic_path))
    tokens = point_text.replace(",", " ").split()
    if len(tokens) != 4:
        raise click.ClickException("--point needs four coordinates")
    p = point(*tokens)
    restricted = tangent_plane_restriction(f, p)
    section = to_text((monomial(e, ("s0", "s1", "s2")), c)
                      for e, c in sorted(restricted.items(), reverse=True))
    return {"cubic": str(f), "point": str(p), "tangent_plane_section": section,
            "eckardt": is_eckardt_on_cubic(f, p)}


# ---------------------------------------------------------------------------
# verify


@_command("verify", lambda scan: (f"{scan.verdict.report()}\n"
                                  f"conclusion: {scan.summary['conclusion']}"))
@click.option("--lemma", "lemma_id", required=True, metavar="ID",
              help="Which scan to run: 3.1 or 5.1.")
@click.option("--m", "m", required=True, type=int, help="Multiple of -K.")
@click.option("--lambda", "lam_text", default=None, metavar="P/Q",
              help="Threshold for 3.1 (default 2/3; 5.1 is fixed there).")
def cmd_verify(lemma_id, m, lam_text):
    """Run a locus scan and check it reaches the expected conclusion."""
    from .lemma_verify import (canonical_nodal_survivor, lemma31_scan,
                               lemma51_scan)
    from .poly import rational
    lam = rational(lam_text) if lam_text is not None else Fraction(2, 3)
    if lemma_id not in ("3.1", "5.1"):
        raise click.ClickException(
            f"unknown lemma id {lemma_id!r}; expected 3.1 or 5.1")
    if lemma_id == "5.1" and lam != Fraction(2, 3):
        raise click.ClickException("the nodal scan is fixed at lambda = 2/3")
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


# ---------------------------------------------------------------------------
# case / solve


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


@_command("case", _solve_text)
@click.option("--id", "case_id", required=True, metavar="ID",
              help="Exclusion case: 2, 3 or nodal.")
@click.option("--m", "m", required=True, type=int, help="Multiple of -K.")
@click.option("--subcase", default=None, metavar="NAME",
              help="Nodal refinement: q_free, q_on_l or q_on_c.")
def cmd_case(case_id, m, subcase):
    """Solve one hard-wired exclusion system and print what it forces."""
    from .constraints import encode_case2, encode_case3, encode_nodal, solve
    if subcase is not None and case_id != "nodal":
        raise click.ClickException("--subcase only refines --id nodal")
    encode = {"2": encode_case2, "3": encode_case3,
              "nodal": partial(encode_nodal, subcase=subcase)}.get(case_id)
    if encode is None:
        raise click.ClickException(
            f"unknown case id {case_id!r}; expected 2, 3 or nodal")
    name = f"nodal ({subcase or 'base'})" if case_id == "nodal" else case_id
    return _solve_data(f"case {name}, m={m}", solve(encode(m)))


@_command("solve", _solve_text)
@click.argument("path", metavar="SYSTEM_FILE")
@click.option("--m", "m", default=None, type=int,
              help="Value substituted for the symbol m in the file.")
def cmd_solve(path, m):
    """Solve a plain-text linear system by exact Fourier-Motzkin."""
    from .constraints import parse_system, solve
    system = parse_system(_read(path), m=m)
    title = (f"system: {len(system.variables)} variables, "
             f"{len(system.constraints)} constraints")
    return _solve_data(title, solve(system))


# ---------------------------------------------------------------------------
# alpha


@_command("alpha", str)
@click.option("--config", "config_path", required=True, metavar="PATH",
              help="Six-point configuration file (smooth mode).")
def cmd_alpha(config_path):
    """Bound alpha_1 from the line catalogue of a smooth configuration."""
    from .lemma_verify import alpha1_report
    from .plane_config import load_config
    return alpha1_report(load_config(_read(config_path)))


def main():
    cli(prog_name="delpezzo")


if __name__ == "__main__":
    main()
