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
`--json` emits the same fields machine-readably.
"""

import json
import sys
from fractions import Fraction

import click

from .constraints import (SolveReport, encode_case2, encode_case3,
                          encode_nodal, parse_system, solve)
from .germs import parse_germ
from .lattice import (SurfaceModel, curve_incidences,
                      enumerate_negative_curves, tritangent_triples)
from .lct import newton_lct, resolution_lct
from .lemma_verify import (alpha1_report, canonical_nodal_survivor,
                           lemma31_scan, lemma51_scan)
from .plane_config import (eckardt_points, is_eckardt_on_cubic, load_config,
                           load_cubic, point, tangent_plane_restriction)
from .poly import monomial, rational, to_text
from .resolution import DepthExceededError, resolve_germ

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
        except DepthExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_DepthAwareGroup)
def cli():
    """Exact tools for lines, thresholds and locus scans on cubic surfaces."""


def _emit(lines, data, as_json):
    if as_json:
        click.echo(json.dumps(data, sort_keys=True, indent=2))
    else:
        click.echo("\n".join(lines))


def _read(path):
    # plain open so a missing file is a domain error (exit 1), not usage
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.ClickException(str(exc))


# ---------------------------------------------------------------------------
# lines


@cli.command("lines")
@click.option("--mode", default="smooth", show_default=True, metavar="MODE",
              help="Surface model: smooth or nodal.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_lines(mode, as_json):
    """List the negative curves with their incidence degrees."""
    if mode not in ("smooth", "nodal"):
        raise click.ClickException(
            f"unknown mode {mode!r}; expected smooth or nodal")
    model = SurfaceModel(mode)
    curves = enumerate_negative_curves(model)
    graph = curve_incidences(model)
    nodal = model is SurfaceModel.NODAL
    adjacent = list(graph["C"]) if nodal else []
    lines = ["one-node cubic: 21 lines and the (-2)-curve C" if nodal
             else "smooth cubic: 27 lines"]
    rows = []
    for lab, cls in curves.items():
        meets = len(graph[lab])
        mark = "  [adjacent to C]" if lab in adjacent else ""
        lines.append(f"  {lab:<4}{cls}  meets {meets}{mark}")
        row = {"label": lab, "class": str(cls), "meets": meets}
        if nodal:
            row["adjacent_to_C"] = lab in adjacent
        rows.append(row)
    data = {"mode": model.value, "curves": rows}
    if nodal:
        lines.append("adjacent to C: " + " ".join(sorted(adjacent)))
        data["adjacent_to_C"] = sorted(adjacent)
    else:
        triples = tritangent_triples(curves)
        lines.append(f"tritangent triples: {len(triples)}")
        lines += ["  " + " ".join(t) for t in triples]
        data["tritangent_triples"] = [list(t) for t in triples]
    _emit(lines, data, as_json)


# ---------------------------------------------------------------------------
# lct


@cli.command("lct", context_settings={"ignore_unknown_options": True})
@click.argument("germ_text", metavar="GERM")
@click.option("--method", default="both", show_default=True, metavar="METHOD",
              help="newton, blowup, or both.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_lct(germ_text, method, as_json):
    """Log canonical threshold of a plane curve germ at the origin."""
    if method not in ("newton", "blowup", "both"):
        raise click.ClickException(
            f"unknown method {method!r}; expected newton, blowup or both")
    f = parse_germ(germ_text)
    lines = [f"germ: {f}"]
    data = {"germ": str(f), "reports": []}
    newton = blowup = None
    if method in ("newton", "both"):
        newton = newton_lct(f)
        lines.append(str(newton))
        data["reports"].append({"method": "newton", "value": str(newton.value),
                                "exact": newton.exact,
                                "witness": str(newton.witness)})
    if method in ("blowup", "both"):
        res = resolve_germ(f)
        blowup = resolution_lct(res)
        chain = " ".join(f"({n.a},{n.b})" for n in res.nodes)
        lines.append(str(blowup))
        lines.append(f"nodes: {chain}" if res.nodes
                     else "nodes: none (normal crossings at the start)")
        data["reports"].append({"method": "blowup", "value": str(blowup.value),
                                "exact": True, "witness": str(blowup.witness)})
        data["nodes"] = [[n.a, n.b] for n in res.nodes]
    if method == "both":
        if newton.value == blowup.value:
            lines.append(f"agreement: both methods give {blowup.value}")
        else:
            note = "" if newton.exact else " (newton certificate inexact)"
            lines.append(f"agreement: newton bound {newton.value} vs "
                         f"blowup {blowup.value}{note}")
        data["agree"] = newton.value == blowup.value
    _emit(lines, data, as_json)


# ---------------------------------------------------------------------------
# eckardt


@cli.command("eckardt")
@click.option("--config", "config_path", default=None, metavar="PATH",
              help="Six-point configuration file (blow-up model).")
@click.option("--cubic", "cubic_path", default=None, metavar="PATH",
              help="Explicit cubic surface file (20 graded-lex coefficients).")
@click.option("--point", "point_text", default=None, metavar='"W X Y Z"',
              help="Surface point to test against --cubic.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_eckardt(config_path, cubic_path, point_text, as_json):
    """Find Eckardt points of a configuration, or test one explicit point."""
    if config_path and (cubic_path or point_text):
        raise click.ClickException("--config excludes --cubic/--point")
    if config_path:
        # eckardt_points validates it, raising a GeometryError when invalid
        cfg = load_config(_read(config_path))
        records = eckardt_points(cfg)
        lines = [f"mode: {cfg.mode.value}", f"eckardt points: {len(records)}"]
        lines += [f"  {r}" for r in records]
        data = {"mode": cfg.mode.value,
                "eckardt_points": [{"triple": list(r.triple),
                                    "location": str(r.location)}
                                   for r in records]}
        _emit(lines, data, as_json)
        return
    if not (cubic_path and point_text):
        raise click.ClickException("need --config, or --cubic with --point")
    f = load_cubic(_read(cubic_path))
    tokens = point_text.replace(",", " ").split()
    if len(tokens) != 4:
        raise click.ClickException("--point needs four coordinates")
    p = point(*tokens)
    restricted = tangent_plane_restriction(f, p)
    verdict = is_eckardt_on_cubic(f, p)
    section = to_text((monomial(e, ("s0", "s1", "s2")), c)
                      for e, c in sorted(restricted.items(), reverse=True))
    lines = [f"cubic: {f}", f"point: {p}",
             f"tangent plane section: {section}",
             f"eckardt: {'true' if verdict else 'false'}"]
    data = {"cubic": str(f), "point": str(p), "tangent_plane_section": section,
            "eckardt": verdict}
    _emit(lines, data, as_json)


# ---------------------------------------------------------------------------
# verify


@cli.command("verify")
@click.option("--lemma", "lemma_id", required=True, metavar="ID",
              help="Which scan to run: 3.1 or 5.1.")
@click.option("--m", "m", required=True, type=int, help="Multiple of -K.")
@click.option("--lambda", "lam_text", default=None, metavar="P/Q",
              help="Threshold for 3.1 (default 2/3; 5.1 is fixed there).")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_verify(lemma_id, m, lam_text, as_json):
    """Run a locus scan and check it reaches the expected conclusion."""
    lam = rational(lam_text) if lam_text is not None else Fraction(2, 3)
    if lemma_id == "3.1":
        verdict = lemma31_scan(m, lam)
        verified = not verdict.survivors
        conclusion = ("verified; no survivors" if verified
                      else f"FAILED; {len(verdict.survivors)} survivors")
    elif lemma_id == "5.1":
        if lam != Fraction(2, 3):
            raise click.ClickException("the nodal scan is fixed at lambda = 2/3")
        verdict = lemma51_scan(m)
        if m % 2:
            verified = not verdict.survivors
            conclusion = ("verified; no survivor (m odd)" if verified
                          else f"FAILED; {len(verdict.survivors)} survivors at odd m")
        else:
            expected = canonical_nodal_survivor(m)
            got = verdict.survivors
            verified = len(got) == 1 and got[0].candidate == expected
            conclusion = (f"verified; unique survivor {expected}" if verified
                          else "FAILED; survivor mismatch")
    else:
        raise click.ClickException(
            f"unknown lemma id {lemma_id!r}; expected 3.1 or 5.1")
    lines = [verdict.report(), f"conclusion: {conclusion}"]
    data = {"lemma": lemma_id, "m": m, "lambda": str(lam),
            "candidates": len(verdict.records),
            "counts": verdict.counts_by_reason(),
            "survivors": [str(r.candidate) for r in verdict.survivors],
            "verified": verified, "conclusion": conclusion}
    _emit(lines, data, as_json)
    if not verified:
        sys.exit(1)


# ---------------------------------------------------------------------------
# case / solve


def _solve_lines(rep: SolveReport) -> list:
    if not rep.feasible:
        return ["feasible: no"]
    lines = ["feasible: yes"]
    for var in sorted(rep.forced):
        note = ("" if rep.integrality.get(var, True)
                else " : integrality contradiction")
        lines.append(f"{var} = {rep.forced[var]}{note}")
    for var in sorted(rep.bounds):
        if var not in rep.forced:
            lines.append(str(rep.bounds[var]).replace(" _ ", f" {var} "))
    if rep.witness:
        lines.append("witness: " + " ".join(f"{v}={rep.witness[v]}"
                                            for v in sorted(rep.witness)))
    return lines


def _solve_data(rep: SolveReport, title: str) -> dict:
    data = {"title": title, "feasible": rep.feasible}
    if not rep.feasible:
        return data
    data["forced"] = {v: str(val) for v, val in rep.forced.items()}
    data["integral"] = dict(rep.integrality)
    data["bounds"] = {v: str(b) for v, b in rep.bounds.items()
                      if v not in rep.forced}
    data["integrality_contradiction"] = rep.integrality_contradiction
    if rep.witness:
        data["witness"] = {v: str(val) for v, val in rep.witness.items()}
    return data


@cli.command("case")
@click.option("--id", "case_id", required=True, metavar="ID",
              help="Exclusion case: 2, 3 or nodal.")
@click.option("--m", "m", required=True, type=int, help="Multiple of -K.")
@click.option("--subcase", default=None, metavar="NAME",
              help="Nodal refinement: q_free, q_on_l or q_on_c.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_case(case_id, m, subcase, as_json):
    """Solve one hard-wired exclusion system and print what it forces."""
    if m < 1:
        raise click.ClickException("m must be >= 1")
    if subcase is not None and case_id != "nodal":
        raise click.ClickException("--subcase only refines --id nodal")
    if case_id == "2":
        system, title = encode_case2(m), f"case 2, m={m}"
    elif case_id == "3":
        system, title = encode_case3(m), f"case 3, m={m}"
    elif case_id == "nodal":
        system = encode_nodal(m, subcase)
        title = f"case nodal ({subcase or 'base'}), m={m}"
    else:
        raise click.ClickException(
            f"unknown case id {case_id!r}; expected 2, 3 or nodal")
    rep = solve(system)
    _emit([title] + _solve_lines(rep), _solve_data(rep, title), as_json)


@cli.command("solve")
@click.argument("path", metavar="SYSTEM_FILE")
@click.option("--m", "m", default=None, type=int,
              help="Value substituted for the symbol m in the file.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_solve(path, m, as_json):
    """Solve a plain-text linear system by exact Fourier-Motzkin."""
    system = parse_system(_read(path), m=m)
    rep = solve(system)
    title = (f"system: {len(system.variables)} variables, "
             f"{len(system.constraints)} constraints")
    _emit([title] + _solve_lines(rep), _solve_data(rep, title), as_json)


# ---------------------------------------------------------------------------
# alpha


@cli.command("alpha")
@click.option("--config", "config_path", required=True, metavar="PATH",
              help="Six-point configuration file (smooth mode).")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_alpha(config_path, as_json):
    """Bound alpha_1 from the line catalogue of a smooth configuration."""
    rep = alpha1_report(load_config(_read(config_path)))
    data = {"value": str(rep.value), "final": rep.final,
            "witness": str(rep.witness)}
    _emit([str(rep)], data, as_json)


def main():
    cli(prog_name="delpezzo")


if __name__ == "__main__":
    main()
