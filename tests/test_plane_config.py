"""Six-point configurations, Eckardt detection, explicit cubic cone tests."""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from cli_runner import run
from delpezzo.lattice import (SurfaceModel, enumerate_negative_curves,
                              tritangent_triples)
from delpezzo.plane_config import (CUBIC_MONOMIALS, ConfigParseError, CubicForm,
                                   DegenerateConicError, GeometryError,
                                   InvalidConfigError, NotOnSurfaceError,
                                   ProjPoint, SingularPointError, SixPointConfig,
                                   collinear, conic_through, conic_value,
                                   dump_config, dump_cubic, eckardt_points,
                                   is_eckardt_on_cubic, line_through,
                                   load_config, load_cubic, point,
                                   tangent_plane_restriction, validate)


def _config(*rows, mode=SurfaceModel.SMOOTH):
    return SixPointConfig(tuple(point(*r) for r in rows), mode)


FRAME_A = _config((1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (1, 1, 1), (1, 2, 3), (1, 4, 9))
FRAME_B = _config((1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (1, 1, 1), (1, 2, 3), (3, 1, 2))
# p1p2, p3p4, p5p6 constructed through (1:1:1)
FRAME_CONCURRENT = _config((1, 0, 0), (2, 1, 1), (0, 1, 0),
                           (1, 2, 1), (0, 0, 1), (1, 1, 2))
# no Eckardt points at all
FRAME_PLAIN = _config((1, 0, 0), (0, 1, 0), (0, 0, 1),
                      (1, 1, 1), (1, 2, 5), (2, 7, 1))
FRAME_NODAL = _config((1, 0, 0), (0, 1, 0), (1, 1, 0),
                      (0, 0, 1), (2, 1, 1), (1, 2, 3), mode=SurfaceModel.NODAL)

EX11_CUBIC = CubicForm.from_dict({
    (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
    (0, 1, 1, 1): 6,
    (2, 1, 0, 0): 1, (2, 0, 1, 0): 2, (2, 0, 0, 1): 3,
})
FERMAT_CUBIC = CubicForm.from_dict({
    (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
})


# -- primitive geometry ----------------------------------------------------------

def test_points_normalize_to_primitive_representatives():
    assert point(2, 4, 6) == point(1, 2, 3)
    assert point(-1, 0, 2) == point(1, 0, -2)
    assert point("1/2", "1/3", 0) == point(3, 2, 0)


@pytest.mark.parametrize("build", [
    lambda: point(0.1, 1, 1),
    lambda: ProjPoint((0.5, 1, 1)),
    lambda: CubicForm((0.5,) + (0,) * 19),
    lambda: CubicForm.from_dict({(3, 0, 0, 0): 1.0}),
], ids=["point", "ProjPoint", "CubicForm", "from_dict"])
def test_floats_are_refused(build):
    # a float is a binary fraction, so point(0.1, 1, 1) would otherwise be
    # (3602879701896397:36028797018963968:36028797018963968)
    with pytest.raises(TypeError, match="floating point"):
        build()

@pytest.mark.parametrize("build, message", [
    (lambda: ProjPoint((0, 0, 0)), "zero vector"),
    (lambda: ProjPoint((1, 0)), "plane or in space"),
    (lambda: ProjPoint((1, 0, 0, 0, 0)), "plane or in space"),
    (lambda: line_through(point(1, 2, 3), point(2, 4, 6)), "coincide"),
    (lambda: SixPointConfig(FRAME_A.points[:5]), "exactly six points"),
    (lambda: SixPointConfig(FRAME_A.points[:5] + (point(1, 2, 3, 4),)),
     "live in the plane"),
    (lambda: CubicForm((1,) * 19), "20 coefficients"),
    (lambda: CubicForm((0,) * 20), "identically zero"),
    (lambda: CubicForm.from_dict({(2, 0, 0, 0): 1}), "not a degree-3 exponent"),
], ids=["point-zero", "point-short", "point-long", "line-coincident", "config-five",
        "config-space", "cubic-19", "cubic-zero", "cubic-exponent"])
def test_degenerate_geometry_is_refused(build, message):
    with pytest.raises(GeometryError, match=message):
        build()


def test_collinear_and_line_through():
    assert collinear(point(1, 0, 0), point(0, 1, 0), point(1, 1, 0))
    assert not collinear(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1))
    line = line_through(point(1, 0, 0), point(0, 1, 0))
    assert [line[0], line[1]] == [0, 0] and line[2] != 0


def test_conic_through_five_standard_points():
    conic = conic_through(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
                          point(1, 1, 1), point(1, 2, 3))
    assert conic == (0, 3, -4, 0, 1, 0)   # 3xy - 4xz + yz
    for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)):
        assert conic_value(conic, point(*p)) == 0


def test_conic_through_degenerate_quintuple():
    with pytest.raises(DegenerateConicError):
        conic_through(point(1, 0, 0), point(0, 1, 0), point(1, 1, 0),
                      point(2, 1, 0), point(0, 0, 1))


# -- configuration validation ------------------------------------------------------

def test_standard_frames_validate():
    for cfg in (FRAME_A, FRAME_B, FRAME_CONCURRENT, FRAME_PLAIN):
        assert validate(cfg).ok


def test_nodal_frame_requires_first_three_collinear():
    assert validate(FRAME_NODAL).ok
    # the same points in smooth mode violate general position
    smooth = SixPointConfig(FRAME_NODAL.points, SurfaceModel.SMOOTH)
    report = validate(smooth)
    assert not report.ok
    assert any(v.indices == (1, 2, 3) for v in report.violations)
    # and a nodal configuration needs p1, p2, p3 on one line
    report = validate(SixPointConfig(FRAME_A.points, SurfaceModel.NODAL))
    assert [(v.kind, v.indices) for v in report.violations] == [
        ("not-collinear", (1, 2, 3))]


def test_duplicate_point_is_flagged():
    cfg = _config((1, 0, 0), (1, 0, 0), (0, 0, 1),
                  (1, 1, 1), (1, 2, 3), (1, 4, 9))
    report = validate(cfg)
    assert not report.ok
    assert any(v.kind == "duplicate" for v in report.violations)


def test_six_points_on_a_conic_are_flagged():
    # (1:3:9) lies on the conic 3xy - 4xz + yz through the five standard points
    conic = conic_through(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
                          point(1, 1, 1), point(1, 2, 3))
    assert conic_value(conic, point(1, 3, 9)) == 0
    cfg = _config((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
                  (1, 3, 9))
    report = validate(cfg)
    assert not report.ok
    assert any(v.kind == "conconic" for v in report.violations)


# -- Eckardt points on blow-up models ----------------------------------------------

def test_frame_a_eckardt_records():
    records = [(r.triple, str(r.location)) for r in eckardt_points(FRAME_A)]
    assert records == [
        (("E3", "F6", "L36"), "infinitely near p3"),
        (("E5", "F4", "L45"), "infinitely near p5"),
        (("E5", "F6", "L56"), "infinitely near p5"),
        (("L12", "L34", "L56"), "(1:1:0)"),
    ]


def test_frame_b_single_eckardt_point():
    records = eckardt_points(FRAME_B)
    assert [(r.triple, str(r.location)) for r in records] == [
        (("L16", "L23", "L45"), "(0:1:2)")]


def test_constructed_concurrency_shows_up():
    records = {r.triple: str(r.location) for r in eckardt_points(FRAME_CONCURRENT)}
    assert records[("L12", "L34", "L56")] == "(1:1:1)"
    assert len(records) == 4


def test_plain_frame_has_no_eckardt_points():
    assert eckardt_points(FRAME_PLAIN) == []


def test_eckardt_points_reject_invalid_configs():
    bad = _config((1, 0, 0), (1, 0, 0), (0, 0, 1),
                  (1, 1, 1), (1, 2, 3), (1, 4, 9))
    with pytest.raises(InvalidConfigError):
        eckardt_points(bad)


@pytest.mark.parametrize("model, shapes", [
    (SurfaceModel.SMOOTH, {(1, 1, 1): 15, (0, 1, 2): 30}),
    (SurfaceModel.NODAL, {(1, 1, 1): 6, (0, 1, 2): 9}),
])
def test_tritangent_triples_decode_from_their_classes(model, shapes):
    # eckardt_points reads kinds and point indices off the classes (a; b):
    # a = 0 is E_i with b_i = -1, a = 1 is L_ij with b_i = b_j = 1, a = 2 is
    # F_j with b_j = 0; a tritangent plane is {L, L, L} or {E_i, L_ij, F_j}
    curves = enumerate_negative_curves(model)
    seen = {}
    for triple in tritangent_triples(curves):
        members = sorted(triple, key=lambda lbl: curves[lbl].a)
        shape = tuple(curves[lbl].a for lbl in members)
        seen[shape] = seen.get(shape, 0) + 1
        for lbl in members:
            b = curves[lbl].b
            if curves[lbl].a == 1:
                assert lbl == "L" + "".join(str(k + 1) for k in range(6)
                                            if b[k] == 1)
            else:
                value = -1 if curves[lbl].a == 0 else 0
                assert [k for k in range(6) if b[k] == value] == [int(lbl[1]) - 1]
        if shape == (0, 1, 2):
            e, line, f = members
            assert line == "L" + "".join(sorted(e[1] + f[1]))
    assert seen == shapes


def test_eckardt_triples_invariant_under_projectivities():
    # relabeling-free invariance: applying a unimodular map to all six points
    # permutes nothing and keeps the triple labels
    rng = random.Random(5)
    base = {r.triple for r in eckardt_points(FRAME_A)}
    for _ in range(5):
        assert {r.triple for r in eckardt_points(_moved(FRAME_A, rng))} == base


def _polar(conic, u, v):
    """Polar form: conic(u + t*v) = conic(u) + t*polar + t^2*conic(v)."""
    a, b, c, d, e, f = conic
    return (2 * a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0])
            + c * (u[0] * v[2] + u[2] * v[0]) + 2 * d * u[1] * v[1]
            + e * (u[1] * v[2] + u[2] * v[1]) + 2 * f * u[2] * v[2])


def _tangency_oracle(cfg):
    """The {E_i, L_ij, F_j} records, read off the conic through the five
    points other than p_j: it passes through p_i, so it touches the line
    p_i p_j there iff its polar form vanishes on (p_i, p_j)."""
    records = set()
    for i, j in permutations(range(1, 7), 2):
        # on the nodal model F_j needs j in {1, 2, 3} and L_ij needs i off
        # the line through p1, p2, p3
        if cfg.mode is SurfaceModel.NODAL and (j > 3 or i <= 3):
            continue
        conic = conic_through(*(p for k, p in enumerate(cfg.points, 1) if k != j))
        if _polar(conic, cfg.point(i), cfg.point(j)) == 0:
            labels = (f"E{i}", f"F{j}", f"L{min(i, j)}{max(i, j)}")
            records.add((labels, f"infinitely near p{i}"))
    return records


def _oracle_configs(kind, count, rng):
    """Valid configurations: small random ones, nodal ones with
    p3 = s*p1 + t*p2, or projective images of FRAME_A."""
    mode = SurfaceModel.NODAL if kind == "nodal" else SurfaceModel.SMOOTH
    while count:
        if kind == "frame-a":
            cfg = _moved(FRAME_A, rng)
        else:
            coords = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(6)]
            if kind == "nodal":
                s, t = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
                coords[2] = [s * x + t * y for x, y in zip(coords[0], coords[1])]
            if not all(map(any, coords)):
                continue
            cfg = SixPointConfig(tuple(point(*c) for c in coords), mode)
        if validate(cfg).ok:
            count -= 1
            yield cfg


@pytest.mark.parametrize("kind, count", [
    ("smooth", 200), ("frame-a", 20), ("nodal", 200)])
def test_tangency_concurrency_agrees_with_the_conic_oracle(kind, count):
    # eckardt_points decides {E_i, L_ij, F_j} by the concurrency that
    # Pascal's theorem gives, and builds no conic
    rng = random.Random(2026)
    found = 0
    for cfg in _oracle_configs(kind, count, rng):
        records = {(r.triple, r.location) for r in eckardt_points(cfg)
                   if isinstance(r.location, str)}
        assert records == _tangency_oracle(cfg), dump_config(cfg)
        found += len(records)
    assert found   # the comparison is not vacuous


# -- explicit cubics and the cone test ----------------------------------------------

def test_example_cubic_cone_point():
    assert is_eckardt_on_cubic(EX11_CUBIC, point(1, 0, 0, 0))


def test_example_cubic_restriction_is_a_cone():
    restricted = tangent_plane_restriction(EX11_CUBIC, point(1, 0, 0, 0))
    assert restricted  # nonzero ternary cubic
    assert all(expo[0] == 0 for expo in restricted)


def test_fermat_eckardt_points():
    assert is_eckardt_on_cubic(FERMAT_CUBIC, point(1, -1, 0, 0))
    assert not is_eckardt_on_cubic(FERMAT_CUBIC, point(3, 4, 5, -6))


def test_fermat_restriction_at_eckardt_point():
    restricted = tangent_plane_restriction(FERMAT_CUBIC, point(1, -1, 0, 0))
    # the cone over s1^3 + s2^3: three concurrent lines
    assert {e for e in restricted} == {(0, 3, 0), (0, 0, 3)}


def test_cone_test_requires_point_on_surface():
    with pytest.raises(NotOnSurfaceError):
        tangent_plane_restriction(FERMAT_CUBIC, point(1, 1, 1, 1))


def test_cone_test_rejects_singular_point():
    cone = CubicForm.from_dict({(0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                                (0, 0, 0, 3): 1})
    with pytest.raises(SingularPointError):
        tangent_plane_restriction(cone, point(1, 0, 0, 0))


def test_cone_test_needs_four_coordinates():
    with pytest.raises(GeometryError):
        tangent_plane_restriction(FERMAT_CUBIC, point(1, -1, 0))


# -- file formats --------------------------------------------------------------------

def test_config_round_trip():
    text = dump_config(FRAME_A)
    again = load_config(text)
    assert again == FRAME_A
    assert "mode: smooth" in text


def test_config_parse_errors():
    with pytest.raises(ConfigParseError):
        load_config("1 0 0\n")                      # no mode header
    with pytest.raises(ConfigParseError):
        load_config("mode: smooth\n1 0\n")          # wrong arity
    with pytest.raises(ConfigParseError):
        load_config("mode: flat\n")                 # unknown mode
    with pytest.raises(ConfigParseError):
        load_config(dump_config(FRAME_A) + "0 0 1\n")   # seven points
    with pytest.raises(ConfigParseError, match="line 2: duplicate mode header"):
        load_config("mode: smooth\nmode: nodal\n")


def test_cubic_round_trip():
    text = dump_cubic(EX11_CUBIC)
    assert load_cubic(text) == EX11_CUBIC
    assert len(text.strip().splitlines()) == 20


def test_cubic_parse_errors():
    good = dump_cubic(FERMAT_CUBIC).strip().splitlines()
    with pytest.raises(ConfigParseError):
        load_cubic("\n".join(good[:-1]))            # 19 lines
    swapped = [good[1]] + [good[0]] + good[2:]
    with pytest.raises(ConfigParseError):
        load_cubic("\n".join(swapped))              # out of graded-lex order
    with pytest.raises(ConfigParseError):
        load_cubic("\n".join(good[:-1] + ["z3^3 abc"]))
    with pytest.raises(ConfigParseError):
        load_cubic("\n".join(good[:-1] + ["z3^3 1/0"]))
    with pytest.raises(ConfigParseError, match="bad cubic line 'z3\\^3 1 2'"):
        load_cubic("\n".join(good[:-1] + ["z3^3 1 2"]))    # three fields


# -- pinned geometry -------------------------------------------------------------------

# Digests of every geometry output that the exact kernel feeds: tangent-plane
# sections, validation reports, conics through five points, Eckardt records and
# the bytes of `delpezzo eckardt --json`, on seeded inputs.  A rewrite of the
# linear algebra underneath must leave these unchanged.
GEOMETRY_PINS = json.loads(
    (Path(__file__).parent / "data" / "geometry_reports.json").read_text())


def _digest(lines):
    lines = list(lines)
    return {"count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def _outcome(fn, *args):
    """repr of fn(*args), or the name and message of the GeometryError it raises."""
    try:
        return repr(fn(*args))
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc} {getattr(exc, 'witness', None)}"


def _fermat_points(rng, count):
    """Rational points of the Fermat cubic: permuted (a, -a, b, -b), and the
    sporadic 3^3 + 4^3 + 5^3 = 6^3 and 1^3 + 12^3 = 9^3 + 10^3."""
    seeds = [(3, 4, 5, -6), (1, 12, -9, -10)]
    for i in range(count):
        if i % 4 == 3:
            coords = list(rng.choice(seeds))
        else:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            coords = [a, -a, b, -b] if a or b else [1, -1, 0, 0]
        rng.shuffle(coords)
        yield point(*coords)


def _cubic_through(rng, p):
    """A random cubic with rational coefficients, corrected to vanish at p."""
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(20)]
    values = [math.prod(c ** k for c, k in zip(p, e)) for e in CUBIC_MONOMIALS]
    i = next(i for i, v in enumerate(values) if v)
    coeffs[i] -= CubicForm(tuple(coeffs)).evaluate(p) / values[i]
    return CubicForm(tuple(coeffs))


def _random_space_point(rng):
    while True:
        coords = [rng.randint(-3, 3) for _ in range(4)]
        if any(coords):
            return point(*coords)


def _section_line(f, p):
    return _outcome(lambda: [(e, str(c)) for e, c in
                             tangent_plane_restriction(f, p).items()])


def _moved(cfg, rng):
    """cfg under a random invertible integer matrix."""
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det(mat):
            break
    return SixPointConfig(tuple(
        point(*(sum(mat[r][c] * p.coords[c] for c in range(3)) for r in range(3)))
        for p in cfg.points), cfg.mode)


def _det(mat):
    return (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))


def _seeded_configs():
    """Random small configurations, a quarter of them nodal (p3 on p1p2), and
    projective images of the named frames, which carry Eckardt points."""
    rng = random.Random(20261018)
    frames = (FRAME_A, FRAME_B, FRAME_CONCURRENT, FRAME_PLAIN, FRAME_NODAL)
    for i in range(120):
        pts = []
        while len(pts) < 6:
            coords = [rng.randint(-3, 3) for _ in range(3)]
            if i % 4 == 3 and len(pts) == 2:
                a, b = rng.choice([(1, 1), (1, -1), (2, 1), (1, 3)])
                coords = [a * x + b * y for x, y in zip(pts[0], pts[1])]
            if any(coords):
                pts.append(point(*coords))
        yield SixPointConfig(tuple(pts), SurfaceModel.NODAL if i % 4 == 3
                             else SurfaceModel.SMOOTH)
    for i in range(40):
        yield _moved(frames[i % len(frames)], rng)


def test_tangent_plane_sections_are_pinned():
    rng = random.Random(20261018)
    fermat = [_section_line(FERMAT_CUBIC, p) for p in _fermat_points(rng, 200)]
    sections = []
    for _ in range(200):
        p = _random_space_point(rng)
        sections.append(_section_line(_cubic_through(rng, p), p))
    assert _digest(fermat) == GEOMETRY_PINS["fermat_sections"]
    assert _digest(sections) == GEOMETRY_PINS["random_sections"]


def test_configuration_geometry_is_pinned():
    configs = list(_seeded_configs())
    reports = [_outcome(validate, cfg) for cfg in configs]
    conics = [_outcome(conic_through, *cfg.points[s:s + 5])
              for cfg in configs for s in (0, 1)]
    records = [_outcome(lambda: [str(r) for r in eckardt_points(cfg)])
               for cfg in configs]
    assert _digest(reports) == GEOMETRY_PINS["validate"]
    assert _digest(conics) == GEOMETRY_PINS["conic_through"]
    assert _digest(records) == GEOMETRY_PINS["eckardt_points"]


def test_eckardt_json_is_pinned(tmp_path):
    rng = random.Random(20261018)
    cubic_runs = [(EX11_CUBIC, point(1, 0, 0, 0))]
    cubic_runs += [(FERMAT_CUBIC, p) for p in _fermat_points(rng, 6)]
    for _ in range(8):
        p = _random_space_point(rng)
        cubic_runs.append((_cubic_through(rng, p), p))
    outputs = []
    for i, (f, p) in enumerate(cubic_runs):
        path = tmp_path / f"{i}.cubic"
        path.write_text(dump_cubic(f))
        out = run(["eckardt", "--cubic", str(path), "--point",
                   " ".join(map(str, p)), "--json"])
        outputs.append(f"{out.exit_code} {out.output}")
    configs = [cfg for cfg in _seeded_configs() if validate(cfg).ok]
    config_outputs = []
    for i, cfg in enumerate(configs[:30]):
        path = tmp_path / f"{i}.cfg"
        path.write_text(dump_config(cfg))
        out = run(["eckardt", "--config", str(path), "--json"])
        config_outputs.append(f"{out.exit_code} {out.output}")
    assert _digest(outputs) == GEOMETRY_PINS["eckardt_cubic_json"]
    assert _digest(config_outputs) == GEOMETRY_PINS["eckardt_config_json"]
