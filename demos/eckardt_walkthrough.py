"""Eckardt points: where three of the 27 lines pass through one point.

Two detectors.  From a six-point plane configuration every candidate is
decided by whether three plane lines meet in a point, a determinant: three
of the lines L_ij themselves, or, for {E_i, L_ij, F_j}, the line p_i p_j and
two lines that Pascal's theorem builds from the other points.  From an
explicit cubic in P^3 the test is whether the tangent-plane section has a
triple point.  An Eckardt point is exactly what drops the alpha-invariant
bound to 2/3.
"""

from delpezzo import (CubicForm, SurfaceModel, SixPointConfig, alpha1_report,
                      eckardt_points, is_eckardt_on_cubic, monomial_name,
                      point, tangent_plane_restriction)


def ternary(terms):
    out = []
    for expo in sorted(terms, reverse=True):
        c = terms[expo]
        name = monomial_name(expo, names=("s0", "s1", "s2"))
        out.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(out).replace("+ -", "- ")

# six points, no three on a line and not all six on a conic: three tangency
# triples {E_i, L_ij, F_j}, where the conic through the five points other
# than p_j touches the line p_i p_j at p_i, appear "infinitely near" p_i, and
# one as an honest concurrency of three lines L_ij
config = SixPointConfig((point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
                         point(1, 1, 1), point(1, 2, 3), point(1, 4, 9)),
                        SurfaceModel.SMOOTH)
records = eckardt_points(config)
print(f"configuration {' '.join(map(str, config.points))}: "
      f"{len(records)} Eckardt points")
for r in records:
    print(f"  {r}")
print()

report = alpha1_report(config)
print(report)
print()

# a generic frame has none, and the bound stays at the inconclusive 1
generic = SixPointConfig((point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
                          point(1, 1, 1), point(1, 2, 5), point(2, 7, 1)),
                         SurfaceModel.SMOOTH)
print(f"generic frame: {len(eckardt_points(generic))} Eckardt points")
print(alpha1_report(generic))
print()

# same question on an explicit cubic surface: restrict to the tangent plane
# at p and look for a triple point there
cubic = CubicForm.from_dict({
    (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
    (0, 1, 1, 1): 6,
    (2, 1, 0, 0): 1, (2, 0, 1, 0): 2, (2, 0, 0, 1): 3,
})
p = point(1, 0, 0, 0)
section = tangent_plane_restriction(cubic, p)
print(f"cubic {cubic}")
print(f"tangent-plane section at (1:0:0:0): {ternary(section)}")
print(f"eckardt point: {is_eckardt_on_cubic(cubic, p)}")

fermat = CubicForm.from_dict({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                              (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
print(f"fermat at (1:-1:0:0): {is_eckardt_on_cubic(fermat, point(1, -1, 0, 0))}")
print(f"fermat at (3:4:5:-6): {is_eckardt_on_cubic(fermat, point(3, 4, 5, -6))}")
