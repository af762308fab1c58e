"""Exact computational tools for cubic surfaces and their alpha-invariants.

Everything is rational arithmetic end to end: the Picard lattice of a cubic
surface (smooth or one-node), log canonical thresholds of plane curve germs
by Newton polygon and by embedded resolution, exact Fourier-Motzkin solving
for the multiplicity bookkeeping, six-point plane configurations with their
Eckardt points, and the exhaustive locus scans that rule out small-threshold
boundary divisors.
"""

from .constraints import (ConstraintSystem, LinearConstraint, SolveReport,
                          VarBounds, encode_case2, encode_case3, encode_nodal,
                          nonnegative_combination, parse_system, solve)
from .germs import CurveGerm, parse_germ
from .lattice import (C, E, F, H, L, MINUS_K, DivisorClass, SurfaceModel,
                      enumerate_negative_curves, incidence_graph, is_ample,
                      is_effective, third_line, tritangent_triples)
from .lct import (LctReport, NewtonPolygon, blowup_lct, check_lemma52,
                  check_mult_bounds, holder_product_bound, newton_lct,
                  newton_polygon)
from .lemma_verify import (Alpha1Report, CaseVerdict, Decomposition,
                           ScanRecord, alpha1_report, canonical_nodal_survivor,
                           classify_smooth_candidate, decomposition,
                           degree_budget_check, lemma31_scan, lemma51_scan)
from .plane_config import (CubicForm, EckardtRecord, SixPointConfig,
                           eckardt_points, is_eckardt_on_cubic, load_config,
                           load_cubic, monomial_name, point,
                           tangent_plane_restriction, validate)
from .resolution import (DepthExceededError, Resolution, ResolutionNode,
                         resolve_germ)

__all__ = [
    "Alpha1Report", "C", "CaseVerdict", "ConstraintSystem", "CubicForm",
    "CurveGerm", "Decomposition", "DepthExceededError", "DivisorClass", "E",
    "EckardtRecord", "F", "H", "L", "LctReport", "LinearConstraint", "MINUS_K",
    "NewtonPolygon", "Resolution", "ResolutionNode", "ScanRecord",
    "SixPointConfig", "SolveReport", "SurfaceModel", "VarBounds",
    "alpha1_report", "blowup_lct", "canonical_nodal_survivor",
    "check_lemma52", "check_mult_bounds", "classify_smooth_candidate",
    "decomposition", "degree_budget_check", "eckardt_points", "encode_case2",
    "encode_case3", "encode_nodal", "enumerate_negative_curves",
    "holder_product_bound", "incidence_graph", "is_ample",
    "is_eckardt_on_cubic", "is_effective", "lemma31_scan", "lemma51_scan",
    "load_config", "load_cubic", "monomial_name",
    "newton_lct", "newton_polygon", "nonnegative_combination", "parse_germ",
    "parse_system",
    "point", "resolve_germ", "solve", "tangent_plane_restriction",
    "third_line", "tritangent_triples", "validate",
]

__version__ = "0.1.0"
