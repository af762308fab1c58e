"""Exact computational tools for cubic surfaces and their alpha-invariants.

Everything is rational arithmetic end to end: the Picard lattice of a cubic
surface (smooth or one-node), log canonical thresholds of plane curve germs
by Newton polygon and by embedded resolution, exact Fourier-Motzkin solving
for the multiplicity bookkeeping, six-point plane configurations with their
Eckardt points, and the exhaustive locus scans that rule out small-threshold
boundary divisors.

The public names are re-exported lazily (PEP 562): `import delpezzo` loads
no submodule, and reading `delpezzo.solve` imports `delpezzo.constraints`
and returns its `solve`.  The name is looked up on the defining module at
every read and never stored here, so a patch of that module's attribute is
what the package shows.
"""

import importlib

# each module that defines public names, and those names
_EXPORTS = {
    "constraints": ("ConstraintSystem", "LinearConstraint", "SolveReport",
                    "VarBounds", "encode_case2", "encode_case3",
                    "encode_nodal", "parse_system", "solve"),
    "germs": ("CurveGerm", "parse_germ"),
    "lattice": ("C", "E", "F", "H", "L", "MINUS_K", "DivisorClass",
                "SurfaceModel", "enumerate_negative_curves",
                "incidence_graph", "is_ample", "is_effective", "third_line",
                "tritangent_triples"),
    "linalg": ("nonnegative_combination",),
    "lct": ("LctReport", "NewtonPolygon", "blowup_lct", "check_lemma52",
            "check_mult_bounds", "holder_product_bound", "newton_lct",
            "newton_polygon"),
    "lemma_verify": ("Alpha1Report", "CaseVerdict", "Decomposition",
                     "ScanRecord", "alpha1_report",
                     "canonical_nodal_survivor", "classify_smooth_candidate",
                     "decomposition", "degree_budget_check", "lemma31_scan",
                     "lemma51_scan"),
    "plane_config": ("CubicForm", "EckardtRecord", "SixPointConfig",
                     "eckardt_points", "is_eckardt_on_cubic", "load_config",
                     "load_cubic", "monomial_name", "point",
                     "tangent_plane_restriction", "validate"),
    "resolution": ("DepthExceededError", "Resolution", "ResolutionNode",
                   "resolve_germ"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # a public name, or one of the modules that define them
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
