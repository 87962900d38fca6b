"""Numerical toolkit for contact stationary Legendrian surfaces in S^5.

Modules: contact (ambient contact metric structure), immersions (surface
catalog, grids, perturbations), extrinsic (pointwise curvature data),
grid_ops (global operators, residuals, integrals), flow (constrained
area descent), report (serialization), cli (command line).
"""

from .contact import contact_form, j_apply
from .extrinsic import adapted_frame, extrinsic_data, pointwise_identity_residuals
from .flow import first_variation_check, run_flow
from .grid_ops import derived_geometry, integral_report, quadrature
from .immersions import (
    GridSurface,
    Immersion,
    Jet2,
    catalog,
    eval_jet2,
    perturbed_torus,
    resample_to_grid,
)
from .report import Report

__all__ = [
    "GridSurface",
    "Immersion",
    "Jet2",
    "Report",
    "adapted_frame",
    "catalog",
    "contact_form",
    "derived_geometry",
    "eval_jet2",
    "extrinsic_data",
    "first_variation_check",
    "integral_report",
    "j_apply",
    "perturbed_torus",
    "pointwise_identity_residuals",
    "quadrature",
    "resample_to_grid",
    "run_flow",
]

__version__ = "0.1.0"
