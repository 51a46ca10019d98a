"""Numerical laboratory for entire solutions of the planar one-phase
Bernoulli free boundary problem.

The package evaluates the classical solution families exactly through
conformal charts, checks the defining conditions (harmonicity in the
positive phase through the variational residual, the unit slope condition
on the free boundary), and realizes each solution as a minimal surface via
the conjugated immersion of the positive phase.

Modules
-------
solutions    exact families: half-plane, two-plane, wedge, hairpin,
             disk complement, Scherk-type; rigid motions and dilations
conformal    the conformal charts behind hairpin and Scherk-type solutions
variational  the functional: discrete energy, minimizer, inner-variation
             residual, Weiss energy, viscosity slopes
geometry     free-boundary extraction and quantitative checks: Hausdorff,
             flux balance, circle maxima, flat trichotomy, annulus flatness
traizet      the correspondence with minimal surfaces: the immersion from
             each family's closed-form primitive, reflected meshes, their
             discrete mean curvature
cli          batch front end (`onephase <command>`)
"""

from .common import Window
from .errors import (ConvergenceError, DomainError, InvalidInputError,
                     NoSaddleError, OnePhaseError, TopologyError)
from .solutions import (DiskComplement, Hairpin, HalfPlane, RigidMotion,
                        Scherk, Solution, TwoPlane, Wedge, solution_from_dict)
from .variational import (ScalarField2D, TestVectorField, ac_energy,
                          minimize_ac, variational_residual, viscosity_slope,
                          weiss_energy)
from .geometry import (FreeBoundary, annulus_flat_check, circle_max,
                       classify_flat, extract_boundary, flux_balance,
                       hausdorff)
from .traizet import (build_mesh, canonical_mesh, mean_curvature,
                      orthogonality_check, traizet_map)

__version__ = "0.1.0"

__all__ = [
    "Window",
    "OnePhaseError", "InvalidInputError", "DomainError",
    "NoSaddleError", "ConvergenceError", "TopologyError",
    "Solution", "RigidMotion", "HalfPlane", "TwoPlane", "Wedge", "Hairpin",
    "DiskComplement", "Scherk", "solution_from_dict",
    "ScalarField2D", "TestVectorField", "ac_energy", "minimize_ac",
    "variational_residual", "weiss_energy", "viscosity_slope",
    "FreeBoundary", "extract_boundary", "hausdorff", "flux_balance",
    "circle_max", "classify_flat", "annulus_flat_check",
    "traizet_map", "build_mesh",
    "canonical_mesh", "mean_curvature", "orthogonality_check",
    "__version__",
]
