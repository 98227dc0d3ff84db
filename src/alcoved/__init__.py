"""Exact arithmetic for affine Coxeter arrangements and alcoved polytopes.

The package builds crystallographic root systems in simple-root and
fundamental-coweight coordinates, enumerates Weyl groups and alcoves,
measures alcoved polytopes by exact normalized volume and lattice-point
counts, evaluates cyclic descent statistics and a group-algebra
q-analogue of Weyl's order formula, and produces quadratic binomial
rewriting systems whose standard monomials triangulate an alcoved
polytope into alcoves.
"""

from . import cli, geometry, groebner, polytope, rootsys, statistics, weyl
from .errors import AlcovedError, BudgetExceededError, DefectError, UserInputError
from .groebner import groebner_basis, is_standard, normal_form, triangulate
from .polytope import (
    AlcovedPolytope,
    adjacent_star,
    hypersimplex,
    lattice_point_count,
    make_polytope,
    spec_to_polytope,
    thick_hypersimplex,
    volume,
    volume_identity_check,
)
from .rootsys import RootSystemData, build, weyl_order
from .statistics import group_C, qweyl_check
from .weyl import enumerate_weyl

__version__ = "0.1.0"

__all__ = [
    "AlcovedError",
    "AlcovedPolytope",
    "BudgetExceededError",
    "DefectError",
    "RootSystemData",
    "UserInputError",
    "adjacent_star",
    "build",
    "cli",
    "enumerate_weyl",
    "geometry",
    "groebner",
    "groebner_basis",
    "group_C",
    "hypersimplex",
    "is_standard",
    "lattice_point_count",
    "make_polytope",
    "normal_form",
    "polytope",
    "qweyl_check",
    "rootsys",
    "spec_to_polytope",
    "statistics",
    "thick_hypersimplex",
    "triangulate",
    "volume",
    "volume_identity_check",
    "weyl",
    "weyl_order",
]
