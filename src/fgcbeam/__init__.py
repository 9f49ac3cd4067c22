"""Finite element bending analysis of functionally graded sandwich beams.

Two-node, 8-DOF shear-deformable beam element for straight and curved
FG sandwich sections under static transverse loading, with benchmark
fixtures and a config-driven CLI (see ``fgcbeam.cli``).
"""

from .config import CaseConfig, ConfigError, parse_config
from .materials import (
    DEFAULT_MATERIAL,
    Layup,
    LayupKind,
    MaterialPair,
    stiffness_coeffs,
)
from .postproc import deflection_point, table_scales
from .section import SectionRigidities, compute_rigidities, shear_functions
from .solver import (
    BoundaryCondition,
    LoadCase,
    Mesh,
    SingularSystemError,
    assemble_load,
    solve_static,
)
from .studies import CaseResults, convergence_study, evaluate_case, evaluate_cases, sweep

__all__ = [
    "CaseConfig", "ConfigError", "parse_config",
    "DEFAULT_MATERIAL", "Layup", "LayupKind", "MaterialPair",
    "stiffness_coeffs",
    "deflection_point", "table_scales",
    "SectionRigidities", "compute_rigidities", "shear_functions",
    "BoundaryCondition", "LoadCase", "Mesh", "SingularSystemError",
    "assemble_load", "solve_static",
    "CaseResults", "convergence_study", "evaluate_case", "evaluate_cases", "sweep",
]

__version__ = "0.1.0"
