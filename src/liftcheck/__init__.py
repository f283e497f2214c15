"""Exact symbolic checker for almost r-contact structures and their
tangent-bundle lifts."""

from .algebra import EpsComplex, NotUnimodular, Poly, PolyMatrix
from .tensor import Chart, Point, TensorField
from .structures import (
    CheckEntry,
    CheckReport,
    RContactStructure,
    canonical_complex,
    canonical_structure,
    check_axioms,
    check_metric,
    conjugate_structure,
    consistency_lint,
    contact_structure,
)
from .lifts import (
    COMPLETE,
    HORIZONTAL,
    VERTICAL,
    Connection,
    TangentChart,
    lift_endo,
    lift_function,
    lift_oneform,
    lift_vector,
    verify_lift_interactions,
)
from .theorems import (
    LiftedStructureSpec,
    build_lifted_j,
    sign_sweep,
    theorem_spec,
    verify_action_formulas,
    verify_theorem,
)

__version__ = "0.1.0"
