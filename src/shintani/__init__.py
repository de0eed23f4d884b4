"""Exact pairing of rational cone functions with lattice step functions
into p-adic pseudo-measures, with measure criteria, moments, and cocycle
verification."""

from .amice import is_measure_amice, is_measure_vh, moment_table
from .cocycle import (
    CocycleInput,
    phi,
    psi_cdg,
    verify_cocycle,
    verify_equivariance,
    verify_measure_valued,
)
from .cones import (
    ConeFunction,
    DeformationVector,
    OpenCone,
    Wedge,
    act_on_cone_function,
    cone_contains,
    deformed_cone_decompose,
    deformed_cone_eval,
    eval_cone_function,
    wedge_decompose,
)
from .linalg import det, solve
from .padic import PadicScalar
from .solomon_hu import (
    GroupAlgebraElement,
    PseudoMeasure,
    act_pm,
    enumerate_fundamental_domain,
    pair_cone_function,
    pair_open_cone,
    pm_add,
    pm_eq,
    pm_is_integer_constant,
    pm_mul,
    pm_neg,
    slice_identity_check,
    truncated_q_expansion,
)
from .testfunctions import (
    LatticeContext,
    SliceFunction,
    TestFunction,
    act,
    check_vh,
    haar,
    line_slice,
    random_congruence_element,
    stabilizes,
)

__version__ = "0.1.0"
