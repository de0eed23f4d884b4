"""Exact pairing of rational cone functions with lattice step functions
into p-adic pseudo-measures, with measure criteria, moments, and cocycle
verification."""

from .amice import is_measure_amice, is_measure_vh, moment_table
from .cocycle import (
    CocycleInput,
    psi_cdg,
    verify_cocycle,
    verify_equivariance,
    verify_measure_valued,
)
from .cones import (
    ConeFunction,
    DeformationVector,
    OpenCone,
    deformed_cone_decompose,
)
from .linalg import det
from .padic import PadicScalar
from .solomon_hu import (
    GroupAlgebraElement,
    PseudoMeasure,
    act_pm,
    pair_cone_function,
    pair_open_cone,
    pm_eq,
    pm_is_integer_constant,
    pm_sum,
)
from .testfunctions import (
    LatticeContext,
    TestFunction,
    check_vh,
    random_congruence_element,
    stabilizes,
)

__version__ = "0.1.0"
