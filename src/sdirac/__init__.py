"""Symplectic Dirac operator blocks on the complex projective line.

The package assembles the two first-order operator families and the
second-order commutator operator both from first principles (Hermite
ladder calculus, su(2) generator matrices, circle-equivariant maps) and
from their closed tridiagonal form, verifies the routes agree, and
computes exact and numerical spectral data.
"""

from .hermite import clifford_band, omega0, oscillator_band, weight_on_Wl
from .intertwine import hom_space, hom_space_oracle
from .operators import (
    CharPoly,
    DiracMatrix,
    a_coeff,
    assemble_closed_form,
    assemble_from_definition,
    build_report,
    charpoly_exact,
    p_operator,
    signed_det,
    spectrum,
    unnormalized_coeffs,
)
from .su2 import RepMatrices, build_rep, check_bracket
from .tridiag import eigvalsh_tridiagonal

__version__ = "0.1.0"
