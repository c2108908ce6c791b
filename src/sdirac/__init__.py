"""Symplectic Dirac operator blocks on the complex projective line.

The package assembles the two first-order operator families and the
second-order commutator operator both from first principles (Hermite
ladder calculus, su(2) generator matrices, circle-equivariant maps) and
from their closed tridiagonal form, verifies the routes agree, and
computes exact and numerical spectral data.
"""

from .exact import QQi
from .hermite import clifford_band, omega0, oscillator_band, weight_on_Wl
from .intertwine import (
    Intertwiner,
    NormalizedIntertwiner,
    dim_invariant_space,
    hom_space,
    hom_space_oracle,
    normalize,
)
from .operators import (
    CharPoly,
    DiracMatrix,
    SpectrumReport,
    a_coeff,
    abs_det,
    assemble_closed_form,
    assemble_from_definition,
    build_report,
    charpoly_exact,
    kernel_dim,
    norm_growth,
    p_operator,
    signed_det,
    spectrum,
    unnormalized_coeffs,
)
from .su2 import RepMatrices, build_rep, check_bracket
from .tridiag import eigvalsh_tridiagonal

__version__ = "0.1.0"
