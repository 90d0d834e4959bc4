"""Deformed angular momentum algebra at desk scale.

Closed-form invariants, fixed-winding harmonics with a deformed measure,
block-sparse operator matrices with an identity verifier, and the two
exactly solvable radial spectra with an independent shooting check.
"""

__version__ = "0.1.0"

from .qcore import DOUBLE, HIGH, InvariantSet, QParam, invariants, qdouble_factorial, qfactorial, qnum
from .angular import (
    AngularFunction,
    angular_function,
    apply_c_invariant,
    apply_casimir,
    apply_l0,
    apply_lambda,
    apply_lminus,
    apply_lplus,
    build_phi,
    build_y,
    hypergeom_phi,
    mul_position,
    mul_position_right,
    normalization_constant,
)
from .jackson import (
    QMeasure,
    inner_product,
    integrate_monomial,
    series_convergence_probe,
)
from .irrep import (
    IdentityCheck,
    OperatorMatrix,
    VerifyReport,
    build_generators,
    build_invariant_c,
    build_lambda,
    build_partial,
    build_partial_elements,
    build_position,
    diag_operator,
    identity_operator,
    position_coeff_lower,
    position_coeff_upper,
    scalar_product,
    transverse_square_candidates,
    verify_algebra,
)
from .spectra import (
    COULOMB,
    OSCILLATOR,
    DegeneracyReport,
    MultipoleReport,
    RadialGrid,
    RadialReport,
    SpectrumEntry,
    centrifugal_rhs,
    coulomb_energy,
    degeneracy_report,
    multipole_report,
    oscillator_energy,
    radial_verify,
    solve_l,
    spectrum_table,
)
