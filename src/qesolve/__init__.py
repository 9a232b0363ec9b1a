"""Complex quasi-exactly-solvable Schrodinger potentials with real spectra.

Builds the two implemented potential families (complex sextic oscillator,
Morse type) from their gauge data, solves the finite polynomial block
exactly (up to floating point), re-centers complex spectra by a constant
shift when one exists, and verifies every result independently: symbolic
residuals in the algebraized variable, normalization quadrature, a
PT-symmetry test, the isospectral partner construction, and a grid
discretization cross-check of each eigenvalue.
"""

from .analysis import (
    GridCheck,
    GridSpec,
    default_grid,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    psi_eval,
    residual_sup,
)
from .errors import (
    ConvergenceFailureError,
    NumericOverflowError,
    PoleError,
    QesError,
    ValidationError,
)
from .families import (
    EVEN,
    MORSE,
    ODD,
    SEXTIC,
    MorseParams,
    QesModel,
    SexticParams,
    closed_form_block_action,
    make_morse,
    make_sextic,
    potential_eval,
)
from .sl2 import (
    BlockMatrix,
    CPolynomial,
    OperatorCombination,
    SpinJ,
    build_block,
)
from .spectrum import (
    QesSolution,
    ShiftResult,
    common_imaginary_shift,
    eigen_solve,
    solve_model,
)

__version__ = "0.1.0"
