"""Exception types shared across the package."""


class QesError(Exception):
    """Base class for all qesolve errors."""


class ValidationError(QesError):
    """Invalid parameters or malformed input."""


class NumericOverflowError(QesError):
    """An operation produced a non-finite (NaN/Inf) value."""


class PoleError(QesError):
    """Evaluation was requested at a pole of the superpotential."""


class ConvergenceFailureError(QesError):
    """An iterative solver ran out of iterations.

    Carries the best iterate seen (`best`) and its defect so callers can
    inspect how close the run came.
    """

    def __init__(self, message, best=None, defect=None):
        super().__init__(message)
        self.best = best
        self.defect = defect
