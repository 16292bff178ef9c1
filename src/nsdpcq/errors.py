"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad problem data or a bad argument
is a usage error (exit 2), an infeasible base point is a data error
(exit 3), and anything that dies inside the numerics is an internal
failure (exit 4).
"""


class NsdpcqError(Exception):
    """Base class for all errors raised by this package."""


class ProblemFormatError(NsdpcqError):
    """Problem file, in-memory problem data or a command-line argument
    violates its schema or range."""


class InfeasiblePointError(NsdpcqError):
    """The supplied base point violates G(x) PSD or an equality h_i(x) = 0
    beyond the one threshold of :func:`nsdpcq.cqcheck.feasibility_data`.

    A violated PSD constraint carries the eigenvalues of G(x) so callers
    can print diagnostics; a violated equality carries none.
    """

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = None if eigenvalues is None else list(eigenvalues)


class NumericalFailure(NsdpcqError):
    """An internal numeric routine failed to converge, went singular or,
    in the phase-one simplex, ran past its pivot cap."""
