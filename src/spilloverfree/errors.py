"""Error hierarchy shared by all modules.

Every error class carries a distinct CLI exit code so batch scripts can
dispatch on failure class without parsing messages. Code 29 is reserved
for plain file-system errors (OSError), which are not wrapped.
"""


class SpilloverError(Exception):
    """Base class for all domain errors."""

    exit_code = 1


class DimensionMismatch(SpilloverError):
    exit_code = 10


class AsymmetricInput(SpilloverError):
    exit_code = 11


class SingularBlock(SpilloverError):
    """M_u or K_phi is numerically singular, so the pencil cannot be
    certified regular."""

    exit_code = 12


class DegenerateSpectrum(SpilloverError):
    """A finite eigenvalue is repeated or zero within tolerance."""

    exit_code = 13


class NotConjugateClosed(SpilloverError):
    exit_code = 14


class ZeroEigenvalue(SpilloverError):
    exit_code = 15


class DuplicateEigenvalue(SpilloverError):
    exit_code = 16


class MalformedBlocks(SpilloverError):
    """Real block-diagonal eigenvalue data violates the 2x2-then-scalar
    layout."""

    exit_code = 17


class NoMatch(SpilloverError):
    exit_code = 18


class Overlap(SpilloverError):
    """A selected eigenvalue coincides with a retained one; the replaced
    and retained spectra must be disjoint."""

    exit_code = 19


class RankDeficient(SpilloverError):
    exit_code = 20


class Singular(SpilloverError):
    exit_code = 21


class IllDefined(SpilloverError):
    """An update formula produced a matrix whose inverse is not
    trustworthy (reciprocal condition estimate below threshold)."""

    exit_code = 22


class SingularT(SpilloverError):
    exit_code = 23


class NoFeasiblePoint(SpilloverError):
    exit_code = 24


class StructureInfeasible(SpilloverError):
    exit_code = 25


class GenerationFailed(SpilloverError):
    exit_code = 26


class ParseError(SpilloverError):
    """Malformed input file. Carries the 1-based line and column."""

    exit_code = 27

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        if column is not None:
            where += f"{column}:"
        if where:
            message = f"{where} {message}"
        super().__init__(message)


class VerificationFailed(SpilloverError):
    exit_code = 28


class UncertifiedSpectrum(VerificationFailed):
    """Stored eigendata fails the eigenpair certificate against its
    pencil: it is stale, truncated or tampered with."""
