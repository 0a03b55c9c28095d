"""Exception hierarchy shared by all mvlab modules.

Each class maps to one CLI exit code (see the ``EXIT_*`` constants in
``mvlab.cli``) so scripted callers can tell usage mistakes from data
problems from generation failures.
"""


class MvlabError(Exception):
    """Base class for all mvlab errors."""


class ParameterError(MvlabError, ValueError):
    """A distribution or utility parameter violates its constraints."""


class DomainError(MvlabError, ValueError):
    """An evaluation point lies outside the function's domain."""


class InfeasibleTargetError(MvlabError, ValueError):
    """Requested moments cannot be realized by the chosen family."""


class UnsupportedFamilyError(MvlabError, ValueError):
    """The operation is not defined for this distribution family."""


class GenerationError(MvlabError, RuntimeError):
    """A Monte Carlo pair could not be generated within the attempt cap."""


class IngestionError(MvlabError, ValueError):
    """An input file is malformed; the message carries row context."""


class UsageError(MvlabError, ValueError):
    """Invalid command-line arguments or configuration."""
