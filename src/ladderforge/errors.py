"""Exception types shared across the package."""


class LadderForgeError(Exception):
    """Base class for package errors."""


class CutoffMismatch(LadderForgeError):
    """Two objects built over different Fock-space truncations were combined."""


class CutoffTooSmall(LadderForgeError):
    """The truncation cannot hold what a scenario must check."""


class DomainError(LadderForgeError):
    """A constructor was asked to run outside its domain of validity.

    ``code`` is a short machine-readable identifier (e.g. ``"squeeze-domain"``,
    ``"non-normalizable"``) so batch drivers can distinguish refusals from bugs.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
