"""Exception types shared across the toolkit."""


class PreconditionError(ValueError):
    """An operation was called on data that violates its stated preconditions.

    Carries optional numeric diagnostics so callers can report what was
    actually measured (rank, singular values).
    """

    def __init__(self, message, *, rank=None, singular_values=None):
        super().__init__(message)
        self.rank = rank
        self.singular_values = singular_values


class IdentificationError(RuntimeError):
    """Degradation-mode identification could not be completed.

    ``detail`` names the offending item (e.g. the sample pair that breaks
    cluster separation, or the missing basis/anchor of a cluster).
    """

    def __init__(self, message, *, detail=None):
        super().__init__(message)
        self.detail = detail


class UnviableInputError(ValueError):
    """The commanded input is outside the reconstructed viable range."""

    def __init__(self, message, *, u_cmd=None):
        super().__init__(message)
        self.u_cmd = u_cmd


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class ReportParseError(ValueError):
    """A serialized reconstruction or star-set file is malformed."""

    def __init__(self, message, *, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
