"""Exception types shared across the package."""


class RieszlabError(Exception):
    """Base class for all rieszlab errors."""


class NotPositive(RieszlabError):
    """The operation requires a map whose positive flag is certified."""


class NumericallySingular(RieszlabError):
    """The matrix is singular at the configured floor."""

    def __init__(self, sigma_min: float, sigma_max: float):
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        super().__init__(
            f"numerically singular: sigma_min={self.sigma_min:.6e}, "
            f"sigma_max={self.sigma_max:.6e}"
        )


class DimensionMismatch(RieszlabError):
    """Operands do not share a common dimension."""


class OracleMismatch(RieszlabError):
    """Closed-form matrix entries disagree with the quadrature oracle."""


class WrongAlphaKind(RieszlabError):
    """The check is only defined for a specific eigenvalue-sequence kind."""


class ParseError(RieszlabError):
    """Configuration rejected; carries the JSON path of the first offence."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
