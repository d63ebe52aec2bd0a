"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigurationError (and an OSError, such
as an output path that cannot be written) -> 2, InfeasibleModelError -> 3,
InternalConsistencyError -> 4.
"""


class AgentsimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AgentsimError):
    """Invalid user input: bad config file, bad spec values, unknown names."""


class UnknownProfileError(ConfigurationError):
    """Profile lookup failed; carries the list of available names."""

    def __init__(self, name: str, available: list[str]):
        self.name = name
        self.available = sorted(available)
        super().__init__(
            f"unknown profile {name!r}; available: {', '.join(self.available)}"
        )


class InfeasibleModelError(AgentsimError):
    """Calibration data outside the model's representable range."""


class InternalConsistencyError(AgentsimError):
    """Engine invariant violated; indicates a bug, not bad input."""
