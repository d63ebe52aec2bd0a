"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigurationError (and an OSError, such
as an output path that cannot be written) -> 2, InfeasibleModelError -> 3,
InternalConsistencyError -> 4.
"""


class AgentsimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AgentsimError):
    """Invalid user input: bad config file, bad spec values, unknown names."""


class InfeasibleModelError(AgentsimError):
    """Calibration data outside the model's representable range."""


class InternalConsistencyError(AgentsimError):
    """Engine invariant violated; indicates a bug, not bad input."""
