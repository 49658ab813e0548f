"""Exception types shared across the toolkit."""


class L2SError(Exception):
    """Base class for all toolkit errors."""


class HorizonExceeded(L2SError):
    """A rollout was asked to step past the fixed trajectory length."""


class NoLegalAction(L2SError):
    """A non-terminal state offered an empty action set (task bug)."""


class NotTerminal(L2SError):
    """End-state loss was requested for a state before the horizon."""


class EmptyActionSet(L2SError):
    """A policy was asked to choose among zero actions."""


class DimensionMismatch(L2SError):
    """Feature indices do not fit the model's weight dimension."""


class NonFiniteCost(L2SError):
    """A cost or loss value was NaN or infinite."""


class Diverged(L2SError):
    """A learner update step was NaN or infinite (eta0 too large)."""


class MissingGold(L2SError):
    """An operation needing gold labels ran on an unlabeled instance."""


class NoPolicies(L2SError):
    """Policy averaging was requested before any policy was recorded."""


class IllegalAction(L2SError):
    """An action index outside the state's live action set."""


class TraceIncomplete(L2SError):
    """A training trace is missing per-round policies needed for a check."""


class TooLarge(L2SError):
    """An enumeration guard tripped (search space too big)."""


class LossOutOfRange(L2SError):
    """A bandit loss oracle returned a value outside [0, 1]."""


class ModelTaskMismatch(L2SError):
    """A saved model's dimension conflicts with the task/data at hand."""


class BadConfig(L2SError):
    """Invalid configuration value or combination."""


class DataFormatError(L2SError):
    """A data file failed to parse; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
