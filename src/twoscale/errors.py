"""Exception hierarchy shared by every module in the package.

All validation failures raise a subclass of TwoscaleError so callers can
catch library errors without swallowing genuine bugs.  The CLI maps these
onto process exit codes (see cli.py).
"""


class TwoscaleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwoscaleError, ValueError):
    """An argument lies outside the mathematically admissible range."""


class DataError(TwoscaleError, ValueError):
    """A supplied array or coefficient output is non-finite or mis-shaped."""


class UsageError(TwoscaleError, ValueError):
    """Inputs are individually valid but mutually incompatible."""


class ConfigError(TwoscaleError, ValueError):
    """A scenario configuration failed validation."""


class DegenerateFitError(TwoscaleError, RuntimeError):
    """Too few usable points remain to fit a decay rate."""


class DivergenceError(TwoscaleError, RuntimeError):
    """A simulated state left the admissible region (non-finite or huge).

    Carries enough context to reproduce the blow-up: the step index at
    which it was detected, the corresponding time, and the last finite
    state vector.
    """

    def __init__(self, step_index, time, last_state, detail=""):
        self.step_index = int(step_index)
        self.time = float(time)
        self.last_state = last_state
        self.detail = detail
        msg = f"state diverged at step {self.step_index} (t={self.time:.6g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # args holds the message, not the constructor's arguments.
        args = (self.step_index, self.time, self.last_state, self.detail)
        return type(self), args, self.__dict__
