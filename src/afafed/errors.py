"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending key path."""


class ProtocolError(RuntimeError):
    """A protocol invariant was violated (e.g. a timestamp from the future)."""


class NumericDivergenceError(RuntimeError):
    """A coworker produced a non-finite model vector, multiplier or constraint
    violation; ``what`` names which."""

    def __init__(self, coworker: int, time: float, what: str):
        self.coworker = coworker
        self.time = time
        super().__init__(
            f"coworker {coworker} diverged at virtual time {time:.6g}: non-finite {what}"
        )
