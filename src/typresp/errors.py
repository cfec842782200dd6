"""Exception types the package raises."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class GridMismatchError(ValueError):
    """Two series that must share a time grid do not."""


class SolverBlowUpError(RuntimeError):
    """The response-function solver left its stability envelope (|gamma| > 10, or NaN)."""

    def __init__(self, t: float, value: float):
        self.t = t
        self.value = value
        super().__init__(
            f"|gamma| = {abs(value):.3g} exceeded the blow-up threshold at t = {t:.6g}; "
            "reduce the step size"
        )


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance during propagation."""


class EmptyWindowError(ValueError):
    """An energy window contains no levels (or no weight after filtering)."""
