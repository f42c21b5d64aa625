"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid physical constants, grid sizes, or experiment settings."""


class SolverBlowUpError(RuntimeError):
    """Explicit time stepping exceeded the overflow guard and was aborted."""

    status = "blow_up"

    def __init__(self, step, message=None):
        self.step = step
        if message is None:
            message = f"solution magnitude exceeded the overflow guard at time step {step}"
        super().__init__(message)


class CurvatureLossError(RuntimeError):
    """Conjugate gradients met nonpositive curvature along a search direction.

    The quadratic model underlying the step length is unusable when this
    happens; it indicates an inconsistent or unstable discrete problem.
    """

    status = "curvature_loss"

    def __init__(self, iteration, curvature):
        self.iteration = iteration
        self.curvature = curvature
        super().__init__(
            f"nonpositive curvature {curvature:.6e} in CG iteration {iteration}"
        )
