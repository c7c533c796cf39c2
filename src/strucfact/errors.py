"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """LAPACK's SVD or symmetric eigensolver failed to converge."""
