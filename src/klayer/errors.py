"""Exception types shared by the solvers."""


class SolverError(RuntimeError):
    """Base class for numerical failures (as opposed to bad arguments)."""


class NoConvergenceError(SolverError):
    """An iterative solver exhausted its iteration budget."""


class PositivityError(SolverError):
    """A field that must stay positive became non-positive."""


class NoCrossingError(ValueError):
    """A level-set / interpolation target lies outside the attained range."""


class AxisSingularityError(ValueError):
    """A closed-form bound was evaluated at r = 0 where it diverges."""
