"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to converge within its cap."""


class UsageError(Exception):
    """A command line the CLI cannot run: a bad argument or range."""
