"""Exception types shared by every numeric module."""


class BplError(Exception):
    """Base class for all library errors."""


class DomainError(BplError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergenceError(BplError, RuntimeError):
    """A series or acceleration scheme exhausted its term budget."""


class QuadratureError(BplError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


def describe(exc: BaseException) -> str:
    """'<class>: <message>' on one line for an error row or stderr line. The
    class is the nearest public one in exc's hierarchy, so a private
    subclass is reported under the public class it refines."""
    name = next(k.__name__ for k in type(exc).__mro__ if not k.__name__.startswith("_"))
    return f"{name}: {' '.join(str(exc).split())}"
