"""Numerical laboratory for beta prime convolutions.

Special functions, exact distributional transforms, seeded samplers, an
identity-in-law verification engine, Thorin-measure computations and
complete-monotonicity probes, with a CSV-reporting command line front end.
"""

__version__ = "0.1.0"

from .errors import BplError, DomainError, NonConvergenceError, QuadratureError

__all__ = [
    "__version__",
    "BplError",
    "DomainError",
    "NonConvergenceError",
    "QuadratureError",
]
