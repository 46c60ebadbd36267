"""The package's one tolerance policy.

Only the four quadrature entry points take an EvalOptions. Every computation
above them runs at DEFAULT_OPTIONS, whose rel_tol and abs_tol also stop the
series of bpl.special; NESTED is the only departure, for the reason given
next to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class EvalOptions:
    """Tolerances and refinement budget of the adaptive quadrature.

    rel_tol / abs_tol enter the stopping rule err <= rel_tol*|total| + abs_tol,
    max_quad_refinements bounds the number of refinement rounds. A larger
    budget never changes a converged value: the refinement loop stops on the
    round where every column meets its tolerance.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_quad_refinements: int = 150

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_quad_refinements < 1:
            raise DomainError("max_quad_refinements must be >= 1")


DEFAULT_OPTIONS = EvalOptions()

# Outer integral of a computed integrand (a quadrature or series per node):
# the integrand's own ~1e-12 noise would keep a 1e-12 outer loop splitting.
NESTED = EvalOptions(rel_tol=1e-10, abs_tol=1e-14)
