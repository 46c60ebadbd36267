"""The package's one tolerance policy and generic hypergeometric argument records.

Only the four quadrature entry points take an EvalOptions. Every computation
above them runs at DEFAULT_OPTIONS, whose rel_tol and abs_tol also stop the
series of bpl.special; NESTED and DIVERGENCE_CHECK are the only departures,
each for the reason given next to it.
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

# Divergence check: a divergent integral keeps splitting its panels and fails
# within 30 rounds, while more rounds can let it pass for a finite value.
DIVERGENCE_CHECK = EvalOptions(max_quad_refinements=30)


@dataclass(frozen=True)
class HypArgs:
    """Parameters of a generalized hypergeometric series pFq(numerator; denominator; z)."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]
    z: float

    def __init__(self, numerator, denominator, z):
        object.__setattr__(self, "numerator", tuple(float(a) for a in numerator))
        object.__setattr__(self, "denominator", tuple(float(b) for b in denominator))
        object.__setattr__(self, "z", float(z))
        for b in self.denominator:
            if b <= 0 and b == round(b):
                raise DomainError(f"denominator parameter {b} is a non-positive integer")
        if self.z == 1.0:
            margin = sum(self.denominator) - sum(self.numerator)
            if margin <= 0:
                raise DomainError(
                    f"series at unit argument diverges: parameter margin {margin} <= 0"
                )

    @property
    def unit_margin(self) -> float:
        return sum(self.denominator) - sum(self.numerator)
