"""The array contract of every public density and transform of convolution,
identities, thorin and distributions: a scalar gives a float, an array gives
an array of its shape whose values are those of per-point scalar calls, and a
point outside the domain raises DomainError before anything is evaluated."""

import numpy as np
import pytest

from bpl import convolution, distributions, identities, quadrature, special, thorin
from bpl.convolution import (
    SumSpec,
    sum_density_2f1,
    sum_density_appell,
    sum_density_bhalf,
    sum_density_pfaff1,
    sum_density_pfaff2,
)
from bpl.distributions import BetaPrimeParams, betaprime_pdf
from bpl.errors import DomainError
from bpl.identities import lemma_densities, prop_b0_spec, theorem_a_spec
from bpl.thorin import (
    ThorinParams,
    awk_density,
    f_ax,
    thorin_cdf,
    thorin_cdf_a1,
    thorin_density,
)

P = ThorinParams(0.5, 0.5)
BP = BetaPrimeParams(0.6, 0.8)
APPELL = SumSpec(2.0, BetaPrimeParams(1.0, 2.0), 0.5, BetaPrimeParams(0.5, 1.5))
HALFLINE = np.geomspace(0.05, 20.0, 6).reshape(2, 3)
AUX = np.array([[1.1, 1.5, 1.9], [2.1, 3.0, 12.0]])

# name, function, points of its domain (shape (2, 3)), a point outside it
CASES = [
    ("sum_density_appell", lambda x: sum_density_appell(APPELL, x), HALFLINE, 0.0),
    ("sum_density_2f1", lambda x: sum_density_2f1(BP, x), HALFLINE, -1.0),
    ("sum_density_pfaff1", lambda x: sum_density_pfaff1(BP, x), HALFLINE, 0.0),
    ("sum_density_pfaff2", lambda x: sum_density_pfaff2(BP, x), HALFLINE, np.nan),
    ("sum_density_bhalf", lambda x: sum_density_bhalf(0.7, x), HALFLINE, 0.0),
    ("lemma_betastr_f", lambda x: lemma_densities("betastr_f", 0.7, x), AUX, 2.0),
    ("lemma_betastr_g", lambda x: lemma_densities("betastr_g", 0.7, x), AUX, 1.0),
    ("lemma_betastrb_f", lambda x: lemma_densities("betastrb_f", 0.3, x), AUX, 0.5),
    ("lemma_betastrb_g", lambda x: lemma_densities("betastrb_g", 0.3, x), AUX, 2.0),
    ("theorem_a_lhs", theorem_a_spec(0.7).lhs_density, HALFLINE, 0.0),
    ("theorem_a_rhs", theorem_a_spec(0.7).rhs_density, HALFLINE, 0.0),
    ("prop_b0_lhs", prop_b0_spec(1.0, 0.5, 1.5).lhs_density, HALFLINE, -2.0),
    ("prop_b0_rhs", prop_b0_spec(1.0, 0.5, 1.5).rhs_density, HALFLINE, 0.0),
    ("f_ax", lambda t: f_ax(P, t), HALFLINE, 0.0),
    ("thorin_cdf", lambda t: thorin_cdf(P, t), HALFLINE, -1.0),
    ("thorin_density", lambda t: thorin_density(P, t), HALFLINE, 0.0),
    ("thorin_cdf_a1", lambda t: thorin_cdf_a1(0.5, t), HALFLINE, np.nan),
    ("awk_density", lambda t: awk_density(1.0, t),
     np.array([[-3.0, -0.4, 0.0], [1e-5, 0.7, 2.5]]), np.inf),
    ("betaprime_pdf", lambda x: betaprime_pdf(BP, x), HALFLINE, 0.0),
]

# closed forms evaluated in place, without quadrature._flat: the guard below
# cannot see them evaluate, so only their DomainError is checked
IN_PLACE = {"betaprime_pdf", "prop_b0_lhs"}

# the densities of the Thorin law are a five-point stencil over t, which
# divides the last-bit differences of a shared quadrature mesh by 12h ~ 1e-3
STENCIL = {"thorin_density", "awk_density"}


@pytest.mark.parametrize("name, fn, points, outside", CASES, ids=[c[0] for c in CASES])
def test_array_contract(name, fn, points, outside, monkeypatch):
    got = fn(points)
    assert isinstance(got, np.ndarray) and got.shape == points.shape
    assert type(fn(float(points[0, 1]))) is float
    assert type(fn(np.float64(points[0, 1]))) is float
    want = np.array([fn(float(x)) for x in points.ravel()]).reshape(points.shape)
    rtol = 1e-10 if name in STENCIL else 1e-13
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))

    # every array-first function evaluates through quadrature._flat's single
    # call of its fn (column_blocks is built on it), so a helper whose fn
    # raises shows any evaluation that comes before the domain check
    real_flat = quadrature._flat

    def evaluated(zs):
        raise AssertionError("evaluated before the domain check")

    def guarded(_fn, z, positive=None):
        return real_flat(evaluated, z, positive)

    for module in (quadrature, special, convolution, distributions, identities, thorin):
        if getattr(module, "_flat", None) is real_flat:
            monkeypatch.setattr(module, "_flat", guarded)
    if name not in IN_PLACE:
        with pytest.raises(AssertionError):
            fn(points)
    # NaN is outside every domain, scalar or inside an array
    for bad in (outside, np.nan):
        with pytest.raises(DomainError):
            fn(np.append(points.ravel(), bad))
        with pytest.raises(DomainError):
            fn(bad)
