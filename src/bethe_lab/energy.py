"""Energy evaluation for regular and physical singular Bethe solutions.

Regular solutions use the closed form

    E = -(J/2) sum_j 1 / (L_j^2 + 1/4).

Singular solutions {i/2, -i/2, L_3, ...} regularized the Nepomechie-Wang
way carry the finite energy

    E = -J - (J/2) sum_{j>=3} 1 / (L_j^2 + 1/4),

and both are cross-checked here against the independent route

    E = (J/2) (i d/dL log Lambda(L)|_{L=i/2} - n)

with the derivative taken by central differences of the transfer-matrix
eigenvalue, extrapolated to epsilon = 0 at second order for the
singular case.  There is no coupling parameter: every energy is in
units of J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abba import RegularizationParams, perturbed_singular_roots, transfer_eigenvalue
from .baesolver import PHYSICAL_SINGULAR, REGULAR, RootSet, nw_constants, singular_partners

REGULAR_FORMULA = "regular_formula"
NW_THEOREM = "nw_theorem"
LAMBDA_LOGDERIV = "lambda_logderiv"

# epsilons at which a singular set is regularized before extrapolation,
# and the central-difference step of the log-derivative
_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
_H = 1e-6


class DegenerateDenominatorError(ZeroDivisionError):
    """Transfer eigenvalue vanishes at i/2; the log-derivative is undefined."""


@dataclass(frozen=True)
class EnergyResult:
    energy: float
    method: str
    imag_leak: float


def _pack(value: complex, method: str) -> EnergyResult:
    return EnergyResult(float(value.real) + 0.0, method, abs(value.imag))


def energy_regular(rootset: RootSet) -> EnergyResult:
    """Closed-form energy of a regular solution, in units of J."""
    if singular_partners(rootset.roots) is not None:
        raise ValueError("singular root set; use energy_nw")
    total = 0j
    for z in rootset.roots:
        total += 1.0 / (complex(z) ** 2 + 0.25)
    return _pack(-0.5 * total, REGULAR_FORMULA)


def energy_nw(rootset: RootSet) -> EnergyResult:
    """Finite energy of a regularized singular solution, in units of J."""
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    total = 0j
    for z in others:
        total += 1.0 / (complex(z) ** 2 + 0.25)
    return _pack(-1.0 - 0.5 * total, NW_THEOREM)


def energy_of(rootset: RootSet) -> EnergyResult:
    """Dispatch on the classification tag."""
    if rootset.classification == REGULAR:
        return energy_regular(rootset)
    if rootset.classification == PHYSICAL_SINGULAR:
        return energy_nw(rootset)
    raise ValueError(f"no energy defined for classification {rootset.classification!r}")


def _logderiv_value(roots, n: int) -> complex:
    lam0 = 0.5j
    lam_val = transfer_eigenvalue(lam0, roots, n)
    if abs(lam_val) < 1e-100:
        raise DegenerateDenominatorError(
            "transfer eigenvalue vanishes at i/2; cannot form the log-derivative"
        )
    deriv = (
        transfer_eigenvalue(lam0 + _H, roots, n)
        - transfer_eigenvalue(lam0 - _H, roots, n)
    ) / (2.0 * _H)
    return 0.5 * (1j * deriv / lam_val - n)


def energy_logderiv(rootset: RootSet, c: complex | None = None) -> EnergyResult:
    """Energy via the log-derivative of the transfer eigenvalue at i/2.

    Regular sets are evaluated directly; singular ones are evaluated on
    the roots regularized with the constant ``c`` (default: c1 of
    ``nw_constants``) for each epsilon of the ladder, and the quadratic
    through all three values is evaluated at eps = 0, so the error terms
    in eps and eps^2 cancel.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        return _pack(_logderiv_value(rootset.roots, n), LAMBDA_LOGDERIV)
    if c is None:
        c = nw_constants(rootset)[0]
    extrap = 0j
    for eps in _EPS_LADDER:
        roots = perturbed_singular_roots(others, n, RegularizationParams(eps, c))
        # Lagrange weight of this rung at eps = 0
        weight = math.prod(e / (e - eps) for e in _EPS_LADDER if e != eps)
        extrap += weight * _logderiv_value(roots, n)
    return _pack(extrap, LAMBDA_LOGDERIV)
