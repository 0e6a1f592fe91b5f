"""Energy evaluation for regular and physical singular Bethe solutions.

Regular solutions use the closed form

    E = -(J/2) sum_j 1 / (L_j^2 + 1/4).

Singular solutions {i/2, -i/2, L_3, ...} regularized the Nepomechie-Wang
way carry the finite energy

    E = -J - (J/2) sum_{j>=3} 1 / (L_j^2 + 1/4),

and both are cross-checked here against the independent route

    E = (J/2) (i d/dL log Lambda(L)|_{L=i/2} - n),

evaluated exactly: at L = i/2 only the first term of the transfer
eigenvalue Lambda = a + d contributes to the log-derivative, and the
singular pair enters it through its finite combined factor.  There is
no coupling parameter: every energy is in units of J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# transfer_eigenvalue is not called here; benchmark/spans.py traces this
# module's binding of it by name
from .abba import PoleError, transfer_eigenvalue  # noqa: F401
from .baesolver import PHYSICAL_SINGULAR, REGULAR, RootSet, singular_partners

REGULAR_FORMULA = "regular_formula"
NW_THEOREM = "nw_theorem"
LAMBDA_LOGDERIV = "lambda_logderiv"


class DegenerateDenominatorError(ZeroDivisionError):
    """Transfer eigenvalue vanishes at i/2; the log-derivative is undefined."""


@dataclass(frozen=True)
class EnergyResult:
    energy: float
    method: str
    imag_leak: float


def _pack(value: complex, method: str) -> EnergyResult:
    return EnergyResult(float(value.real) + 0.0, method, float(abs(value.imag)))


def _magnon_sum(roots) -> np.ndarray:
    """sum_j 1 / (L_j^2 + 1/4) along the last axis: minus twice the energy of the magnons L_j.

    ``roots`` is one set, or an array with one set per row: ``energy_of``
    sums one set here, and the energy certificate of
    ``baesolver.solve_sector`` a sector's sets at once, with the same
    bits for the same set.
    """
    z = np.asarray(roots, dtype=complex)
    return (1 / (z * z + 0.25)).sum(axis=-1)


def energy_regular(rootset: RootSet) -> EnergyResult:
    """Closed-form energy of a regular solution, in units of J."""
    if singular_partners(rootset.roots) is not None:
        raise ValueError("singular root set; use energy_nw")
    return _pack(-0.5 * _magnon_sum(rootset.roots), REGULAR_FORMULA)


def energy_nw(rootset: RootSet) -> EnergyResult:
    """Finite energy of a regularized singular solution, in units of J."""
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    return _pack(-1.0 - 0.5 * _magnon_sum(others), NW_THEOREM)


def energy_of(rootset: RootSet) -> EnergyResult:
    """Dispatch on the classification tag."""
    if rootset.classification == REGULAR:
        return energy_regular(rootset)
    if rootset.classification == PHYSICAL_SINGULAR:
        return energy_nw(rootset)
    raise ValueError(f"no energy defined for classification {rootset.classification!r}")


def energies_of(roots: np.ndarray, pair: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """``energy_of`` on every row of classified root sets, as complex numbers.

    ``roots``, ``pair`` and ``tags`` are the snapped roots, the mask of
    the pair {i/2, -i/2} and the classifications that
    ``baesolver._classify_rows`` returns.  The real part is the energy
    and the imaginary part its leak, with the same bits as
    ``energy_of`` on the same set; a row that is neither regular nor
    physical singular gets nan.
    """
    regular, singular = tags == REGULAR, tags == PHYSICAL_SINGULAR
    out = np.full(len(roots), np.nan, dtype=complex)
    out[regular] = -0.5 * _magnon_sum(roots[regular])  # energy_regular
    # energy_nw, on each singular row without its two pair entries
    others = roots[singular][~pair[singular]].reshape(singular.sum(), max(roots.shape[1] - 2, 0))
    out[singular] = -1.0 - 0.5 * _magnon_sum(others)
    return out


def energy_logderiv(rootset: RootSet) -> EnergyResult:
    """Energy (1/2)(i (log Lambda)'(i/2) - n), in units of J, with no limit to take.

    Near u = i/2, Lambda = a + d with

        a(u) = (u + i/2)^n prod_j (u - L_j - i)/(u - L_j),

    and d and d' vanish at i/2: for n >= 2 on a regular set, and for
    n >= 3 on a set holding the pair {i/2, -i/2}, where
    d = (u - i/2)^(n-1) (u + 3i/2) prod' over the other roots.  So

        (log Lambda)'(i/2) = n/(u + i/2) + sum_j [1/(u - L_j - i) - 1/(u - L_j)]

    at u = i/2, with the pair's two terms replaced by those of its
    combined factor (u - 3i/2)/(u + i/2).  A regularization constant
    enters the eps -> 0 limit only as c eps^(n-2), so none is needed.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if n < 2 or (others is not None and n < 3):
        raise ValueError(f"log-derivative at i/2 needs n >= 2, n >= 3 with the pair; got n={n}")
    u = 0.5j
    deriv = n / (u + 0.5j)
    if others is None:
        others = rootset.roots
    else:
        deriv += 1 / (u - 1.5j) - 1 / (u + 0.5j)
    for z in others:
        z = complex(z)
        if abs(u - z) < 1e-12:
            raise PoleError(f"evaluation point collides with root {z}")
        if abs(u - z - 1j) < 1e-12:
            raise DegenerateDenominatorError(
                "transfer eigenvalue vanishes at i/2; cannot form the log-derivative"
            )
        deriv += 1 / (u - z - 1j) - 1 / (u - z)
    return _pack(0.5 * (1j * deriv - n), LAMBDA_LOGDERIV)
