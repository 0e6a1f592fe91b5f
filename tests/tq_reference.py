"""Baxter's TQ solve one state at a time, kept as a reference for tests.

``baesolver._tq_roots`` solves every state of a sector as one stacked
least-squares, norm and eigenvalue call; this is the same problem
solved per state with ``np.linalg.lstsq`` and ``np.roots``.
"""

from __future__ import annotations

import numpy as np


def tq_roots(lam_coeffs, n: int, ell: int) -> tuple[np.ndarray, float]:
    """Roots of the monic degree-ell Q with Lambda Q = (u + i/2)^n Q(u - i) + (u - i/2)^n Q(u + i).

    ``lam_coeffs`` are the n + 1 coefficients of one Lambda, lowest
    first.  Q is solved with the real part of the TQ matrix M; the
    residual ||M q|| / (||M||_2 ||q||) is taken against the complex M.
    """
    plus, minus = np.poly([-0.5j] * n), np.poly([0.5j] * n)
    cols = np.zeros((n + ell + 1, ell + 1), dtype=complex)
    for k in range(ell + 1):
        cols[k : k + n + 1, k] = lam_coeffs
        cols[: n + k + 1, k] -= (plus + minus)[::-1]
        plus, minus = np.convolve(plus, [1, -1j]), np.convolve(minus, [1, 1j])
    m = cols.real
    q = np.append(np.linalg.lstsq(m[:, :ell], -m[:, ell], rcond=None)[0], 1.0)
    residual = np.linalg.norm(cols @ q) / (np.linalg.norm(cols, 2) * np.linalg.norm(q))
    return np.roots(q[::-1]), float(residual)
