"""50-digit Newton on the Bethe equations, kept as an independent test reference.

The package certifies each Bethe state in float64 from Baxter's TQ
relation and never iterates on the roots.  The tests use this Newton
step, on the package's pole-free residual system (``baesolver._system``)
run on ``mpmath.mpc`` values, to re-prove root sets that the float64
residual cannot score: a narrow string whose deviation is far below
1e-5 leaves a float64 residual of about eps / deviation.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from bethe_lab.baesolver import _system

NEWTON_TOL = 1e-11


def _jacobian(lam: np.ndarray, n: int, reduced: bool):
    """Analytic Jacobian dF_k/dL_m for the batch, plus F itself.

    Works in the batch's dtype, so an object array of ``mpmath.mpc``
    gives an arbitrary-precision Jacobian.
    """
    bsz, m = lam.shape
    f, _, (u, v, em, ep, dm, dp, pm, pp, p) = _system(lam, n, reduced)
    de = 1.0 if reduced else 0.0
    jac = np.zeros((bsz, m, m), dtype=lam.dtype)
    one = np.ones(bsz, dtype=lam.dtype)
    idx = list(range(m))
    for k in range(m):
        # leave-one-out products over j != k, mm
        loo_m = {}
        loo_p = {}
        for mm in range(m):
            if mm == k:
                continue
            keep = [j for j in idx if j != k and j != mm]
            loo_m[mm] = dm[:, k, keep].prod(axis=1) if keep else one
            loo_p[mm] = dp[:, k, keep].prod(axis=1) if keep else one
        sum_m = sum(loo_m.values())
        sum_p = sum(loo_p.values())
        jac[:, k, k] = (
            (p * u[:, k] ** (p - 1) * em[:, k] + u[:, k] ** p * de) * pm[:, k]
            + u[:, k] ** p * em[:, k] * sum_m
            - (p * v[:, k] ** (p - 1) * ep[:, k] + v[:, k] ** p * de) * pp[:, k]
            - v[:, k] ** p * ep[:, k] * sum_p
        )
        for mm in range(m):
            if mm == k:
                continue
            jac[:, k, mm] = (
                -u[:, k] ** p * em[:, k] * loo_m[mm]
                + v[:, k] ** p * ep[:, k] * loo_p[mm]
            )
    return f, jac


def _mp_polish(roots, n: int, reduced: bool):
    """Arbitrary-precision Newton from the given roots.

    Runs ``_system`` and ``_jacobian`` on ``mpmath.mpc`` values at 50
    digits and returns (roots, residual, ok); ``ok`` means the residual
    fell below NEWTON_TOL without a step longer than 1, which certifies
    string deviations far below the float64 noise floor.
    """
    with mp.workdps(50):
        lam = np.array([[mp.mpc(z) for z in roots]], dtype=object)
        res = mp.inf
        for _ in range(50):
            f, scale, _ = _system(lam, n, reduced)
            res = max(
                (abs(fk) / sk if sk > 0 else abs(fk)) for fk, sk in zip(f[0], scale[0])
            )
            if res < 1e-30:
                break
            _, jac = _jacobian(lam, n, reduced)
            try:
                delta = mp.lu_solve(mp.matrix(jac[0].tolist()), [-fk for fk in f[0]])
            except ZeroDivisionError:
                return tuple(complex(z) for z in lam[0]), float(res), False
            if max(abs(d) for d in delta) > 1.0:
                return tuple(complex(z) for z in lam[0]), float(res), False
            lam = lam + np.array([list(delta)], dtype=object)
        return tuple(complex(z) for z in lam[0]), float(res), bool(res <= NEWTON_TOL)
