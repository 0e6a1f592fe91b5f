"""Algebraic Bethe ansatz operators for the periodic spin-1/2 XXX chain.

The monodromy matrix is the ordered product T(L) = L_n(L) ... L_1(L) of
local operators

    L_k(L) = L * I (x) 1 + (i/2) sum_a sigma^a (x) sigma^a_k
           = (L - i/2) + i P_k,

where P_k swaps the auxiliary spin with site k.  Viewed as a 2x2 matrix
[[A, B], [C, D]] over the auxiliary space, B builds magnons on the
all-up vacuum; A + D is the transfer matrix whose logarithmic derivative
at L = i/2 reproduces the Hamiltonian.

Vectors are in sector coordinates: an ell-magnon vector has C(n, ell)
entries, indexed like ``hilbert.sector_basis(n, ell)``.  T is applied
one auxiliary column at a time: (psi, 0) becomes (A psi, C psi) and
(0, psi) becomes (B psi, D psi).  L_k keeps the number p of down spins,
so a column holds only its C(n + 1, p) rows.  Bethe products read only
B and run only the (0, psi) column.  A rapidity is a polynomial in a
small parameter eps, given as its coefficient vector, lowest term first,
that acts on arrays holding eps-coefficients along their trailing axis;
a number is its degree-0 case.  Each site costs one row gather, one
shifted add per nonzero higher coefficient, which widens the eps axis
by the degree, and one scaled add of the constant term; a coefficient 1
is added unscaled, and a constant term that is exactly 0 is skipped.
The layout follows the degree: a number runs on the rows as given,
while a polynomial holds its column eps-major, one contiguous row of
stacked states per eps-power, so that each shifted add is one block
rather than a strided slice of every row.  The polynomial path returns
every eps-coefficient, and the Nepomechie-Wang vectors, which vanish to
order eps^n, are built that way in float64 with no cancellation.

P_k is real, so conj L_k(L) = -L_k(-conj L), and on real vectors
T(-conj L) = (-1)^n conj T(L) bit for bit.  The transfer matrix is
also Hermitian at real L, t(conj L) = t(L)^H, which is that symmetry
composed with the site reversal R t(L) R = (-1)^n t(-L).  The
transfer-matrix eigenpolynomials use the two to run the monodromy at a
quarter of their nodes and to diagonalize half of the momentum blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .baesolver import RootSet, singular_partners

# eigen-residual below which the eps^n coefficient of the regularized
# product is an eigenvector: ~1e-12 for physical singular solutions,
# O(0.1) for non-physical ones
LIMIT_TOL = 1e-8


class PoleError(ValueError):
    """Evaluation requested at a pole of the expression."""


@dataclass(frozen=True)
class RegularizationParams:
    """Perturbation L1 = i/2 + eps + c eps^n, L2 = -i/2 + eps."""

    epsilon: float
    c: complex

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.1:
            raise ValueError("epsilon must lie in (0, 0.1]")
        if not (math.isfinite(self.c.real) and math.isfinite(self.c.imag)):
            raise ValueError("regularization constant must be finite")


@functools.lru_cache(maxsize=None)
def _site_swaps(n: int, p: int) -> tuple[np.ndarray, ...]:
    """Row gathers of P_1, ..., P_n on the C(n + 1, p) stacked rows with p down spins.

    The rows are ascending indices aux * 2^n + b, and P_k swaps the aux
    bit with the bit of site k.  ``_column`` gathers through them for
    every rapidity, a number being the degree-0 polynomial.
    """
    rows = hilbert._with_down_spins(n + 1, p)
    return tuple(hilbert._bit_swap(rows, 1 << n, 1 << (n - k)) for k in range(1, n + 1))


def _column(lam, n: int, ell: int, psi: np.ndarray, aux: int):
    """T(lam) on the column holding the ell-magnon ``psi`` in slot ``aux``.

    Stacked rows are aux * 2^n + b.  Only the C(n + 1, p) rows with
    p = ell + aux down spins are held, ascending: C(n, p) of sector p
    with the auxiliary spin up, then sector p - 1 with it down.  Slot 0
    is (psi, 0), which T maps to (A psi, C psi), and slot 1 is (0, psi),
    which it maps to (B psi, D psi); both parts come back in sector
    coordinates.  ``lam`` is an eps-coefficient vector, a number being
    the degree-0 case; a degree d > 0 widens the trailing eps axis of a
    2-D ``psi`` by d at every site.

    A number keeps the row-major (rows, ...) layout of ``psi``: its site
    gathers run on whole rows, and an eps-major layout made them slower.
    A polynomial runs on an eps-major (width, rows) array, where the
    shifted add of eps^k onto rows k..k + width is one contiguous block
    (on the row-major layout it is a strided slice of every row), and it
    returns transposed views of that array.
    """
    # L_k = (lam - i/2) + i P_k, with -i/2 folded into the constant term once
    coeffs = np.array(lam, dtype=complex, ndmin=1)
    const = complex(coeffs[0]) - 0.5j
    deg = len(coeffs) - 1
    size = hilbert.binomial(n + 1, ell + aux)
    top = hilbert.binomial(n, ell + aux)
    swaps = _site_swaps(n, ell + aux)
    if not deg:
        y = np.zeros((size, *psi.shape[1:]), dtype=complex)
        y[top * aux : top + aux * size] = psi  # rows [0, top) or [top, end)
        for swap in swaps:
            out = y[swap]
            out *= 1j
            # the constant term in place, so that only y and out are alive
            np.multiply(const, y, out=y)
            out += y
            y = out
        return y[:top], y[top:]
    # eps-major: row j holds eps^j, so each shifted add is one contiguous block
    higher = [k for k in range(deg, 0, -1) if coeffs[k]]  # nonzero eps-powers, highest first
    y = np.zeros((psi.shape[1], size), dtype=complex)
    y[:, top * aux : top + aux * size] = psi.T
    for swap in swaps:
        width = len(y)
        out = np.empty((width + deg, size), dtype=complex)
        # the swaps are in range, and mode "clip" gathers into out unbuffered
        np.take(y, swap, axis=1, out=out[:width], mode="clip")
        out[:width] *= 1j
        out[width:] = 0
        for k in higher:
            out[k : k + width] += y if coeffs[k] == 1 else coeffs[k] * y
        if const:  # exactly 0 for i/2 + eps + ...
            np.multiply(const, y, out=y)
            out[:width] += y
        y = out
    return y[:, :top].T, y[:, top:].T


def apply_monodromy(lam, n: int, ell: int, psi: np.ndarray):
    """Apply the four monodromy blocks at rapidity ``lam`` to the ell-magnon ``psi``.

    ``psi`` has shape (C(n, ell),) or (C(n, ell), m), indexed like
    ``hilbert.sector_basis(n, ell)``; returns (A psi, B psi, C psi,
    D psi) in sectors ell, ell + 1, ell - 1 and ell.  ``lam`` is a
    number, or the coefficient vector (lam_0, ..., lam_d) of a rapidity
    polynomial lam_0 + lam_1 eps + ... + lam_d eps^d acting on the
    eps-coefficients held along the trailing axis of a 2-D ``psi``
    (column j carries eps^j); each block then has d n more columns than
    ``psi``, and a 1-D ``psi`` is refused.
    """
    psi = np.asarray(psi)
    if not 0 <= ell <= n or psi.shape[0] != hilbert.binomial(n, ell):
        raise ValueError(f"need 0 <= ell <= {n} and C({n}, ell) rows; got ell={ell}, {psi.shape}")
    if np.size(lam) > 1 and psi.ndim != 2:
        raise ValueError(f"a polynomial rapidity needs a 2-D (rows, eps) psi; got {psi.shape}")
    a, c = _column(lam, n, ell, psi, 0)
    b, d = _column(lam, n, ell, psi, 1)
    return a, b, c, d


# generic point at which the transfer matrix is diagonalized on each
# momentum block; any point that separates the eigenvalues of t(u) on
# every block will do
_SPLIT_POINT = 0.9 * np.exp(0.7j)


def transfer_eigenpolynomials(
    n: int, ell: int, kernels: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficients of Lambda(u) on each highest-weight eigenstate of a sector.

    ``kernels`` holds the sector's ker S^+ basis W_q of each momentum
    block q = 0..n-1, as ``hilbert.highest_weight_blocks`` (or
    ``hilbert.highest_weight_sector``) builds it.  Returns ``(coeffs,
    states)``.  ``coeffs`` has shape (d, n + 1), column j holding the
    coefficient of u^j, one row per eigenstate of the d-dimensional
    highest-weight subspace (ker S^+ in the ell-magnon sector), which
    every t(u) preserves.  The rows are grouped by momentum q = 0..n-1.
    ``states`` holds one array per q: ``states[q]`` has shape (d_q, d_q),
    and its columns x are the unit eigenvectors of block q in the
    coordinates of W_q's columns, so the state is W_q x in the block's
    |r, q> basis, and <x|H|x> is x^H K_q x with K_q = W_q^H H_q W_q.

    t(u) commutes with the one-site shift U, so it is diagonalized on
    each momentum block (ell, q) separately: the monodromy runs on the
    o ~ C(n, ell)/n orbit representatives |r> only, and
    ``hilbert.momentum_blocks`` turns t(u)|r> into every block T_q(u),
    which is restricted to W_q as W_q^H T_q(u) W_q.

    On that subspace the spin is S = n/2 - ell, and the top of t(u) is
    fixed: t(u) = 2 u^n + (3n/4 - S(S + 1)) u^(n-2) + (degree <= n - 3),
    since the u^(n-1) term is the trace of a Pauli matrix and the
    u^(n-2) term is -(1/2) sum_{j<k} sigma_j . sigma_k.  So t(u) minus
    those two terms is sampled at the m = max(2, 2 floor((n - 1)/2))
    nodes u_j = i w^j, w = e^(2 pi i / m): n - 2 of them for even n > 2
    and n - 1 for odd n, so that m is even.  Each block's restricted
    coefficient matrices C_k come from a discrete Fourier transform,
    divided by i^k, and only the C_k with k < n - 2 are kept, so that
    the two exact terms stay exact.  One generic combination
    sum_k C_k u*^k is diagonalized per block, and since the C_k commute,
    each eigenvector x gives every C_k as the Rayleigh quotient
    x^H C_k x; the two exact terms are added back to those.

    The monodromy runs only at the floor(m/4) + 1 nodes j <= m/4, and
    two symmetries fill the others.  t(u) is Hermitian at real u, so
    t(conj u) = t(u)^H, and on the orthonormal momentum states every
    restricted block at conj(u) is the adjoint of the block at u; node
    m/2 - j is conj(u_j), so the nodes m/4 < j <= m/2 are the adjoints
    of the nodes m/2 - j.  The representatives are real, so
    t(-conj u) = (-1)^n conj t(u) on them, and block n - q of t(u) is
    the conjugate of block q in the conjugate bases W_(n-q) = conj(W_q);
    node m - j is -conj(u_j), so the nodes j > m/2 are filled by
    conjugation.  Only the blocks q <= n/2 are diagonalized; block
    n - q has the rows (-1)^(n + k) conj(lambda_k) on the states
    conj(x).
    """
    reps = hilbert.orbit_representatives(n, ell)
    spin = n / 2 - ell
    casimir = 0.75 * n - spin * (spin + 1)
    m = max(2, 2 * ((n - 1) // 2))
    sampled = []  # sampled[j][q]: block q at node u_j, minus the two exact terms
    for u in 1j * np.exp(2j * np.pi * np.arange(m // 4 + 1) / m):
        a, _, _, d = apply_monodromy(u, n, ell, reps)
        a += d
        top = 2 * u**n + casimir * u ** (n - 2)
        sampled.append(
            [
                w.conj().T @ block @ w - top * np.eye(w.shape[1])
                for w, block in zip(kernels, hilbert.momentum_blocks(a, n, ell))
            ]
        )
    # node m/2 - j is conj(u_j), where every block is the adjoint of its block at u_j
    sampled += [[s.conj().T for s in sampled[m // 2 - j]] for j in range(m // 4 + 1, m // 2 + 1)]
    sign = (-1) ** n
    k = np.arange(n - 2)  # the exact terms are added back to C_(n-2) and C_n
    lam, states = [], []
    for q in range(n // 2 + 1):
        # node m - j is -conj(u_j), where block q is (-1)^n conj(block -q mod n at u_j)
        stack = np.array(
            [s[q] for s in sampled]
            + [sign * sampled[m - j][-q].conj() for j in range(m // 2 + 1, m)]
        )
        np.fft.fft(stack, axis=0, out=stack)
        stack = stack[k] / (m * 1j**k)[:, None, None]  # stack[k] = C_k
        _, vecs = np.linalg.eig(np.tensordot(_SPLIT_POINT**k, stack, 1))
        lam.append(((stack @ vecs) * vecs.conj()).sum(axis=1).T)
        states.append(vecs)
    # block q > n/2 has C_k = (-1)^(n + k) conj(C_k of block n - q), on conj(x)
    lam += [sign * (-1) ** k * lam[n - q].conj() for q in range(n // 2 + 1, n)]
    states += [states[n - q].conj() for q in range(n // 2 + 1, n)]
    lam = np.pad(np.concatenate(lam), ((0, 0), (0, 3)))
    lam[:, n - 2] += casimir
    lam[:, n] += 2
    return lam, states


def _nw_series(rootset: RootSet, c: complex) -> np.ndarray:
    """eps-coefficients of B(L1) B(L2) B(L3) ... |0>, shape (C(n, ell), n^2 + n + 1).

    With L1 = i/2 + eps + c eps^n and L2 = -i/2 + eps every component is
    a polynomial of degree n^2 + n in eps.  Its coefficients below eps^n
    vanish; the eps^n column is the Nepomechie-Wang limit vector.  The
    other roots act on the one eps^0 column; B(L2) widens it to degree
    n and B(L1) to degree n^2 + n.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    lam1 = np.zeros(n + 1, dtype=complex)
    lam1[:2] = 0.5j, 1.0
    lam1[n] += c
    lam2 = np.array([-0.5j, 1.0])
    psi = np.ones((1, 1), dtype=complex)  # |0> at eps^0
    for ell, lam in enumerate(reversed([lam1, lam2, *others])):
        psi = _column(lam, n, ell, psi, 1)[0]
    return psi


def _nw_at(series: np.ndarray, n: int, eps: float) -> np.ndarray:
    """sum_{k >= n} series_k eps^(k - n): the series divided by eps^n."""
    tail = series[:, n:]
    return tail @ eps ** np.arange(tail.shape[1])


def regularized_nw_vector(rootset: RootSet, params: RegularizationParams) -> np.ndarray:
    """The Nepomechie-Wang vector eps^-n B(L1) B(L2) B(L3) ... |0>.

    The vector is in sector coordinates of the ell-magnon sector.  For a
    physical singular solution it converges, as eps -> 0, to a non-zero
    eigenvector of the Hamiltonian.  The product vanishes to order eps^n,
    so it is expanded exactly in eps and the terms from eps^n on are
    summed in float64, with no cancellation at any eps.
    """
    return _nw_at(_nw_series(rootset, complex(params.c)), rootset.n, params.epsilon)


@dataclass
class RegularizationSweep:
    """Eigenvector residuals of the regularized vector along an epsilon ladder.

    ``residuals`` are the per-rung values ||H psi - E psi|| / ||psi||,
    one per ladder epsilon; they shrink linearly in epsilon when the
    limit is an eigenvector.  ``limit_residual`` is the same residual of
    the eps^n coefficient of the product, which is the eps -> 0 limit
    itself, and ``converged`` states that it is at most ``LIMIT_TOL``.
    """

    residuals: tuple[float, ...]
    limit_residual: float
    converged: bool


def regularization_sweep(
    rootset: RootSet,
    c: complex,
    ladder: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
    energy: float | None = None,
) -> RegularizationSweep:
    """Eigenvector residuals of the regularized vector on a ladder and at eps -> 0.

    The product is expanded in eps once; each rung sums that series and
    the limit is its eps^n coefficient.  Residuals are taken on the
    ell-magnon sector Hamiltonian against the supplied energy (Rayleigh
    quotient when omitted), applied through its n bond swaps to the rung
    vectors and the limit at once, as the columns of one block; a zero
    column has residual inf.
    """
    n = rootset.n
    # every rung is checked before the series is built: eps must lie in (0, 0.1]
    rungs = [RegularizationParams(eps, complex(c)).epsilon for eps in ladder]
    series = _nw_series(rootset, complex(c))
    tail = series[:, n:]
    # one column per rung, and the limit series[:, n] as the rung eps = 0
    block = tail @ np.array([*rungs, 0.0]) ** np.arange(tail.shape[1])[:, None]
    norms = np.linalg.norm(block, axis=0)
    v = block / np.where(norms, norms, 1.0)
    hv = hilbert.apply_hamiltonian(n, rootset.ell, v)
    e = energy if energy is not None else np.real((v.conj() * hv).sum(axis=0))
    res = np.where(norms, np.linalg.norm(hv - e * v, axis=0), np.inf)
    *residuals, limit_residual = (float(r) for r in res)
    return RegularizationSweep(tuple(residuals), limit_residual, limit_residual <= LIMIT_TOL)


def transfer_eigenvalue(lam: complex, roots, n: int | None = None) -> complex:
    """Transfer-matrix eigenvalue on the Bethe state with the given roots.

    (L + i/2)^n prod (L - L_j - i)/(L - L_j)
      + (L - i/2)^n prod (L_j - L - i)/(L_j - L)
    """
    if isinstance(roots, RootSet):
        n = roots.n
        roots = roots.roots
    if n is None:
        raise ValueError("n required when passing a bare root sequence")
    lam = complex(lam)
    first = (lam + 0.5j) ** n
    second = (lam - 0.5j) ** n
    for z in roots:
        z = complex(z)
        if abs(lam - z) < 1e-12:
            raise PoleError(f"evaluation point collides with root {z}")
        first *= (lam - z - 1j) / (lam - z)
        second *= (z - lam - 1j) / (z - lam)
    return first + second
