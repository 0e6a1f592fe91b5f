"""Dense 2^n x 2^n operators and other references kept only for tests.

The package works on state vectors and magnon sectors and never builds
these matrices; the tests build them, for small n, to check the
package's operators against the textbook definitions.  The plain Bethe
vector, the regularized rapidity list, the epsilon-ladder
log-derivative energy, the whole-sector ker S^+ basis, the
full-block exact spectrum, the expansion of momentum-block states into
sector coordinates and the dense-Toeplitz Nepomechie-Wang series and
sweep live here too: the package's run needs none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bethe_lab import hilbert
from bethe_lab.abba import (
    PoleError,
    RegularizationParams,
    _column,
    _nw_at,
    _site_swaps,
    apply_monodromy,
    transfer_eigenvalue,
)
from bethe_lab.baesolver import (
    TOL_EQUAL,
    TOL_SINGULAR,
    RootSet,
    _has_duplicates,
    nw_constants,
    singular_partners,
)

PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


# ---------------------------------------------------------------------------
# Hilbert-space operators
# ---------------------------------------------------------------------------


def pauli_site(a: int, k: int, n: int) -> np.ndarray:
    """Pauli matrix sigma^a acting on site k of an n-site chain."""
    if a not in PAULI:
        raise ValueError(f"Pauli axis must be 1, 2 or 3, got {a}")
    hilbert._check_n(n)
    hilbert.site_mask(k, n)  # validates k
    left = np.eye(1 << (k - 1), dtype=complex)
    right = np.eye(1 << (n - k), dtype=complex)
    return np.kron(np.kron(left, PAULI[a]), right)


def vacuum_state(n: int) -> np.ndarray:
    """All-spins-up product state, the pseudo-vacuum |0>."""
    hilbert._check_n(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def translation_matrix(n: int) -> np.ndarray:
    """Cyclic shift moving the spin at site k to site k+1."""
    hilbert._check_n(n)
    dim = 1 << n
    b = np.arange(dim)
    shifted = (b >> 1) | ((b & 1) << (n - 1))
    t = np.zeros((dim, dim))
    t[shifted, b] = 1.0
    return t


def embed(n: int, ell: int, v) -> np.ndarray:
    """An ell-magnon vector (or column block) in sector coordinates, placed in the 2^n space."""
    v = np.asarray(v)
    full = np.zeros((1 << n, *v.shape[1:]), dtype=complex)
    full[hilbert.sector_basis(n, ell)] = v
    return full


def momentum_states(n: int, ell: int, q: int, c: np.ndarray) -> np.ndarray:
    """sum_r c[r] |r, q> in sector coordinates, for block coordinates ``c`` of shape (o_q, m).

    |r, q> = L_r^(-1/2) sum_(s < L_r) e^(-2 pi i q s / n) U^s |r> is a
    unit eigenvector of U with eigenvalue e^(2 pi i q / n); the rows of
    ``c`` follow ``hilbert.momentum_orbits(n, ell, q)``.  The package
    keeps its momentum-block states in these block coordinates.
    """
    shifts, lengths = hilbert.translation_orbits(n, ell)
    keep = hilbert.momentum_orbits(n, ell, q)
    # s mod L_r: every shift of an orbit writes the one value of its state
    s = np.arange(n) % lengths[keep, None]
    phase = np.exp(-2j * np.pi * q * s / n) / np.sqrt(lengths[keep, None])
    out = np.zeros((hilbert.binomial(n, ell), c.shape[1]), dtype=complex)
    out[shifts[keep]] = phase[:, :, None] * c[:, None, :]
    return out


def raising_operator(n: int) -> np.ndarray:
    """Total spin raising operator S^+ = sum_k (sigma^x_k + i sigma^y_k)/2."""
    hilbert._check_n(n)
    dim = 1 << n
    s = np.zeros((dim, dim))
    b = np.arange(dim)
    for k in range(1, n + 1):
        mask = hilbert.site_mask(k, n)
        down = (b & mask) != 0
        s[b[down] ^ mask, b[down]] += 1.0
    return s


def highest_weight_basis(n: int, ell: int) -> np.ndarray:
    """Real orthonormal basis of ker S^+ inside the whole ell-magnon sector.

    Columns are indexed like ``hilbert.sector_basis(n, ell)``.  The sector
    block s of S^+ (ell magnons to ell - 1) is built with bit operations,
    and its null space is the eigenspace of s^T s below 0.5 (S^- S^+ is
    0 or at least 2 there).  For ell <= n/2 it has dimension
    C(n, ell) - C(n, ell - 1).  The package diagonalizes by momentum
    block instead (``hilbert.highest_weight_blocks``).
    """
    idx = hilbert.sector_basis(n, ell)
    if ell == 0:
        return np.eye(1)
    lower = hilbert.sector_basis(n, ell - 1)
    s = np.zeros((len(lower), len(idx)))
    cols = np.arange(len(idx))
    for k in range(1, n + 1):
        mask = hilbert.site_mask(k, n)
        down = (idx & mask) != 0
        s[np.searchsorted(lower, idx[down] ^ mask), cols[down]] = 1.0
    w, v = np.linalg.eigh(s.T @ s)
    return v[:, w < 0.5]


def full_block_spectrum(n: int) -> list[hilbert.SpectrumEntry]:
    """The exact spectrum from every whole (ell, q) momentum block, without ker S^+.

    The reference for ``hilbert.exact_spectrum``, which eigensolves only
    the highest-weight blocks W_q^H H_q W_q.  Each block
    <r', q|H|r, q> (``hilbert.hamiltonian_blocks``) is eigensolved
    whole.  Flipping every spin maps sector ell onto sector n - ell and
    leaves H alone, so only the sectors ell <= n/2 are diagonalized, and
    a block with ell < n/2 counts twice.  H is real, so block n - q is
    the conjugate of block q: only the blocks q <= n/2 are diagonalized,
    and one with 0 < q < n/2 counts twice too.
    """
    eigs = []
    for ell in range(n // 2 + 1):
        for q, block in enumerate(hilbert.hamiltonian_blocks(n, ell)[: n // 2 + 1]):
            w = hilbert.eig_hermitian(block)[0]
            eigs += [w] * ((2 if 2 * ell < n else 1) * (2 if 2 * q % n else 1))
    return hilbert.spectrum_with_multiplicities(np.sort(np.concatenate(eigs)))


# ---------------------------------------------------------------------------
# algebraic Bethe ansatz operators
# ---------------------------------------------------------------------------


@dataclass
class MonodromyBlocks:
    """Dense auxiliary-space blocks of the monodromy matrix at one rapidity."""

    lam: complex
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        return self.a + self.d


class SingularRootError(ValueError):
    """Plain Bethe vector is undefined at the pair {i/2, -i/2}."""


def _check_regular_roots(roots):
    roots = [complex(z) for z in roots]
    if _has_duplicates(roots, TOL_EQUAL):
        raise ValueError(f"coinciding rapidities in {roots}")
    for z in roots:
        if min(abs(z - 0.5j), abs(z + 0.5j)) <= TOL_SINGULAR:
            raise SingularRootError(
                "rapidity at +/- i/2; build the state with regularized_nw_vector"
            )
    return roots


def bethe_vector(rootset: RootSet) -> np.ndarray:
    """B(L_1) ... B(L_ell) |0>, in sector coordinates of the ell-magnon sector."""
    roots = _check_regular_roots(rootset.roots)
    psi = np.ones(1, dtype=complex)  # |0>, the one state of sector 0
    for ell, lam in enumerate(roots):
        psi = _column(lam, rootset.n, ell, psi, 1)[0]
    return psi


def perturbed_singular_roots(others, n: int, params: RegularizationParams):
    """Regularized rapidity list (L1, L2, L3, ...) for a singular solution."""
    eps = params.epsilon
    lam1 = 0.5j + eps + params.c * eps**n
    lam2 = -0.5j + eps
    return [lam1, lam2, *[complex(z) for z in others]]


def r_matrix(lam: complex) -> np.ndarray:
    """4x4 rational R-matrix (1/(L+i)) ((L/2 + i) I + (L/2) sum sigma (x) sigma)."""
    lam = complex(lam)
    if abs(lam + 1j) < 1e-12:
        raise PoleError("R-matrix has a pole at lambda = -i")
    ss = sum(np.kron(PAULI[a], PAULI[a]) for a in (1, 2, 3))
    return ((lam / 2 + 1j) * np.eye(4, dtype=complex) + (lam / 2) * ss) / (lam + 1j)


def l_operator(k: int, lam: complex, n: int) -> list[list[np.ndarray]]:
    """The 2x2 auxiliary-space blocks of L_k as dense 2^n matrices."""
    lam = complex(lam)
    eye = np.eye(1 << n, dtype=complex)
    s1 = pauli_site(1, k, n)
    s2 = pauli_site(2, k, n)
    s3 = pauli_site(3, k, n)
    return [
        [lam * eye + 0.5j * s3, 0.5j * (s1 - 1j * s2)],
        [0.5j * (s1 + 1j * s2), lam * eye - 0.5j * s3],
    ]


def monodromy(lam: complex, n: int) -> MonodromyBlocks:
    """Dense monodromy blocks, assembled sector by sector from the package's recursion.

    Each sector's identity goes through ``apply_monodromy``; A and D keep
    the sector, B raises the magnon number by one and C lowers it.
    """
    hilbert._check_n(n)

    def sector(ell):
        return hilbert.sector_basis(n, ell) if 0 <= ell <= n else np.zeros(0, dtype=int)

    blocks = [np.zeros((1 << n, 1 << n), dtype=complex) for _ in range(4)]
    for ell in range(n + 1):
        idx = sector(ell)
        images = apply_monodromy(lam, n, ell, np.eye(len(idx)))
        for block, image, out in zip(blocks, images, (ell, ell + 1, ell - 1, ell)):
            block[np.ix_(sector(out), idx)] = image
    return MonodromyBlocks(complex(lam), *blocks)


def transfer_matrix(lam: complex, n: int) -> np.ndarray:
    return monodromy(lam, n).tau


def unwanted_term(lam: complex, k: int, roots, n: int | None = None) -> complex:
    """Coefficient of the k-th unwanted term in tau acting on a Bethe state.

    Vanishes exactly when the k-th Bethe equation holds; for the
    regularized singular pair it scales like eps^(n+1).
    """
    if isinstance(roots, RootSet):
        n = roots.n
        roots = roots.roots
    if n is None:
        raise ValueError("n required when passing a bare root sequence")
    roots = [complex(z) for z in roots]
    lam = complex(lam)
    lk = roots[k]
    if abs(lam - lk) < 1e-12:
        raise PoleError("evaluation point collides with the selected root")
    plus = (lk + 0.5j) ** n
    minus = (lk - 0.5j) ** n
    for j_, z in enumerate(roots):
        if j_ == k:
            continue
        plus *= (lk - z - 1j) / (lk - z)
        minus *= (z - lk - 1j) / (z - lk)
    return 1j / (lam - lk) * (plus - minus)


# ---------------------------------------------------------------------------
# the singular-energy derivation
# ---------------------------------------------------------------------------


def derivation_step_ratios(rootset: RootSet, epsilon: float) -> tuple[complex, complex]:
    """The two scalar checkpoints of the singular-energy derivation.

    Splitting i dLambda/dL at L = i/2 into the no-derivative piece A_0
    and the per-root pieces A_j, the ratio A_0 / Lambda(i/2) equals n
    identically, while (A_1 + A_2) / Lambda(i/2) tends to -2 as the
    regularization is removed.  Both ratios are returned at the given
    epsilon.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("step ratios are defined for singular root sets")
    c = nw_constants(rootset)[0]
    roots = perturbed_singular_roots(others, n, RegularizationParams(epsilon, c))
    lam0 = 0.5j
    denom = 1j**n
    for z in roots:
        denom *= (z + 0.5j) / (z - 0.5j)
    a0 = 1j * n * (lam0 + 0.5j) ** (n - 1)
    for z in roots:
        a0 *= (lam0 - z - 1j) / (lam0 - z)
    pair_sum = 0j
    for jj in (0, 1):
        aj = 1j * (lam0 + 0.5j) ** n * 1j / (roots[jj] - lam0) ** 2
        for m, z in enumerate(roots):
            if m == jj:
                continue
            aj *= (lam0 - z - 1j) / (lam0 - z)
        pair_sum += aj
    return a0 / denom, pair_sum / denom


# epsilons at which ladder_logderiv regularizes a singular set, and the
# central-difference step of its log-derivative
_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
_H = 1e-6


def _logderiv_value(roots, n: int) -> complex:
    lam0 = 0.5j
    deriv = (
        transfer_eigenvalue(lam0 + _H, roots, n) - transfer_eigenvalue(lam0 - _H, roots, n)
    ) / (2.0 * _H)
    return 0.5 * (1j * deriv / transfer_eigenvalue(lam0, roots, n) - n)


def ladder_logderiv(rootset: RootSet, c: complex) -> float:
    """Log-derivative energy of a singular set as an eps -> 0 extrapolation.

    The set is regularized with the constant ``c`` at each epsilon of
    the ladder, (1/2)(i Lambda'/Lambda - n) is taken at i/2 with a
    central difference of step ``_H``, and the quadratic through the
    three values is evaluated at eps = 0, so the error terms in eps and
    eps^2 cancel.  It is the numerical reference for the exact
    ``energy.energy_logderiv``.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("the ladder is defined for singular root sets")
    extrap = 0j
    for eps in _EPS_LADDER:
        roots = perturbed_singular_roots(others, n, RegularizationParams(eps, c))
        # Lagrange weight of this rung at eps = 0
        weight = math.prod(e / (e - eps) for e in _EPS_LADDER if e != eps)
        extrap += weight * _logderiv_value(roots, n)
    return float(extrap.real)


# ---------------------------------------------------------------------------
# the Nepomechie-Wang series with dense Toeplitz rapidities
# ---------------------------------------------------------------------------


def toeplitz(coeffs, m: int) -> np.ndarray:
    """(m, m) matrix of multiplication by sum_k coeffs[k] eps^k on eps^0..eps^(m-1) columns."""
    return sum(a * np.eye(m, k=k) for k, a in enumerate(coeffs))


def toeplitz_column(lam: np.ndarray, n: int, ell: int, psi: np.ndarray, aux: int):
    """``abba._column`` with the rapidity an (m, m) Toeplitz matrix acting on (rows, m) ``psi``.

    Each site is a dense (rows, m) @ (m, m) product, and the eps axis
    keeps its width m throughout: higher terms are truncated at eps^(m-1).
    """
    shifted = lam - 0.5j * np.eye(len(lam))
    size = hilbert.binomial(n + 1, ell + aux)
    top = hilbert.binomial(n, ell + aux)
    y = np.zeros((size, len(lam)), dtype=complex)
    y[top * aux : top + aux * size] = psi
    for swap in _site_swaps(n, ell + aux):
        swapped = y[swap]
        swapped *= 1j
        y = y @ shifted
        y += swapped
    return y[:top], y[top:]


def dense_nw_series(rootset: RootSet, c: complex) -> np.ndarray:
    """``abba._nw_series`` with L1 and L2 as (m, m) Toeplitz matrices, m = n^2 + n + 1.

    The other roots are numbers acting on all m columns at once.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    m = n * n + n + 1
    shift = np.eye(m, k=1)
    lam1 = 0.5j * np.eye(m) + shift + c * np.eye(m, k=n)
    lam2 = -0.5j * np.eye(m) + shift
    psi = np.zeros((1, m), dtype=complex)
    psi[0, 0] = 1.0  # |0> at eps^0
    for ell, lam in enumerate(reversed([lam1, lam2, *others])):
        column = toeplitz_column if np.ndim(lam) == 2 else _column
        psi = column(lam, n, ell, psi, 1)[0]
    return psi


def dense_sweep_residuals(
    rootset: RootSet, c: complex, ladder=(1e-2, 5e-3, 2.5e-3)
) -> tuple[tuple[float, ...], float]:
    """Ladder and limit residuals of ``abba.regularization_sweep`` on ``sector_hamiltonian``.

    The series is ``dense_nw_series`` and every residual uses the dense
    C(n, ell) x C(n, ell) sector matrix and the Rayleigh-quotient energy.
    """
    n = rootset.n
    h = hilbert.sector_hamiltonian(n, rootset.ell)
    series = dense_nw_series(rootset, complex(c))

    def residual(psi):
        v = psi / np.linalg.norm(psi)
        return float(np.linalg.norm(h @ v - np.real(v.conj() @ (h @ v)) * v))

    return tuple(residual(_nw_at(series, n, eps)) for eps in ladder), residual(series[:, n])
