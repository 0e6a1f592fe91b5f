"""State space and Hamiltonian of the periodic spin-1/2 XXX chain.

Conventions shared by every module in this package:

* A basis index ``b`` in ``[0, 2**n)`` stores site 1 in the most
  significant bit.  Bit value 0 means spin-up, 1 means spin-down.
* The all-up product state is basis index 0.
* Energies are quoted in units of the exchange coupling ``J``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_N = 14
SECTOR_DIM_CAP = 10_000

# provenance tags for spectrum entries
EXACT_DIAG = "exact_diag"
PHYSICAL_SINGULAR = "physical_singular"

PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class NonHermitianError(ValueError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


def max_chain_length() -> int:
    """Cap for dense 2**n constructions; override via BETHE_LAB_MAX_N."""
    return int(os.environ.get("BETHE_LAB_MAX_N", DEFAULT_MAX_N))


def _check_n(n: int) -> None:
    cap = max_chain_length()
    if not 1 <= n <= cap:
        raise ValueError(
            f"chain length n={n} outside [1, {cap}]; set BETHE_LAB_MAX_N to change the cap"
        )


def site_mask(k: int, n: int) -> int:
    """Bit mask selecting site k (site 1 = most significant bit)."""
    if not 1 <= k <= n:
        raise ValueError(f"site index k={k} outside [1, {n}]")
    return 1 << (n - k)


def pauli_site(a: int, k: int, n: int) -> np.ndarray:
    """Pauli matrix sigma^a acting on site k of an n-site chain."""
    if a not in PAULI:
        raise ValueError(f"Pauli axis must be 1, 2 or 3, got {a}")
    _check_n(n)
    site_mask(k, n)  # validates k
    left = np.eye(1 << (k - 1), dtype=complex)
    right = np.eye(1 << (n - k), dtype=complex)
    return np.kron(np.kron(left, PAULI[a]), right)


def vacuum_state(n: int) -> np.ndarray:
    """All-spins-up product state, the pseudo-vacuum |0>."""
    _check_n(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def hamiltonian(n: int, j: float = 1.0) -> np.ndarray:
    """Dense XXX Hamiltonian (J/4) sum_k (sigma_k.sigma_{k+1} - 1), periodic.

    Entries are real (the sigma^y sigma^y product is real); the matrix is
    returned as float64.
    """
    if n < 2:
        raise ValueError(f"hamiltonian needs n >= 2, got {n}")
    _check_n(n)
    dim = 1 << n
    h = np.zeros((dim, dim))
    b = np.arange(dim)
    for k in range(1, n + 1):
        knext = k % n + 1
        m1 = site_mask(k, n)
        m2 = site_mask(knext, n)
        differ = ((b & m1) != 0) != ((b & m2) != 0)
        bd = b[differ]
        # sigma^z sigma^z - 1 gives -2 on anti-aligned bonds, 0 on aligned ones
        h[bd, bd] += -j / 2.0
        # sigma^x sigma^x + sigma^y sigma^y swaps anti-aligned neighbours
        h[bd ^ (m1 | m2), bd] += j / 2.0
    return h


def sector_basis(n: int, ell: int) -> np.ndarray:
    """Ascending basis indices with exactly ell down spins."""
    _check_n(n)
    if not 0 <= ell <= n:
        raise ValueError(f"magnon number ell={ell} outside [0, {n}]")
    b = np.arange(1 << n)
    counts = np.array([int(x).bit_count() for x in b])
    return b[counts == ell]


def sector_hamiltonian(n: int, ell: int, j: float = 1.0) -> np.ndarray:
    """XXX Hamiltonian restricted to the ell-magnon sector."""
    if n < 2:
        raise ValueError(f"sector_hamiltonian needs n >= 2, got {n}")
    idx = sector_basis(n, ell)
    dim = len(idx)
    if dim > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {dim} exceeds cap {SECTOR_DIM_CAP}")
    pos = np.full(1 << n, -1, dtype=np.int64)
    pos[idx] = np.arange(dim)
    h = np.zeros((dim, dim))
    rows = np.arange(dim)
    for k in range(1, n + 1):
        knext = k % n + 1
        m1 = site_mask(k, n)
        m2 = site_mask(knext, n)
        differ = ((idx & m1) != 0) != ((idx & m2) != 0)
        rd = rows[differ]
        h[rd, rd] += -j / 2.0
        h[pos[idx[differ] ^ (m1 | m2)], rd] += j / 2.0
    return h


def translation_matrix(n: int) -> np.ndarray:
    """Cyclic shift moving the spin at site k to site k+1."""
    _check_n(n)
    dim = 1 << n
    b = np.arange(dim)
    shifted = (b >> 1) | ((b & 1) << (n - 1))
    t = np.zeros((dim, dim))
    t[shifted, b] = 1.0
    return t


def raising_operator(n: int) -> np.ndarray:
    """Total spin raising operator S^+ = sum_k (sigma^x_k + i sigma^y_k)/2."""
    _check_n(n)
    dim = 1 << n
    s = np.zeros((dim, dim))
    b = np.arange(dim)
    for k in range(1, n + 1):
        mask = site_mask(k, n)
        down = (b & mask) != 0
        s[b[down] ^ mask, b[down]] += 1.0
    return s


def eig_hermitian(m: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises NonHermitianError if the input violates Hermiticity beyond
    1e-12 relative to its largest entry, and RuntimeError if the solver
    residual exceeds ``tol``.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.abs(m).max(), 1e-300)
    if np.abs(m - m.conj().T).max() > 1e-12 * scale:
        raise NonHermitianError("matrix is not Hermitian within 1e-12 of its largest entry")
    w, v = np.linalg.eigh(m)
    spec_norm = max(np.abs(w).max(), 1e-300)
    resid = np.linalg.norm(m @ v - v * w, axis=0).max()
    if resid > tol * spec_norm:
        raise RuntimeError(f"eigensolver residual {resid:.3e} exceeds {tol:.1e} * ||M||")
    gram = v.conj().T @ v - np.eye(len(w))
    if np.abs(gram).max() > tol:
        raise RuntimeError("eigenvectors not orthonormal to requested tolerance")
    return w, v


@dataclass(frozen=True)
class SpectrumEntry:
    """One energy level (units of J) with its multiplicity."""

    energy: float
    multiplicity: int
    sector: int | str = "diag"
    source: str = EXACT_DIAG


def default_merge_tol(eigs: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.abs(eigs).max()) if len(eigs) else 1.0)


def spectrum_with_multiplicities(
    eigs,
    merge_tol: float | None = None,
    sector: int | str = "diag",
    source: str = EXACT_DIAG,
) -> list[SpectrumEntry]:
    """Merge an ascending eigenvalue list into (energy, multiplicity) entries."""
    eigs = np.asarray(eigs, dtype=float)
    if len(eigs) == 0:
        return []
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    if merge_tol is None:
        merge_tol = default_merge_tol(eigs)
    entries: list[SpectrumEntry] = []
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[i] - eigs[i - 1] > merge_tol:
            cluster = eigs[start:i]
            entries.append(
                SpectrumEntry(float(cluster.mean()), len(cluster), sector, source)
            )
            start = i
    assert sum(e.multiplicity for e in entries) == len(eigs)
    return entries


def binomial(n: int, k: int) -> int:
    if k < 0:
        return 0
    return math.comb(n, k)
