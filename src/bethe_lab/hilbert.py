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


class NonHermitianError(ValueError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


def max_chain_length() -> int:
    """Cap on n for the 2**n-long state vectors; override via BETHE_LAB_MAX_N."""
    raw = os.environ.get("BETHE_LAB_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # rejected below, with the same message as a value < 1
    if cap < 1:
        raise ValueError(f"BETHE_LAB_MAX_N must be an integer >= 1, got {raw!r}")
    return cap


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


def hamiltonian(n: int) -> np.ndarray:
    """Dense XXX Hamiltonian (J/4) sum_k (sigma_k.sigma_{k+1} - 1), periodic.

    Entries are real (the sigma^y sigma^y product is real); the matrix is
    returned as float64.  It takes 8 * 4**n bytes, so the package itself
    never builds it: ``exact_spectrum`` works sector by sector.  It is
    kept as the independent reference for tests.
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
        h[bd, bd] += -0.5
        # sigma^x sigma^x + sigma^y sigma^y swaps anti-aligned neighbours
        h[bd ^ (m1 | m2), bd] += 0.5
    return h


def _with_down_spins(bits: int, count: int) -> np.ndarray:
    """Ascending indices in [0, 2**bits) with exactly ``count`` bits set."""
    b = np.arange(1 << bits)
    return np.flatnonzero(sum((b >> k) & 1 for k in range(bits)) == count)


def sector_basis(n: int, ell: int) -> np.ndarray:
    """Ascending basis indices with exactly ell down spins."""
    _check_n(n)
    if not 0 <= ell <= n:
        raise ValueError(f"magnon number ell={ell} outside [0, {n}]")
    return _with_down_spins(n, ell)


def sector_hamiltonian(n: int, ell: int) -> np.ndarray:
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
        h[rd, rd] += -0.5
        h[pos[idx[differ] ^ (m1 | m2)], rd] += 0.5
    return h


def highest_weight_basis(n: int, ell: int) -> np.ndarray:
    """Orthonormal basis of ker S^+ inside the ell-magnon sector.

    Columns are indexed like ``sector_basis(n, ell)``.  The sector block
    of S^+, which maps ell magnons to ell - 1, is built with bit
    operations, and its null space is the eigenspace of S^- S^+ = s^T s
    below 0.5: on spin S with S_z = n/2 - ell, S^- S^+ is
    S(S + 1) - S_z(S_z + 1), an integer that is 0 or at least 2 for
    ell <= n/2.  ``eigh`` gives that space without the left singular
    vectors a full SVD would build.  For ell <= n/2 it has dimension
    C(n, ell) - C(n, ell - 1).
    """
    idx = sector_basis(n, ell)
    if ell == 0:
        return np.eye(1)
    lower = sector_basis(n, ell - 1)
    if len(idx) > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {len(idx)} exceeds cap {SECTOR_DIM_CAP}")
    pos = np.full(1 << n, -1, dtype=np.int64)
    pos[lower] = np.arange(len(lower))
    s = np.zeros((len(lower), len(idx)))
    cols = np.arange(len(idx))
    for k in range(1, n + 1):
        mask = site_mask(k, n)
        down = (idx & mask) != 0
        s[pos[idx[down] ^ mask], cols[down]] = 1.0
    w, v = np.linalg.eigh(s.T @ s)
    return v[:, w < 0.5]


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises NonHermitianError if the input violates Hermiticity beyond
    1e-12 relative to its largest entry, and RuntimeError if the solver
    residual exceeds 1e-9 relative to the spectral norm, or the
    eigenvectors are not orthonormal within 1e-9.
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
    if resid > 1e-9 * spec_norm:
        raise RuntimeError(f"eigensolver residual {resid:.3e} exceeds 1.0e-09 * ||M||")
    gram = v.conj().T @ v - np.eye(len(w))
    if np.abs(gram).max() > 1e-9:
        raise RuntimeError("eigenvectors not orthonormal within 1e-9")
    return w, v


@dataclass(frozen=True)
class SpectrumEntry:
    """One energy level (units of J) with its multiplicity."""

    energy: float
    multiplicity: int


def spectrum_with_multiplicities(eigs) -> list[SpectrumEntry]:
    """Merge an ascending eigenvalue list into (energy, multiplicity) entries.

    Neighbours closer than 1e-8 * max(1, max |E|) join one level.
    """
    eigs = np.asarray(eigs, dtype=float)
    if len(eigs) == 0:
        return []
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    tol = 1e-8 * max(1.0, float(np.abs(eigs).max()))
    entries: list[SpectrumEntry] = []
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[i] - eigs[i - 1] > tol:
            cluster = eigs[start:i]
            level = float(cluster.mean())
            # the E = 0 level is eigensolver noise of either sign; store it exactly
            if abs(level) <= tol:
                level = 0.0
            entries.append(SpectrumEntry(level, len(cluster)))
            start = i
    assert sum(e.multiplicity for e in entries) == len(eigs)
    return entries


def exact_spectrum(n: int) -> list[SpectrumEntry]:
    """Exact spectrum of the chain as merged (energy, multiplicity) levels.

    H conserves the magnon number, so its spectrum is the union of the
    spectra of the n + 1 sector blocks.  Flipping every spin maps sector
    ell onto sector n - ell and leaves H alone, so only the blocks with
    ell <= n/2 are diagonalized, each through ``eig_hermitian`` and its
    checks, and a block with ell < n/2 is counted twice.  The largest
    block, ell = n // 2, is checked against ``SECTOR_DIM_CAP`` before any
    eigensolve.
    """
    _check_n(n)
    largest = binomial(n, n // 2)
    if largest > SECTOR_DIM_CAP:
        raise ValueError(
            f"sector dimension {largest} (n={n}, ell={n // 2}) exceeds cap {SECTOR_DIM_CAP}"
        )
    eigs = []
    for ell in range(n // 2 + 1):
        w = eig_hermitian(sector_hamiltonian(n, ell))[0]
        eigs += [w, w] if 2 * ell < n else [w]
    return spectrum_with_multiplicities(np.sort(np.concatenate(eigs)))


def binomial(n: int, k: int) -> int:
    if k < 0:
        return 0
    return math.comb(n, k)
