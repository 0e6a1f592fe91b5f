"""State space and Hamiltonian of the periodic spin-1/2 XXX chain.

Conventions shared by every module in this package:

* A basis index ``b`` in ``[0, 2**n)`` stores site 1 in the most
  significant bit.  Bit value 0 means spin-up, 1 means spin-down.
* The all-up product state is basis index 0.
* Energies are quoted in units of the exchange coupling ``J``.
* An ell-magnon vector is held in sector coordinates: C(n, ell)
  entries, indexed like ``sector_basis(n, ell)``.

H conserves the magnon number ell and commutes with the one-site shift
U, so the package never forms a whole sector: each (ell, q) momentum
block, about C(n, ell)/n wide, is built from the columns H|r> of the
translation-orbit representatives |r> (``translation_orbits``,
``hamiltonian_blocks``), and the same blocks of S^+ give ker S^+
momentum by momentum (``highest_weight_blocks``).  H also commutes
with total spin, so every eigenstate lies in the SU(2) multiplet of a
highest-weight state.  ``highest_weight_sector`` is the one place that
builds a sector's highest-weight blocks: its W_q and
K_q = W_q^H H_q W_q are what the exact diagonalization
(``sector_eigenvalues``, ``exact_spectrum``) and the Bethe solver read.  H itself acts on vectors through its n bond
swaps (``apply_hamiltonian``).  H and S^+ are real, so block
(ell, n - q) is the complex conjugate of block (ell, q), and only the
blocks q <= n/2 are ever eigensolved.

A level is a ``SpectrumEntry`` (energy, multiplicity), and
``merge_levels`` is the one rule that joins close energies into levels,
for the exact spectrum here and for the Bethe and singular spectra of
the pipeline.
"""

from __future__ import annotations

import functools
import math
import os
from typing import NamedTuple

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


def _check_n(n: int, least: int = 1) -> None:
    cap = max_chain_length()
    if not least <= n <= cap:
        raise ValueError(
            f"chain length n={n} outside [{least}, {cap}]; set BETHE_LAB_MAX_N to change the cap"
        )


def _check_sector(n: int, ell: int, least: int = 1) -> None:
    """Refuse n outside [least, cap], or a sector above ``SECTOR_DIM_CAP``, before any basis."""
    _check_n(n, least)
    dim = binomial(n, ell)
    if dim > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {dim} (n={n}, ell={ell}) exceeds cap {SECTOR_DIM_CAP}")


def check_chain(n: int) -> None:
    """The one check of a whole-chain run (``diag`` and ``run``), before any basis is built.

    Refuses n < 2, n above the cap, and a largest sector, ell = n // 2,
    above ``SECTOR_DIM_CAP``.
    """
    _check_sector(n, n // 2, 2)


def site_mask(k: int, n: int) -> int:
    """Bit mask selecting site k (site 1 = most significant bit)."""
    if not 1 <= k <= n:
        raise ValueError(f"site index k={k} outside [1, {n}]")
    return 1 << (n - k)


def hamiltonian(n: int) -> np.ndarray:
    """Dense XXX Hamiltonian (J/4) sum_k (sigma_k.sigma_{k+1} - 1), periodic.

    Entries are real (the sigma^y sigma^y product is real); the matrix is
    returned as float64.  It takes 8 * 4**n bytes, so the package itself
    never builds it: ``exact_spectrum`` works by momentum block.  It is
    kept as the independent reference for tests.
    """
    _check_n(n, 2)
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


def _bit_swap(idx: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Read-only row gather of the swap of bits ``m1`` and ``m2`` on the ascending basis ``idx``.

    A row whose two bits differ moves to the row with both flipped; an
    aligned row stays.
    """
    differ = ((idx & m1) != 0) != ((idx & m2) != 0)
    swap = np.searchsorted(idx, idx ^ differ * (m1 | m2))
    swap.flags.writeable = False
    return swap


@functools.lru_cache(maxsize=None)
def _bond_swaps(n: int, ell: int) -> tuple[np.ndarray, ...]:
    """Row gathers of the bond swaps P_(k,k+1), k = 1..n, on the ell-magnon sector."""
    idx = sector_basis(n, ell)
    return tuple(_bit_swap(idx, site_mask(k, n), site_mask(k % n + 1, n)) for k in range(1, n + 1))


def sector_hamiltonian(n: int, ell: int) -> np.ndarray:
    """XXX Hamiltonian restricted to the ell-magnon sector.

    sigma_k . sigma_(k+1) = 2 P_(k,k+1) - 1, so H = (1/2) sum_k (P_(k,k+1) - 1).
    """
    _check_sector(n, ell, 2)
    dim = len(sector_basis(n, ell))
    h = np.zeros((dim, dim))
    rows = np.arange(dim)
    for swap in _bond_swaps(n, ell):
        h[swap, rows] += 0.5
    h[rows, rows] -= 0.5 * n
    return h


def apply_hamiltonian(n: int, ell: int, psi: np.ndarray) -> np.ndarray:
    """H psi for an ell-magnon ``psi`` of shape (C(n, ell),) or (C(n, ell), m).

    Uses the n bond swaps of ``sector_hamiltonian`` as row gathers, so
    the C(n, ell) x C(n, ell) matrix is never formed.
    """
    if n < 2:
        raise ValueError(f"apply_hamiltonian needs n >= 2, got {n}")
    out = -n * psi
    for swap in _bond_swaps(n, ell):
        out += psi[swap]
    out *= 0.5
    return out


@functools.lru_cache(maxsize=None)
def translation_orbits(n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the one-site shift U on the ell-magnon sector, as index arrays.

    U moves the spin at site k to site k + 1.  Returns ``(shifts,
    lengths)``: row r of ``shifts`` (shape (o, n)) holds the sector
    positions of U^s|r>, s = 0..n-1, where the representative |r> is the
    smallest basis state of its orbit, so ``shifts[:, 0]`` ascends; and
    ``lengths[r]`` is the orbit length L_r, a divisor of n.  There are
    about C(n, ell)/n orbits.
    """
    idx = sector_basis(n, ell)
    rot = [idx]
    for _ in range(1, n):
        rot.append((rot[-1] >> 1) | ((rot[-1] & 1) << (n - 1)))
    rot = np.stack(rot, axis=1)
    reps = rot.min(axis=1) == idx
    shifts = np.searchsorted(idx, rot[reps])
    lengths = n // (rot[reps] == idx[reps, None]).sum(axis=1)
    shifts.flags.writeable = lengths.flags.writeable = False
    return shifts, lengths


@functools.lru_cache(maxsize=None)
def momentum_orbits(n: int, ell: int, q: int) -> np.ndarray:
    """The orbits r of the ell-magnon sector that carry momentum q: q L_r = 0 mod n.

    Block q of a momentum-block operator has one row per such orbit, in
    the basis of the unit U-eigenvectors

        |r, q> = L_r^(-1/2) sum_(s < L_r) e^(-2 pi i q s / n) U^s |r>,

    with eigenvalue e^(2 pi i q / n).
    """
    keep = np.flatnonzero(q * translation_orbits(n, ell)[1] % n == 0)
    keep.flags.writeable = False
    return keep


def orbit_representatives(n: int, ell: int) -> np.ndarray:
    """The unit vectors |r> of the orbit representatives, shape (C(n, ell), o)."""
    reps = translation_orbits(n, ell)[0][:, 0]
    e = np.zeros((binomial(n, ell), len(reps)))
    e[reps, np.arange(len(reps))] = 1.0
    return e


def momentum_blocks(
    y: np.ndarray, n: int, ell: int, ell_out: int | None = None
) -> list[np.ndarray]:
    """The blocks <r', q|O|r, q>, q = 0..n-1, of an operator O that commutes with U.

    ``y`` holds O|r> in sector coordinates of ``ell_out`` (default
    ``ell``), one column per orbit representative r of the ell-magnon
    sector.  Since O U^s = U^s O,

        <r', q|O|r, q> = sqrt(L_r L_r') ifft_s(<U^s r'|O|r>)[q],

    one gather of y and one FFT over s for every block.  Block q has a
    row per ``momentum_orbits(n, ell_out, q)`` and a column per
    ``momentum_orbits(n, ell, q)``.
    """
    ell_out = ell if ell_out is None else ell_out
    shifts, out_lengths = translation_orbits(n, ell_out)
    g = np.fft.ifft(y[shifts], axis=1)  # g[r', q, r]
    g *= np.sqrt(out_lengths)[:, None, None] * np.sqrt(translation_orbits(n, ell)[1])
    return [
        g[momentum_orbits(n, ell_out, q), q][:, momentum_orbits(n, ell, q)] for q in range(n)
    ]


def hamiltonian_blocks(n: int, ell: int) -> list[np.ndarray]:
    """The momentum blocks <r', q|H|r, q>, q = 0..n-1, of the ell-magnon sector."""
    return momentum_blocks(apply_hamiltonian(n, ell, orbit_representatives(n, ell)), n, ell)


def highest_weight_blocks(n: int, ell: int) -> list[np.ndarray]:
    """Orthonormal basis of ker S^+ in each momentum block (ell, q), q = 0..n-1.

    Block q's basis has a row per ``momentum_orbits(n, ell, q)``, in the
    |r, q> basis of that block.  S^+ commutes with U, so it maps
    block (ell, q) into (ell - 1, q); its columns S^+|r> are built with
    bit operations, and the kernel of each block s is the eigenspace of
    S^- S^+ = s^H s below 0.5: on spin S with S_z = n/2 - ell, S^- S^+
    is S(S + 1) - S_z(S_z + 1), an integer that is 0 or at least 2 for
    ell <= n/2.  For ell <= n/2 the kernels have dimensions summing to
    C(n, ell) - C(n, ell - 1).

    S^+ is real, so block n - q of it is the conjugate of block q: the
    kernel is solved for q <= n/2, and block n - q gets exactly conj(W_q).
    Blocks q = 0 and n/2 are their own conjugates, and their bases are
    real, from the real part of their Gram matrix.
    """
    _check_sector(n, ell)
    idx = sector_basis(n, ell)
    if ell == 0:
        return [np.eye(len(momentum_orbits(n, 0, q))) for q in range(n)]
    lower = sector_basis(n, ell - 1)
    reps = idx[translation_orbits(n, ell)[0][:, 0]]
    s = np.zeros((len(lower), len(reps)))
    cols = np.arange(len(reps))
    for k in range(1, n + 1):
        mask = site_mask(k, n)
        down = (reps & mask) != 0
        s[np.searchsorted(lower, reps[down] ^ mask), cols[down]] = 1.0
    blocks = momentum_blocks(s, n, ell, ell - 1)
    kernels = []
    for q in range(n // 2 + 1):
        gram = blocks[q].conj().T @ blocks[q]
        # blocks 0 and n/2 are their own conjugates, so their bases are real
        w, v = np.linalg.eigh(gram.real if 2 * q % n == 0 else gram)
        kernels.append(v[:, w < 0.5])
    return kernels + [kernels[n - q].conj() for q in range(n // 2 + 1, n)]


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises NonHermitianError if the input violates Hermiticity beyond
    1e-12 relative to its largest entry, and RuntimeError if the solver
    residual exceeds 1e-9 relative to the spectral norm, or the
    eigenvectors are not orthonormal within 1e-9.  A 0 x 0 matrix has no
    eigenvalues and an empty eigenvector matrix.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.result_type(m, 1.0))
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


class SpectrumEntry(NamedTuple):
    """One energy level (units of J) with its multiplicity."""

    energy: float
    multiplicity: int


def merge_levels(entries, tol: float) -> list[SpectrumEntry]:
    """Combine (energy, multiplicity) pairs whose energies agree within tol.

    In ascending energy order, a pair within ``tol`` of the running
    level joins it, and the level moves to the weighted mean.
    """
    out: list[list] = []
    for e, m in sorted(entries):
        if out and abs(e - out[-1][0]) <= tol:
            total = out[-1][1] + m
            out[-1][0] = (out[-1][0] * out[-1][1] + e * m) / total
            out[-1][1] = total
        else:
            out.append([e, m])
    return [SpectrumEntry(e, m) for e, m in out]


def spectrum_with_multiplicities(eigs) -> list[SpectrumEntry]:
    """Merge an ascending eigenvalue list into (energy, multiplicity) levels.

    Each eigenvalue counts once, and ``merge_levels`` joins them at the
    tolerance 1e-8 * max(1, max |E|).
    """
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    tol = 1e-8 * float(np.abs(eigs).max(initial=1.0))
    # the E = 0 level is eigensolver noise of either sign; store it exactly
    return [
        SpectrumEntry(0.0 if abs(e) <= tol else e, m)
        for e, m in merge_levels([(e, 1) for e in eigs.tolist()], tol)
    ]


class HighestWeightSector(NamedTuple):
    """The highest-weight momentum blocks of one magnon sector, q = 0..n-1."""

    kernels: list[np.ndarray]  # W_q, from ``highest_weight_blocks``
    hamiltonians: list[np.ndarray]  # K_q = W_q^H H_q W_q


def highest_weight_sector(n: int, ell: int) -> HighestWeightSector:
    """W_q and K_q = W_q^H H_q W_q of the ell-magnon sector, q = 0..n-1.

    The one place that builds a sector's highest-weight blocks, from one
    ``highest_weight_blocks`` and one ``hamiltonian_blocks`` call.  K_q
    is d_q x d_q, in the coordinates of W_q's columns, and H_q is
    dropped once it is projected.
    """
    kernels = highest_weight_blocks(n, ell)
    hamiltonians = [w.conj().T @ h @ w for w, h in zip(kernels, hamiltonian_blocks(n, ell))]
    return HighestWeightSector(kernels, hamiltonians)


def sector_eigenvalues(n: int, ell: int, sector: HighestWeightSector) -> np.ndarray:
    """The energies of every state whose highest-weight state lies in the sector.

    Each eigenvalue of K_q (``eig_hermitian``, with its checks) belongs to
    a highest-weight state of spin n/2 - ell, whose SU(2) multiplet holds
    n - 2 ell + 1 states.  H is real, so block n - q is the conjugate of
    block q and has its spectrum: only the blocks q <= n/2 are
    eigensolved, and one with 0 < q < n/2 counts twice.  Each eigenvalue
    appears once per state, unsorted.
    """
    return np.concatenate([
        np.repeat(eig_hermitian(k)[0], (n - 2 * ell + 1) * (2 if 2 * q % n else 1))
        for q, k in enumerate(sector.hamiltonians[: n // 2 + 1])
    ])


def exact_spectrum(n: int) -> list[SpectrumEntry]:
    """Exact spectrum of the chain as merged (energy, multiplicity) levels.

    H commutes with total spin, so its eigenstates form SU(2) multiplets
    of spin S = n/2 - ell, ell <= n/2, each of n - 2 ell + 1 states with
    one highest-weight state in ker S^+ of the ell-magnon sector.  So the
    spectrum is that of the highest-weight blocks K_q = W_q^H H_q W_q of
    the sectors ell = 0..n // 2 (``highest_weight_sector``), each
    eigenvalue counted for its multiplet and its conjugate block
    (``sector_eigenvalues``).  The blocks are built one sector at a
    time, and ``check_chain`` refuses a bad n, or a largest sector above
    ``SECTOR_DIM_CAP``, before any of them.
    """
    check_chain(n)
    eigs = [sector_eigenvalues(n, ell, highest_weight_sector(n, ell)) for ell in range(n // 2 + 1)]
    return spectrum_with_multiplicities(np.sort(np.concatenate(eigs)))


def binomial(n: int, k: int) -> int:
    if k < 0:
        return 0
    return math.comb(n, k)
