"""Algebraic Bethe ansatz operators for the periodic spin-1/2 XXX chain.

The monodromy matrix is the ordered product T(L) = L_n(L) ... L_1(L) of
local operators

    L_k(L) = L * I (x) 1 + (i/2) sum_a sigma^a (x) sigma^a_k,

viewed as a 2x2 matrix [[A, B], [C, D]] over the auxiliary space.  B
builds magnons on the all-up vacuum; A + D is the transfer matrix whose
logarithmic derivative at L = i/2 reproduces the Hamiltonian.

Everything here is computed by applying the site-by-site block recursion
directly to state vectors (or to matrix column stacks), which keeps the
cost at O(n 2^n) per application.  A rapidity may also be a polynomial in
a small parameter eps, given as the matrix of multiplication by it on
eps-coefficient arrays; the same recursion then returns every
eps-coefficient of the result.  The Nepomechie-Wang vectors, which
vanish to order eps^n, are built that way in float64 with no
cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .baesolver import RootSet, TOL_EQUAL, TOL_SINGULAR, singular_partners

C1_SCHEME = "c1"
C2_SCHEME = "c2"
NAIVE_SCHEME = "naive"

# eigen-residual below which the eps^n coefficient of the regularized
# product is an eigenvector: ~1e-12 for physical singular solutions,
# O(0.1) for non-physical ones
LIMIT_TOL = 1e-8


class PoleError(ValueError):
    """Evaluation requested at a pole of the expression."""


class SingularRootError(ValueError):
    """Plain Bethe vector is undefined at the pair {i/2, -i/2}."""


@dataclass(frozen=True)
class RegularizationParams:
    """Perturbation L1 = i/2 + eps + c eps^n, L2 = -i/2 + eps."""

    epsilon: float
    c: complex
    scheme: str = C1_SCHEME

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.1:
            raise ValueError("epsilon must lie in (0, 0.1]")
        if not (math.isfinite(self.c.real) and math.isfinite(self.c.imag)):
            raise ValueError("regularization constant must be finite")


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


def r_matrix(lam: complex) -> np.ndarray:
    """4x4 rational R-matrix (1/(L+i)) ((L/2 + i) I + (L/2) sum sigma (x) sigma)."""
    lam = complex(lam)
    if abs(lam + 1j) < 1e-12:
        raise PoleError("R-matrix has a pole at lambda = -i")
    ss = sum(np.kron(hilbert.PAULI[a], hilbert.PAULI[a]) for a in (1, 2, 3))
    return ((lam / 2 + 1j) * np.eye(4, dtype=complex) + (lam / 2) * ss) / (lam + 1j)


def l_operator(k: int, lam: complex, n: int) -> list[list[np.ndarray]]:
    """The 2x2 auxiliary-space blocks of L_k as dense 2^n matrices."""
    lam = complex(lam)
    eye = np.eye(1 << n, dtype=complex)
    s1 = hilbert.pauli_site(1, k, n)
    s2 = hilbert.pauli_site(2, k, n)
    s3 = hilbert.pauli_site(3, k, n)
    return [
        [lam * eye + 0.5j * s3, 0.5j * (s1 - 1j * s2)],
        [0.5j * (s1 + 1j * s2), lam * eye - 0.5j * s3],
    ]


def _site_flip(psi: np.ndarray, select: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """sigma^{+/-}_k action: rows in ``select`` copy their bit-flipped partner."""
    out = np.zeros_like(psi)
    out[select] = psi[partner[select]]
    return out


def apply_monodromy(lam, n: int, psi: np.ndarray):
    """Apply the four monodromy blocks at rapidity ``lam`` to ``psi``.

    ``psi`` has shape (2^n,) or (2^n, m); returns (A psi, B psi, C psi,
    D psi).  ``lam`` is a number, or an (m, m) upper-triangular Toeplitz
    matrix: a rapidity polynomial in eps acting on the eps-coefficients
    held along the trailing axis of ``psi`` (column j carries eps^j, so
    the shift ``np.eye(m, k=1)`` multiplies by eps).
    """
    dim = 1 << n
    psi = np.asarray(psi)
    if psi.shape[0] != dim:
        raise ValueError(f"state vector has dim {psi.shape[0]}, expected {dim}")
    if np.ndim(lam) == 2:
        def times_lam(x):
            return x @ lam
    else:
        lam = complex(lam)

        def times_lam(x):
            return lam * x
    b_idx = np.arange(dim)
    extra = (1,) * (psi.ndim - 1)
    # T_0 is the identity and T_k = L_k T_(k-1)
    zero = np.zeros(psi.shape, dtype=complex)
    a, bv, c, d = psi, zero, zero, psi
    for k in range(1, n + 1):
        mask = 1 << (n - k)
        down = (b_idx & mask) != 0
        partner = b_idx ^ mask
        spin = np.where(down, -0.5j, 0.5j).reshape(dim, *extra)  # (i/2) sigma^3_k
        a, bv, c, d = (
            times_lam(a) + spin * a + 1j * _site_flip(c, down, partner),
            times_lam(bv) + spin * bv + 1j * _site_flip(d, down, partner),
            1j * _site_flip(a, ~down, partner) + times_lam(c) - spin * c,
            1j * _site_flip(bv, ~down, partner) + times_lam(d) - spin * d,
        )
    return a, bv, c, d


def monodromy(lam: complex, n: int) -> MonodromyBlocks:
    """Dense monodromy blocks, built by applying the recursion to the identity."""
    hilbert._check_n(n)
    eye = np.eye(1 << n, dtype=complex)
    a, b, c, d = apply_monodromy(lam, n, eye)
    return MonodromyBlocks(complex(lam), a, b, c, d)


def transfer_matrix(lam: complex, n: int) -> np.ndarray:
    blocks = monodromy(lam, n)
    return blocks.tau


def transfer_apply(lam, n: int, psi: np.ndarray) -> np.ndarray:
    """(A + D) psi without building dense blocks."""
    a, _, _, d = apply_monodromy(lam, n, psi)
    return a + d


# generic point at which the restricted transfer matrix is diagonalized;
# any point that separates the eigenvalues of t(u) will do
_SPLIT_POINT = 0.9 * np.exp(0.7j)


def transfer_eigenpolynomials(n: int, ell: int) -> np.ndarray:
    """Coefficients of Lambda(u) on each highest-weight eigenstate of a sector.

    Returns shape (d, n + 1), column j holding the coefficient of u^j,
    one row per eigenstate of the d-dimensional highest-weight subspace
    (ker S^+ in the ell-magnon sector), which every t(u) preserves.  t(u)
    is a degree-n polynomial in u; its restricted coefficient matrices
    C_j come from t at the n + 1 roots of unity by a discrete Fourier
    transform.  One generic combination t(u*) = sum_j C_j u*^j is
    diagonalized, and since the C_j commute, each eigenvector x gives
    every coefficient as the Rayleigh quotient x^H C_j x.
    """
    basis = hilbert.highest_weight_basis(n, ell)
    idx = hilbert.sector_basis(n, ell)
    psi = np.zeros((1 << n, basis.shape[1]), dtype=complex)
    psi[idx] = basis
    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    at_nodes = np.array([basis.T @ transfer_apply(u, n, psi)[idx] for u in nodes])
    coeffs = np.fft.fft(at_nodes, axis=0) / (n + 1)  # coeffs[j] = C_j
    _, vecs = np.linalg.eig(np.tensordot(_SPLIT_POINT ** np.arange(n + 1), coeffs, 1))
    return np.einsum("ak,jab,bk->kj", vecs.conj(), coeffs, vecs)


def _check_regular_roots(roots, tol_equal=TOL_EQUAL, tol_singular=TOL_SINGULAR):
    roots = [complex(z) for z in roots]
    for i, zi in enumerate(roots):
        for zj in roots[i + 1 :]:
            if abs(zi - zj) <= tol_equal:
                raise ValueError(f"coinciding rapidities {zi} and {zj}")
    for z in roots:
        if min(abs(z - 0.5j), abs(z + 0.5j)) <= tol_singular:
            raise SingularRootError(
                "rapidity at +/- i/2; build the state with regularized_nw_vector"
            )
    return roots


def bethe_vector(rootset: RootSet) -> np.ndarray:
    """B(L_1) ... B(L_ell) |0>, living in the ell-magnon sector."""
    roots = _check_regular_roots(rootset.roots)
    psi = hilbert.vacuum_state(rootset.n)
    for lam in roots:
        psi = apply_monodromy(lam, rootset.n, psi)[1]
    return psi


def perturbed_singular_roots(others, n: int, params: RegularizationParams):
    """Regularized rapidity list (L1, L2, L3, ...) for a singular solution."""
    eps = params.epsilon
    lam1 = 0.5j + eps + params.c * eps**n
    lam2 = -0.5j + eps
    return [lam1, lam2, *[complex(z) for z in others]]


def _nw_series(rootset: RootSet, c: complex) -> np.ndarray:
    """eps-coefficients of B(L1) B(L2) B(L3) ... |0>, shape (2^n, n^2 + n + 1).

    With L1 = i/2 + eps + c eps^n and L2 = -i/2 + eps every component is
    a polynomial of degree n^2 + n in eps.  Its coefficients below eps^n
    vanish; the eps^n column is the Nepomechie-Wang limit vector.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    m = n * n + n + 1
    shift = np.eye(m, k=1)
    lam1 = 0.5j * np.eye(m) + shift + c * np.eye(m, k=n)
    lam2 = -0.5j * np.eye(m) + shift
    psi = np.zeros((1 << n, m), dtype=complex)
    psi[0, 0] = 1.0
    for lam in reversed([lam1, lam2, *others]):
        psi = apply_monodromy(lam, n, psi)[1]
    return psi


def _nw_at(series: np.ndarray, n: int, eps: float) -> np.ndarray:
    """sum_{k >= n} series_k eps^(k - n): the series divided by eps^n."""
    tail = series[:, n:]
    return tail @ eps ** np.arange(tail.shape[1])


def regularized_nw_vector(rootset: RootSet, params: RegularizationParams) -> np.ndarray:
    """The Nepomechie-Wang vector eps^-n B(L1) B(L2) B(L3) ... |0>.

    For a physical singular solution this converges, as eps -> 0, to a
    non-zero eigenvector of the Hamiltonian.  The product vanishes to
    order eps^n, so it is expanded exactly in eps and the terms from eps^n
    on are summed in float64, with no cancellation at any eps.
    """
    return _nw_at(_nw_series(rootset, complex(params.c)), rootset.n, params.epsilon)


@dataclass
class RegularizationSweep:
    """The regularized vector along an epsilon ladder, and its exact limit.

    ``residuals`` are the per-rung values ||H psi - E psi|| / ||psi||;
    they shrink linearly in epsilon when the limit is an eigenvector.
    ``limit_vector`` is the normalized eps^n coefficient of the product,
    which is the eps -> 0 limit itself; ``converged`` states that its
    residual ``limit_residual`` is at most ``LIMIT_TOL``.
    """

    scheme: str
    epsilons: tuple[float, ...]
    residuals: tuple[float, ...]
    limit_residual: float
    converged: bool
    vectors: list[np.ndarray]
    limit_vector: np.ndarray


def regularization_sweep(
    rootset: RootSet,
    c: complex,
    scheme: str = C1_SCHEME,
    ladder: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
    energy: float | None = None,
) -> RegularizationSweep:
    """Eigenvector residuals of the regularized vector on a ladder and at eps -> 0.

    The product is expanded in eps once; each rung sums that series and
    the limit is its eps^n coefficient.  Residuals are taken on the
    ell-magnon block, which holds the whole vector, against the supplied
    energy (Rayleigh quotient when omitted).
    """
    n = rootset.n
    basis = hilbert.sector_basis(n, rootset.ell)
    h = hilbert.sector_hamiltonian(n, rootset.ell)

    def unit_and_residual(psi: np.ndarray):
        norm = np.linalg.norm(psi)
        if norm == 0:
            return psi, float("inf")
        psi = psi / norm
        v = psi[basis]
        e = energy if energy is not None else float(np.real(v.conj() @ (h @ v)))
        return psi, float(np.linalg.norm(h @ v - e * v))

    series = _nw_series(rootset, complex(c))
    vectors: list[np.ndarray] = []
    residuals: list[float] = []
    for eps in ladder:
        params = RegularizationParams(eps, complex(c), scheme)
        psi, res = unit_and_residual(_nw_at(series, n, params.epsilon))
        vectors.append(psi)
        residuals.append(res)
    limit_vector, limit_residual = unit_and_residual(series[:, n])
    return RegularizationSweep(
        scheme,
        tuple(ladder),
        tuple(residuals),
        limit_residual,
        limit_residual <= LIMIT_TOL,
        vectors,
        limit_vector,
    )


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
