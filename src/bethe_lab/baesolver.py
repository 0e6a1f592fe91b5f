"""Numerical solver and classifier for the Bethe ansatz equations.

The Bethe equations for the length-n XXX chain,

    ((L_k + i/2)/(L_k - i/2))^n = prod_{j != k} (L_k - L_j + i)/(L_k - L_j - i),

are handled in the pole-free polynomial form

    F_k = (L_k + i/2)^n prod_{j != k} (L_k - L_j - i)
        - (L_k - i/2)^n prod_{j != k} (L_k - L_j + i) = 0.

Singular solutions contain the exact pair {i/2, -i/2}; fixing that pair
and cancelling its contribution leaves the reduced system

    G_k = (L_k + i/2)^(n-1) (L_k - 3i/2) prod' (L_k - L_j - i)
        - (L_k - i/2)^(n-1) (L_k + 3i/2) prod' (L_k - L_j + i) = 0

for the remaining roots.  A singular solution is physical when the two
admissible regularization constants agree.

``solve_sector`` takes the Bethe roots of each highest-weight eigenstate
as the roots of the polynomial Q that solves Baxter's TQ relation with
that state's transfer-matrix eigenvalue; such a Q exists exactly for the
regular and physical singular solutions.  Each state is certified in
float64 by two checks that do not cancel: the relative TQ residual of
its Q, and the agreement of the closed-form energy of its roots with
<x|H|x> of its own transfer-matrix eigenvector x.  These two checks
and ``classify`` are the only filter, and no set is deduplicated.
``classify`` holds the one singular-pair rule: it snaps a pair within
``TOL_SINGULAR`` of {i/2, -i/2} to that exact pair and tags a set
strange when another root collides with the pair.  Q is
solved in real arithmetic, so its roots are exactly real or exact
conjugate pairs, and a state whose Lambda is not real fails the TQ
check.  The residual system above is kept as an independent score of a
root set (``bae_residual``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import hilbert

REGULAR = "regular"
PHYSICAL_SINGULAR = "physical_singular"
NONPHYSICAL_SINGULAR = "nonphysical_singular"
STRANGE = "strange"
UNCLASSIFIED = "unclassified"

TOL_EQUAL = 1e-9
TOL_SINGULAR = 1e-6
TQ_TOL = 1e-12  # relative TQ residual ||M q|| / (||M||_2 ||q||) of a kept state
ENERGY_TOL = 1e-8  # relative gap between closed-form energy and <x|H|x>


class StrangeRootsError(ValueError):
    """Root set has coinciding components (violates the Pauli principle)."""


@dataclass(frozen=True)
class RootSet:
    """A candidate or confirmed solution of the Bethe equations."""

    n: int
    roots: tuple[complex, ...]
    classification: str = UNCLASSIFIED
    residual: float = float("nan")

    @property
    def ell(self) -> int:
        return len(self.roots)


# Settings of the former random multi-start, which the solver no longer
# reads; kept because benchmark/workloads.py builds SolverConfig(seed=...),
# benchmark/spans.py reads n_random_starts * len(seed_strategies) and
# benchmark/make_nw_inputs.py calls dataclasses.asdict on it.
@dataclass(frozen=True)
class SolverConfig:
    n_random_starts: int = 300
    seed: int = 42
    seed_strategies: ClassVar[frozenset[str]] = frozenset(
        {"random_real", "random_complex", "string_hypothesis", "symmetric_pairs"}
    )


def _root_key(z: complex) -> tuple[float, float]:
    return (-round(z.real, 9), -round(z.imag, 9))


def canonical_roots(roots) -> tuple[complex, ...]:
    """Deterministic root order: descending real part, then descending imag."""
    return tuple(sorted((complex(z) for z in roots), key=_root_key))


def _pair_side(z: complex) -> int:
    """1 or -1 if the root z is i/2 or -i/2 within TOL_SINGULAR, else 0."""
    for side in (1, -1):
        if abs(z - 0.5j * side) <= TOL_SINGULAR:
            return side
    return 0


def singular_partners(roots):
    """If the set contains the pair {i/2, -i/2}, return the other roots."""
    roots = [complex(z) for z in roots]
    sides = [_pair_side(z) for z in roots]
    if 1 not in sides or -1 not in sides:
        return None
    drop = {sides.index(1), sides.index(-1)}
    return tuple(z for k, z in enumerate(roots) if k not in drop)


def _has_duplicates(roots, tol: float) -> bool:
    roots = list(roots)
    return any(
        abs(a - b) <= tol for a, b in itertools.combinations(roots, 2)
    )


# ---------------------------------------------------------------------------
# residual system, batched over root vectors
# ---------------------------------------------------------------------------


def _system(lam: np.ndarray, n: int, reduced: bool):
    """F and its scale for a batch of root vectors, shape (batch, m)."""
    bsz, m = lam.shape
    u = lam + 0.5j
    v = lam - 0.5j
    if reduced:
        p = n - 1
        em = lam - 1.5j
        ep = lam + 1.5j
    else:
        p = n
        em = np.ones_like(lam)
        ep = np.ones_like(lam)
    diff = lam[:, :, None] - lam[:, None, :]
    dm = diff - 1j
    dp = diff + 1j
    eye = np.eye(m, dtype=bool)
    dm[:, eye] = 1.0
    dp[:, eye] = 1.0
    pm = dm.prod(axis=2)
    pp = dp.prod(axis=2)
    f = u**p * em * pm - v**p * ep * pp
    scale = np.abs(u) ** p * np.abs(em) * np.abs(dm).prod(axis=2) + np.abs(
        v
    ) ** p * np.abs(ep) * np.abs(dp).prod(axis=2)
    return f, scale, (u, v, em, ep, dm, dp, pm, pp, p)


def _residuals(lam: np.ndarray, n: int, reduced: bool) -> np.ndarray:
    f, scale, _ = _system(lam, n, reduced)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(scale > 0, np.abs(f) / np.maximum(scale, 1e-300), np.abs(f))
    r = np.where(np.isfinite(r), r, np.inf)
    return r.max(axis=1)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def bae_residual(roots, n: int) -> float:
    """Relative residual of the Bethe equations in pole-free form.

    Root sets containing the singular pair {i/2, -i/2} are scored with
    the reduced system for the remaining roots (the pair itself is an
    exact factor there).
    """
    roots = [complex(z) for z in roots]
    if _has_duplicates(roots, TOL_EQUAL):
        raise StrangeRootsError(f"coinciding roots within {TOL_EQUAL}: {roots}")
    if not roots:
        return 0.0
    others = singular_partners(roots)
    if others is not None:
        if not others:
            return 0.0
        lam = np.array([others], dtype=complex)
        return float(_residuals(lam, n, reduced=True)[0])
    lam = np.array([roots], dtype=complex)
    return float(_residuals(lam, n, reduced=False)[0])


def nw_constants(rootset: RootSet) -> tuple[complex, complex]:
    """The two Nepomechie-Wang regularization constants of a singular set.

    c1 = -(2 / i^(n+1)) prod_{j>=3} (L_j - 3i/2)/(L_j + i/2)
    c2 =   2 * i^(n+1)  prod_{j>=3} (L_j + 3i/2)/(L_j - i/2)

    Their equality is the physicality criterion.
    """
    n = rootset.n
    others = singular_partners(rootset.roots)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    for z in others:
        if _pair_side(z):
            raise ZeroDivisionError(f"non-pair root {z} sits on a pole of the c formulas")
    ipow = 1j ** (n + 1)
    c1 = -2.0 / ipow
    c2 = 2.0 * ipow
    for z in others:
        c1 *= (z - 1.5j) / (z + 0.5j)
        c2 *= (z + 1.5j) / (z - 0.5j)
    return complex(c1), complex(c2)


def classify(rootset: RootSet) -> RootSet:
    """Tag a root set as regular / physical / non-physical / strange.

    This is where the singular-pair rule lives: a set holding the pair
    {i/2, -i/2} within ``TOL_SINGULAR`` gets that pair exactly, and it is
    strange when another of its roots also lies within ``TOL_SINGULAR``
    of i/2 or -i/2 (a pole of the ``nw_constants`` formulas), as it is
    when two roots agree within ``TOL_EQUAL``.  The roots come back in
    ``canonical_roots`` order.
    """
    others = singular_partners(rootset.roots)
    roots = rootset.roots if others is None else (0.5j, -0.5j, *others)
    rootset = replace(rootset, roots=canonical_roots(roots))
    if _has_duplicates(rootset.roots, TOL_EQUAL) or any(map(_pair_side, others or ())):
        return replace(rootset, classification=STRANGE)
    if others is None:
        return replace(rootset, classification=REGULAR)
    c1, c2 = nw_constants(rootset)
    if abs(c1 - c2) <= 1e-8 * max(1.0, abs(c1), abs(c2)):
        return replace(rootset, classification=PHYSICAL_SINGULAR)
    return replace(rootset, classification=NONPHYSICAL_SINGULAR)


# ---------------------------------------------------------------------------
# TQ-seeded sector solver
# ---------------------------------------------------------------------------


def _tq_roots(lam_coeffs, n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the monic degree-ell Q in Baxter's TQ relation, and its residual.

    Lambda(u) Q(u) = (u + i/2)^n Q(u - i) + (u - i/2)^n Q(u + i) is linear
    in the coefficients q of Q, M q = 0, so with Q monic it is a
    least-squares problem.  ``lam_coeffs`` has shape (d, n + 1), one row
    of Lambda coefficients (lowest first) per state of a sector; the
    result is the roots, shape (d, ell), and the residuals
    ||M q|| / (||M||_2 ||q||), shape (d,): about 1e-14 for a true
    eigenvalue, and above 1e-8 once Lambda is off by 1e-6.

    The Lambda-independent part of M is built once, the d matrices are
    filled as one (d, n + ell + 1, ell + 1) stack, and the least squares
    (QR), the spectral norms (singular values) and the roots
    (eigenvalues of the companion matrices) each run as one stacked
    call.  Q is solved with the real part of M, so its real roots come
    out with imaginary part exactly 0 and its complex roots in exact
    conjugate pairs.  A root set is self-conjugate exactly when Lambda
    has real coefficients; the residual is taken against the full
    complex M, so a Lambda that is not real fails it.
    """
    # minus (u + i/2)^n (u - i)^k minus (u - i/2)^n (u + i)^k, the part of
    # the image of u^k that does not hold Lambda; the coefficients of both
    # products are dyadic, so they are exact
    plus, minus = np.poly([-0.5j] * n), np.poly([0.5j] * n)
    fixed = np.zeros((n + ell + 1, ell + 1), dtype=complex)
    for k in range(ell + 1):
        fixed[: n + k + 1, k] = -(plus + minus)[::-1]
        plus, minus = np.convolve(plus, [1, -1j]), np.convolve(minus, [1, 1j])
    cols = np.repeat(fixed[None], len(lam_coeffs), axis=0)
    for k in range(ell + 1):
        cols[:, k : k + n + 1, k] += lam_coeffs  # Lambda u^k
    m = cols.real
    qr_q, qr_r = np.linalg.qr(m[:, :, :ell])
    rhs = -np.swapaxes(qr_q, 1, 2) @ m[:, :, ell:]
    q = np.concatenate([np.linalg.solve(qr_r, rhs)[:, :, 0], np.ones((len(m), 1))], axis=1)
    spectral = np.linalg.svd(cols, compute_uv=False)[:, 0]
    residual = np.linalg.norm(cols @ q[:, :, None], axis=(1, 2)) / (
        spectral * np.linalg.norm(q, axis=1)
    )
    # companion matrix of u^ell + q_(ell-1) u^(ell-1) + ... + q_0, as np.roots builds it
    companion = np.zeros((len(q), ell, ell))
    companion[:, 0] = -q[:, ell - 1 :: -1]
    companion[:, np.arange(1, ell), np.arange(ell - 1)] = 1.0
    return np.linalg.eigvals(companion), residual


# ``cfg`` is unused; kept because benchmark/spans.py binds args["cfg"]
def solve_sector(
    n: int, ell: int, cfg: SolverConfig | None = None,
    sector: hilbert.HighestWeightSector | None = None,
) -> list[RootSet]:
    """Every regular and physical singular Bethe root set of the (n, ell) sector.

    One state per highest-weight eigenstate x of the transfer matrix: its
    eigenvalue Lambda(u) fixes Baxter's Q, whose roots are the Bethe
    roots.  ``sector`` holds the sector's highest-weight blocks W_q and
    K_q = W_q^H H_q W_q; a caller that has already built them for its
    exact diagonalization passes them in, and without it they are built
    here by ``hilbert.highest_weight_sector``.  A state is kept when the
    relative TQ residual of its Q is at most ``TQ_TOL``, when
    ``classify`` tags it regular or physical singular, and when its
    closed-form energy (``energy.energy_of``) equals <x|H|x> / <x|x>
    within ``ENERGY_TOL`` * max(1, |E|).  x is taken in the coordinates
    of W_q's columns, where it was found, so <x|H|x> is x^H K_q x.  The
    singular-pair rule is ``classify``'s alone: it gives a set holding
    the pair {i/2, -i/2} that pair exactly, tags it strange when another
    root collides with the pair, and returns the roots in canonical
    order.  A state that fails is dropped, so it shows up as a count
    shortfall in the caller's audit against the rigged configuration
    census; no check looks for repeated sets, because two highest-weight
    states never share one Lambda (Mukhin, Tarasov & Varchenko).  The
    roots are exactly real or come in exact conjugate pairs, and a state
    whose Lambda is not real is dropped (see ``_tq_roots``).
    ``residual`` is the TQ residual.
    """
    # local: abba and energy import this module at their top
    from . import abba, energy

    if not 0 <= 2 * ell <= n:
        raise ValueError(f"need 0 <= ell <= n/2, got ell={ell}, n={n}")
    if ell == 0:
        return [RootSet(n, (), REGULAR, 0.0)]

    kernels, k_blocks = hilbert.highest_weight_sector(n, ell) if sector is None else sector
    lam_coeffs, states = abba.transfer_eigenpolynomials(n, ell, kernels)
    rayleigh = np.concatenate(
        [(x.conj() * (k @ x)).sum(0).real / (abs(x) ** 2).sum(0) for k, x in zip(k_blocks, states)]
    )

    out = []
    for roots, tq_residual, e_state in zip(*_tq_roots(lam_coeffs, n, ell), rayleigh):
        if not tq_residual <= TQ_TOL:
            continue
        rs = classify(RootSet(n, tuple(roots), residual=float(tq_residual)))
        if rs.classification not in (REGULAR, PHYSICAL_SINGULAR):
            continue
        e = energy.energy_of(rs)
        gap = abs(complex(e.energy - e_state, e.imag_leak))
        if gap > ENERGY_TOL * max(1.0, abs(e.energy)):
            continue
        out.append(rs)

    out.sort(key=lambda rs: tuple(map(_root_key, rs.roots)))
    return out

