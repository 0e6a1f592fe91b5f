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

``solve_sector`` starts Newton once per highest-weight eigenstate, from
the roots of the polynomial Q that solves Baxter's TQ relation with that
state's transfer-matrix eigenvalue; such a Q exists exactly for the
regular and physical singular solutions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

REGULAR = "regular"
PHYSICAL_SINGULAR = "physical_singular"
NONPHYSICAL_SINGULAR = "nonphysical_singular"
STRANGE = "strange"
UNCLASSIFIED = "unclassified"

TOL_EQUAL = 1e-9
TOL_SINGULAR = 1e-6
DEDUP_TOL = 1e-7
NEWTON_TOL = 1e-11
MAX_NEWTON_ITERS = 60

_DIVERGED_ABS = 50.0  # iterates beyond this radius are written off


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

    def is_singular(self) -> bool:
        return singular_partners(self.roots) is not None


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


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    roots: tuple[complex, ...]
    residual: float
    iterations: int
    message: str = ""


def canonical_roots(roots) -> tuple[complex, ...]:
    """Deterministic root order: descending real part, then descending imag."""
    key = lambda z: (-round(z.real, 9), -round(z.imag, 9))
    return tuple(sorted((complex(z) for z in roots), key=key))


def singular_partners(roots, tol: float = TOL_SINGULAR):
    """If the set contains the pair {i/2, -i/2}, return the other roots."""
    roots = [complex(z) for z in roots]
    i_up = [k for k, z in enumerate(roots) if abs(z - 0.5j) <= tol]
    i_dn = [k for k, z in enumerate(roots) if abs(z + 0.5j) <= tol]
    if not i_up or not i_dn:
        return None
    drop = {i_up[0], i_dn[0]}
    return tuple(z for k, z in enumerate(roots) if k not in drop)


def _has_duplicates(roots, tol: float) -> bool:
    roots = list(roots)
    return any(
        abs(a - b) <= tol for a, b in itertools.combinations(roots, 2)
    )


def multiset_eq(a, b, tol: float) -> bool:
    """Whether two root multisets coincide within ``tol`` per root.

    True when the roots of ``a`` can be paired one-to-one with those of
    ``b`` so that every pair lies within ``tol``: a perfect matching in
    the bipartite graph of in-tolerance pairs.  The matching is built by
    backtracking along augmenting paths, so a root whose partners are
    all taken may move an earlier root onto another partner.  This is
    the exact min-over-permutations test in O(ell^3) rather than ell!
    steps.
    """
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if len(a) != len(b):
        return False
    near = [[j for j, y in enumerate(b) if abs(x - y) <= tol] for x in a]
    owner = [-1] * len(b)  # owner[j]: index in ``a`` matched to b[j]

    def place(i: int, seen: set[int]) -> bool:
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(a)))


# ---------------------------------------------------------------------------
# residual system, batched over starts
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


def _batch_newton(starts: np.ndarray, n: int, reduced: bool):
    """Damped Newton on every start; returns (roots, residuals, converged, iters)."""
    lam = np.array(starts, dtype=complex)
    bsz, m = lam.shape
    res = _residuals(lam, n, reduced)
    iters = np.zeros(bsz, dtype=int)
    dead = ~np.isfinite(res)
    for _ in range(MAX_NEWTON_ITERS):
        active = (res > NEWTON_TOL) & ~dead
        if not active.any():
            break
        ai = np.where(active)[0]
        f, jac = _jacobian(lam[ai], n, reduced)
        try:
            step = np.linalg.solve(jac, -f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = -(np.linalg.pinv(jac) @ f[..., None])[..., 0]
        step = np.where(np.isfinite(step), step, 0.0)
        # keep steps bounded; Newton far from a root can explode
        norms = np.abs(step).max(axis=1)
        big = norms > 4.0
        step[big] *= (4.0 / norms[big])[:, None]

        alpha = np.ones(len(ai))
        cur = res[ai]
        cand = lam[ai] + step
        cand_res = _residuals(cand, n, reduced)
        improved = cand_res < cur
        for _half in range(20):
            if improved.all():
                break
            bad = ~improved
            alpha[bad] /= 2.0
            cand[bad] = lam[ai][bad] + alpha[bad, None] * step[bad]
            cand_res[bad] = _residuals(cand[bad], n, reduced)
            improved = improved | (cand_res < cur)
        moved = ai[improved]
        lam[moved] = cand[improved]
        res[moved] = cand_res[improved]
        iters[moved] += 1
        dead[ai[~improved]] = True  # 20 halvings without progress
        dead |= np.abs(lam).max(axis=1) > _DIVERGED_ABS
    conv = (res <= NEWTON_TOL) & ~dead & np.isfinite(res)
    return lam, res, conv, iters


def _mp_polish(roots, n: int, reduced: bool):
    """Arbitrary-precision Newton verification of an uncertified iterate.

    float64 cannot certify roots whose string deviations fall below ~1e-5
    (the residual floors at eps/deviation: already ~1e-7 for the 1e-9
    deviations that appear at n=10).  This runs ``_system`` and
    ``_jacobian`` on ``mpmath.mpc`` values at 50 digits and returns
    (roots, residual, ok); ``ok`` means the residual is below NEWTON_TOL,
    which certifies string deviations far below the float64 noise floor.
    """
    import mpmath as mp

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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def bae_residual(roots, n: int, tol_equal: float = TOL_EQUAL) -> float:
    """Relative residual of the Bethe equations in pole-free form.

    Root sets containing the singular pair {i/2, -i/2} are scored with
    the reduced system for the remaining roots (the pair itself is an
    exact factor there).
    """
    roots = [complex(z) for z in roots]
    if _has_duplicates(roots, tol_equal):
        raise StrangeRootsError(f"coinciding roots within {tol_equal}: {roots}")
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


def newton_refine(start, n: int) -> NewtonResult:
    """Damped Newton from one start vector on the full polynomial system."""
    start = [complex(z) for z in start]
    if _has_duplicates(start, TOL_EQUAL):
        raise StrangeRootsError("start has coinciding entries; Jacobian would be singular")
    lam, res, conv, iters = _batch_newton(np.array([start], dtype=complex), n, reduced=False)
    roots = canonical_roots(lam[0])
    if conv[0]:
        return NewtonResult(True, roots, float(res[0]), int(iters[0]))
    return NewtonResult(
        False, roots, float(res[0]), int(iters[0]), "did not reach NEWTON_TOL"
    )


def nw_constants(roots: RootSet | tuple, n: int | None = None) -> tuple[complex, complex]:
    """The two Nepomechie-Wang regularization constants of a singular set.

    c1 = -(2 / i^(n+1)) prod_{j>=3} (L_j - 3i/2)/(L_j + i/2)
    c2 =   2 * i^(n+1)  prod_{j>=3} (L_j + 3i/2)/(L_j - i/2)

    Their equality is the physicality criterion.
    """
    if isinstance(roots, RootSet):
        n = roots.n
        root_vals = roots.roots
    else:
        if n is None:
            raise ValueError("n required when passing a bare root sequence")
        root_vals = roots
    others = singular_partners(root_vals)
    if others is None:
        raise ValueError("root set does not contain the singular pair {i/2, -i/2}")
    for z in others:
        if abs(z + 0.5j) <= TOL_SINGULAR or abs(z - 0.5j) <= TOL_SINGULAR:
            raise ZeroDivisionError(f"non-pair root {z} sits on a pole of the c formulas")
    ipow = 1j ** (n + 1)
    c1 = -2.0 / ipow
    c2 = 2.0 * ipow
    for z in others:
        c1 *= (z - 1.5j) / (z + 0.5j)
        c2 *= (z + 1.5j) / (z - 0.5j)
    return complex(c1), complex(c2)


def classify(rootset: RootSet) -> RootSet:
    """Tag a converged root set as regular / physical / non-physical / strange."""
    roots = rootset.roots
    if _has_duplicates(roots, TOL_EQUAL):
        return replace(rootset, classification=STRANGE)
    if singular_partners(roots) is not None:
        c1, c2 = nw_constants(rootset)
        if abs(c1 - c2) <= 1e-8 * max(1.0, abs(c1), abs(c2)):
            return replace(rootset, classification=PHYSICAL_SINGULAR)
        return replace(rootset, classification=NONPHYSICAL_SINGULAR)
    return replace(rootset, classification=REGULAR)


# ---------------------------------------------------------------------------
# TQ-seeded sector solver
# ---------------------------------------------------------------------------


def _tq_roots(lam_coeffs, n: int, ell: int) -> np.ndarray:
    """Roots of the monic degree-ell Q in Baxter's TQ relation.

    Lambda(u) Q(u) = (u + i/2)^n Q(u - i) + (u - i/2)^n Q(u + i) is linear
    in the coefficients of Q, so with Q monic it is a least-squares
    problem; ``lam_coeffs`` are the coefficients of Lambda, lowest first.
    """
    poly = np.polynomial.polynomial
    plus = poly.polypow([0.5j, 1.0], n)
    minus = poly.polypow([-0.5j, 1.0], n)
    cols = np.zeros((n + ell + 1, ell + 1), dtype=complex)
    for k in range(ell + 1):
        # the image of the monomial u^k
        term = poly.polysub(
            poly.polymul(lam_coeffs, [0.0] * k + [1.0]),
            poly.polyadd(
                poly.polymul(plus, poly.polypow([-1j, 1.0], k)),
                poly.polymul(minus, poly.polypow([1j, 1.0], k)),
            ),
        )
        cols[: len(term), k] = term
    q = np.linalg.lstsq(cols[:, :ell], -cols[:, ell], rcond=None)[0]
    return np.roots(np.append(q, 1.0)[::-1])


def _certify(starts: list, n: int, reduced: bool):
    """Certified (roots, residual) pairs reached from the given starts.

    Float64 Newton runs on every start at once; what it cannot certify
    goes through ``_mp_polish``, and what neither certifies is dropped.
    """
    if not starts:
        return []
    if not len(starts[0]):
        return [((), 0.0)] * len(starts)  # the bare singular pair
    lam, res, conv, _ = _batch_newton(np.array(starts), n, reduced)
    out = []
    for row, r, ok in zip(lam, res, conv):
        if not ok:
            row, r, ok = _mp_polish(row, n, reduced)
        if ok:
            out.append((_snap_real_axis(canonical_roots(row), n, reduced), float(r)))
    return out


def _snap_real_axis(roots, n: int, reduced: bool):
    """Zero out float-noise imaginary parts when that keeps the residual."""
    snapped = tuple(
        complex(z.real, 0.0) if abs(z.imag) < 1e-11 else z for z in roots
    )
    if snapped == tuple(roots) or not snapped:
        return tuple(roots)
    before = float(_residuals(np.array([roots], dtype=complex), n, reduced)[0])
    after = float(_residuals(np.array([snapped], dtype=complex), n, reduced)[0])
    if after <= max(NEWTON_TOL, 2.0 * before):
        return snapped
    return tuple(roots)


class _SumIndex:
    """Kept root sets, searchable by the key ``Re(sum of roots)``.

    If ``multiset_eq(a, b, tol)`` holds then ``|Re sum a - Re sum b| <=
    ell * tol``, so a candidate is compared only with the kept sets whose
    key lies in that window (widened by a float-rounding slack), found by
    bisection in the sorted keys.  Candidates are tried in insertion
    order, so the answers equal a scan over every kept set.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.roots: list[tuple[complex, ...]] = []  # in insertion order
        self._keys: list[float] = []  # sorted
        self._ids: list[int] = []  # entry of each sorted key

    @staticmethod
    def _key(roots) -> float:
        return sum(complex(z).real for z in roots)

    def add(self, roots) -> None:
        self.roots.append(roots)
        key = self._key(roots)
        pos = bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._ids.insert(pos, len(self.roots) - 1)

    def first_match(self, roots) -> int | None:
        """Earliest kept entry equal to ``roots`` as a multiset, if any."""
        key = self._key(roots)
        width = len(roots) * self.tol + 1e-9 * (1.0 + sum(abs(z) for z in roots))
        lo = bisect_left(self._keys, key - width)
        hi = bisect_right(self._keys, key + width)
        for k in sorted(self._ids[lo:hi]):
            if multiset_eq(roots, self.roots[k], self.tol):
                return k
        return None


# ``cfg`` is unused; kept because benchmark/spans.py binds args["cfg"]
def solve_sector(n: int, ell: int, cfg: SolverConfig | None = None) -> list[RootSet]:
    """Every regular and physical singular Bethe root set of the (n, ell) sector.

    One start per highest-weight eigenstate: the transfer-matrix
    eigenvalue Lambda(u) of the state fixes Baxter's Q, whose roots are
    the Bethe roots.  A start holding the pair {i/2, -i/2} is certified
    on the reduced system for its other roots.  Float64 Newton and the
    50-digit ``_mp_polish`` certify each start; a start that neither
    certifies, that classifies as non-physical, or that repeats a kept
    set is dropped, so it shows up as a count shortfall in the caller's
    audit against the rigged configuration census.
    """
    from . import abba

    if not 0 <= 2 * ell <= n:
        raise ValueError(f"need 0 <= ell <= n/2, got ell={ell}, n={n}")
    if ell == 0:
        return [RootSet(n, (), REGULAR, 0.0)]

    full, reduced = [], []
    for lam_coeffs in abba.transfer_eigenpolynomials(n, ell):
        roots = _tq_roots(lam_coeffs, n, ell)
        others = singular_partners(roots)
        if others is None:
            full.append(roots)
        else:
            reduced.append(others)

    cands = _certify(full, n, reduced=False)
    for extra, rres in _certify(reduced, n, reduced=True):
        # extra roots may not collide with the fixed pair
        if all(min(abs(z - 0.5j), abs(z + 0.5j)) > TOL_SINGULAR for z in extra):
            cands.append(((0.5j, -0.5j, *extra), rres))

    kept = _SumIndex(DEDUP_TOL)
    out = []
    for roots, rres in cands:
        rs = classify(RootSet(n, canonical_roots(roots), residual=rres))
        if rs.classification not in (REGULAR, PHYSICAL_SINGULAR):
            continue
        if kept.first_match(rs.roots) is None:
            kept.add(rs.roots)
            out.append(rs)

    out.sort(
        key=lambda rs: tuple(
            (-round(z.real, 9), -round(z.imag, 9)) for z in rs.roots
        )
    )
    return out


def sector_target_count(n: int, ell: int) -> int:
    """Highest-weight state count C(n,ell) - C(n,ell-1) the solver aims for."""
    from .hilbert import binomial

    return binomial(n, ell) - binomial(n, ell - 1)
