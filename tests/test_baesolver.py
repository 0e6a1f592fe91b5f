import itertools
import math

import numpy as np
import pytest

from bethe_lab import abba, baesolver as bs, hilbert, rigged

import dense_ops
import mp_newton
import tq_reference
from multiset import multiset_eq

SQ12 = 1 / math.sqrt(12)

# six-digit reference tables for the n=6 chain.  The published table
# flips the sign of the smaller rapidity in the (0.582004, 0.094167)
# pair and its negative; the values below are the verified roots (the
# printed variant leaves a Bethe residual of 0.87, and the transfer
# matrix eigenstates reproduce these sign choices).  Energies are even
# in each rapidity, so every published energy is unaffected.
N6_ELL1 = [0.866025, 0.288675, 0.0, -0.288675, -0.866025]
N6_ELL2 = [
    (0.554592 + 0.512465j, 0.554592 - 0.512465j),
    (-0.554592 + 0.512465j, -0.554592 - 0.512465j),
    (0.688190, -0.688190),
    (0.631084, -0.198071),
    (0.582004, 0.094167),
    (0.198071, -0.631084),
    (0.162459, -0.162459),
    (-0.094167, -0.582004),
]
N6_ELL3 = [
    (1.008757j, 0.0, -1.008757j),
    (0.235900 + 0.500280j, 0.235900 - 0.500280j, -0.471800),
    (0.471800, -0.235900 + 0.500280j, -0.235900 - 0.500280j),
    (0.429253, 0.0, -0.429253),
]


def find(solutions, roots, tol=1e-5):
    for s in solutions:
        if len(s.roots) == len(roots) and multiset_eq(s.roots, roots, tol):
            return s
    return None


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residual_exact_solution():
    assert bs.bae_residual([SQ12, -SQ12], 4) <= 1e-12


def test_residual_six_digit_table_value():
    # the table rapidity is rounded to six digits, which leaves a
    # residual just above 1e-6
    assert bs.bae_residual([0.866025], 6) <= 2e-6


def test_residual_generic_non_solution():
    assert bs.bae_residual([0.3, -0.2], 4) > 1e-3


def test_residual_rejects_strange_input():
    with pytest.raises(bs.StrangeRootsError):
        bs.bae_residual([0.5, 0.5], 6)


def test_residual_singular_set_uses_reduced_system():
    assert bs.bae_residual([0.5j, -0.5j], 4) == 0.0
    assert bs.bae_residual([0.5j, 0.0, -0.5j], 6) <= 1e-12


# ---------------------------------------------------------------------------
# the residual system and the 50-digit Newton reference built on it
# ---------------------------------------------------------------------------


def _min_separation(roots) -> float:
    pairs = list(itertools.combinations(roots, 2))
    return min((abs(a - b) for a, b in pairs), default=float("inf"))


def _separated_points(rng, batch, m):
    """Random root vectors whose entries stay apart from each other and i/2."""
    rows = []
    while len(rows) < batch:
        row = rng.uniform(-1.5, 1.5, size=m) + 1j * rng.uniform(-1.2, 1.2, size=m)
        if _min_separation(row) > 0.2 and all(abs(abs(z.imag) - 0.5) > 0.1 for z in row):
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_jacobian_matches_central_differences(m, reduced):
    n, h = 10, 1e-6
    lam = _separated_points(np.random.default_rng((2026, m, reduced)), 4, m)
    f, jac = mp_newton._jacobian(lam, n, reduced)
    assert jac.dtype == complex
    f0, _, _ = bs._system(lam, n, reduced)
    np.testing.assert_array_equal(f, f0)
    for q in range(m):
        step = np.zeros(m)
        step[q] = h
        fp, _, _ = bs._system(lam + step, n, reduced)
        fm, _, _ = bs._system(lam - step, n, reduced)
        fd = (fp - fm) / (2 * h)
        scale = np.abs(jac).max(axis=(1, 2))[:, None]
        assert (np.abs(jac[:, :, q] - fd) <= 1e-7 * scale).all(), (q, jac[:, :, q], fd)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("m", [1, 3])
def test_jacobian_keeps_mpmath_precision(m, reduced):
    import mpmath as mp

    n = 10
    pts = _separated_points(np.random.default_rng((42, m, reduced)), 2, m)
    with mp.workdps(50):
        lam = np.array([[mp.mpc(z) for z in row] for row in pts], dtype=object)
        f, jac = mp_newton._jacobian(lam, n, reduced)
        h = mp.mpf("1e-20")
        for q in range(m):
            step = np.zeros(m, dtype=object)
            step[q] = h
            fp, _, _ = bs._system(lam + step, n, reduced)
            fm, _, _ = bs._system(lam - step, n, reduced)
            for b in range(len(pts)):
                for k in range(m):
                    entry = jac[b, k, q]
                    assert isinstance(entry, mp.mpc), type(entry)
                    fd = (fp[b, k] - fm[b, k]) / (2 * h)
                    assert abs(entry - fd) <= mp.mpf("1e-25") * abs(fd), (b, k, q)


# ---------------------------------------------------------------------------
# regularization constants and classification
# ---------------------------------------------------------------------------


def test_nw_constants_empty_product():
    c1, c2 = bs.nw_constants(bs.RootSet(4, (0.5j, -0.5j)))
    assert abs(c1 - 2j) < 1e-14 and abs(c2 - 2j) < 1e-14
    c1, c2 = bs.nw_constants(bs.RootSet(6, (0.5j, -0.5j)))
    assert abs(c1 + 2j) < 1e-14 and abs(c2 + 2j) < 1e-14


def test_nw_constants_one_extra_root():
    c1, c2 = bs.nw_constants(bs.RootSet(6, (0.5j, 0.0, -0.5j)))
    assert abs(c1 - 6j) < 1e-14
    assert abs(c1 - c2) < 1e-14


def test_nw_constants_require_singular_pair():
    with pytest.raises(ValueError):
        bs.nw_constants(bs.RootSet(4, (0.5, -0.5)))


def test_classify_examples():
    assert bs.classify(bs.RootSet(4, (0.5j, -0.5j))).classification == bs.PHYSICAL_SINGULAR
    assert (
        bs.classify(bs.RootSet(6, (0.5j, 0.0, -0.5j))).classification
        == bs.PHYSICAL_SINGULAR
    )
    assert bs.classify(bs.RootSet(4, (0.5,))).classification == bs.REGULAR
    assert bs.classify(bs.RootSet(6, (0.2, 0.2 + 5e-11))).classification == bs.STRANGE
    assert (
        bs.classify(bs.RootSet(6, (0.5j, -0.5j, 0.405233))).classification
        == bs.NONPHYSICAL_SINGULAR
    )
    # a third root on a pole of the c formulas collides with the pair
    assert (
        bs.classify(bs.RootSet(6, (0.5j, -0.5j, 0.5j + 1e-8))).classification
        == bs.STRANGE
    )


def test_classify_snaps_the_singular_pair_into_canonical_order():
    rs = bs.classify(bs.RootSet(6, (0.3, 0.5j + 1e-9, -0.5j)))
    assert rs.roots == (0.3, 0.5j, -0.5j)
    c1, c2 = bs.nw_constants(bs.RootSet(6, (0.3, 0.5j, -0.5j)))
    physical = abs(c1 - c2) <= 1e-8 * max(1.0, abs(c1), abs(c2))
    assert rs.classification == (bs.PHYSICAL_SINGULAR if physical else bs.NONPHYSICAL_SINGULAR)


# ---------------------------------------------------------------------------
# sector solves against the published tables
# ---------------------------------------------------------------------------


def test_four_site_single_magnon_sector(solved):
    sols = [s for s in solved(4, 1) if s.classification == bs.REGULAR]
    assert len(sols) == 3
    for target in (0.5, 0.0, -0.5):
        assert find(sols, (target,), tol=1e-9) is not None


def test_four_site_two_magnon_sector(solved):
    sols = solved(4, 2)
    regular = [s for s in sols if s.classification == bs.REGULAR]
    singular = [s for s in sols if s.classification == bs.PHYSICAL_SINGULAR]
    assert len(regular) == 1 and len(singular) == 1
    assert find(regular, (SQ12, -SQ12), tol=1e-9) is not None
    assert find(singular, (0.5j, -0.5j), tol=1e-12) is not None


def test_six_site_sectors_match_tables(solved):
    ell1 = [s for s in solved(6, 1) if s.classification == bs.REGULAR]
    assert len(ell1) == 5
    for lam in N6_ELL1:
        assert find(ell1, (lam,)) is not None

    ell2 = [s for s in solved(6, 2) if s.classification == bs.REGULAR]
    assert len(ell2) == 8
    for roots in N6_ELL2:
        assert find(ell2, roots) is not None, roots
    assert find(solved(6, 2), (0.5j, -0.5j), tol=1e-12) is not None

    ell3 = [s for s in solved(6, 3) if s.classification == bs.REGULAR]
    assert len(ell3) == 4
    for roots in N6_ELL3:
        assert find(ell3, roots) is not None, roots
    assert find(solved(6, 3), (0.5j, 0.0, -0.5j), tol=1e-12) is not None


def test_solved_sectors_are_conjugation_closed(solved):
    for n, ell in ((4, 2), (6, 2), (6, 3), (8, 3)):
        for s in solved(n, ell):
            conj = [z.conjugate() for z in s.roots]
            assert multiset_eq(s.roots, conj, 1e-7), s


def test_roots_exactly_conjugation_closed(solved):
    # every set up to n = 10 has a real Lambda, so its Q is solved in real
    # arithmetic: real roots carry imaginary part exactly 0, and complex
    # roots come in exact conjugate pairs
    for n in range(2, 11):
        for ell in range(1, n // 2 + 1):
            for s in solved(n, ell):
                assert multiset_eq(s.roots, [z.conjugate() for z in s.roots], 0.0), s
                assert not any(0.0 < abs(z.imag) < 1e-9 for z in s.roots), s


@pytest.mark.parametrize("n", range(3, 13))
def test_split_point_separates_every_lambda(n):
    # one state per t(u*) eigenvector relies on t(u*) having simple
    # spectrum on each highest-weight sector; with a repeated eigenvalue
    # the eigenvectors would mix and both states fail the TQ check
    for ell in range(1, n // 2 + 1):
        lam_coeffs, _ = abba.transfer_eigenpolynomials(n, ell, hilbert.highest_weight_blocks(n, ell))
        w = lam_coeffs @ abba._SPLIT_POINT ** np.arange(n + 1)
        gaps = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(len(w), np.inf))
        assert gaps.min() > 1e-6 * np.abs(w).max(), (ell, gaps.min())


def test_no_duplicate_solutions_as_multisets(solved):
    for n, ell in ((6, 2), (6, 3), (8, 2), (8, 4), (10, 5)):
        sols = [s.roots for s in solved(n, ell)]
        for i, a in enumerate(sols):
            for b in sols[i + 1 :]:
                assert not multiset_eq(a, b, 1e-7)


def test_converged_residuals_within_tolerance(solved):
    for n, ell in ((4, 2), (6, 3), (8, 4)):
        for s in solved(n, ell):
            assert s.residual <= bs.TQ_TOL


def test_reported_root_sets_pass_float64_or_50_digit_newton(solved):
    # an independent re-proof of every reported set: either the float64
    # Bethe residual is already tiny, or 50-digit Newton started from the
    # reported roots converges without moving them (narrow strings,
    # whose float64 residual floors at eps / deviation)
    by_newton = 0
    for n in range(4, 11):
        for ell in range(1, n // 2 + 1):
            for s in solved(n, ell):
                if bs.bae_residual(s.roots, n) <= 1e-11:
                    continue
                others = bs.singular_partners(s.roots)
                reduced = others is not None
                start = others if reduced else s.roots
                polished, res, ok = mp_newton._mp_polish(start, n, reduced)
                assert ok, (s, res)
                assert max(abs(a - b) for a, b in zip(polished, start)) <= 1e-10, s
                by_newton += 1
    assert by_newton  # the n = 10 narrow strings need the 50-digit step


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_tq_roots_match_per_state_reference(n):
    for ell in range(1, n // 2 + 1):
        lam_coeffs, _ = abba.transfer_eigenpolynomials(n, ell, hilbert.highest_weight_blocks(n, ell))
        roots, residuals = bs._tq_roots(lam_coeffs, n, ell)
        assert roots.shape == (len(lam_coeffs), ell)
        assert residuals.shape == (len(lam_coeffs),)
        for coeffs, got, residual in zip(lam_coeffs, roots, residuals):
            ref, ref_residual = tq_reference.tq_roots(coeffs, n, ell)
            assert multiset_eq(got, ref, 1e-12), (n, ell, got, ref)
            assert residual <= bs.TQ_TOL and ref_residual <= bs.TQ_TOL, (residual, ref_residual)


def _perturbed(lam_coeffs, rel, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=lam_coeffs.shape) + 1j * rng.normal(size=lam_coeffs.shape)
    return lam_coeffs * (1.0 + rel * noise)


@pytest.mark.parametrize("n,ell", [(6, 2), (6, 3), (8, 3)])
def test_tq_check_drops_perturbed_eigenvalues(n, ell, monkeypatch):
    lam_coeffs, states = abba.transfer_eigenpolynomials(n, ell, hilbert.highest_weight_blocks(n, ell))
    noisy = _perturbed(lam_coeffs, 1e-6, seed=(n, ell))
    for residual in bs._tq_roots(lam_coeffs, n, ell)[1]:
        assert residual <= bs.TQ_TOL
    for residual in bs._tq_roots(noisy, n, ell)[1]:
        assert residual > 1e3 * bs.TQ_TOL
    # the eigenvectors are untouched, so for some states the energy of
    # the shifted roots still passes; only the TQ check drops those
    monkeypatch.setattr(abba, "transfer_eigenpolynomials", lambda *_: (noisy, states))
    assert bs.solve_sector(n, ell) == []


@pytest.mark.parametrize("n,ell", [(6, 2), (8, 3), (8, 4)])
def test_energy_check_drops_swapped_eigenvectors(n, ell, solved, monkeypatch):
    from bethe_lab import hilbert

    full = solved(n, ell)  # before the patch: the fixture solves on first use
    kernels = hilbert.highest_weight_blocks(n, ell)
    lam_coeffs, blocks = abba.transfer_eigenpolynomials(n, ell, kernels)
    h = hilbert.sector_hamiltonian(n, ell)
    energies = []
    for q, x in enumerate(blocks):
        states = dense_ops.momentum_states(n, ell, q, kernels[q] @ x)
        energies.append((states.conj() * (h @ states)).sum(axis=0).real)
    # two eigenvectors of one momentum block with distinct energies
    q, i, j = next(
        (q, i, j)
        for q, e in enumerate(energies)
        for i, j in itertools.combinations(range(len(e)), 2)
        if abs(e[i] - e[j]) > 1e-3
    )
    swapped = list(blocks)
    swapped[q] = blocks[q].copy()
    swapped[q][:, [i, j]] = blocks[q][:, [j, i]]
    monkeypatch.setattr(abba, "transfer_eigenpolynomials", lambda *_: (lam_coeffs, swapped))
    kept = bs.solve_sector(n, ell)
    start = sum(x.shape[1] for x in blocks[:q])  # first row of block q in lam_coeffs
    dropped = bs._tq_roots(lam_coeffs[[start + i, start + j]], n, ell)[0]
    assert len(kept) == len(full) - 2
    for s in full:
        gone = any(multiset_eq(s.roots, roots, 1e-6) for roots in dropped)
        assert (s in kept) != gone, s


def test_energy_is_certified_inside_momentum_blocks(monkeypatch):
    # H acts only on the 80 orbit representatives of the (12, 6) sector,
    # never on the 132 highest-weight states in sector coordinates
    from bethe_lab import hilbert

    widths = []
    apply_hamiltonian = hilbert.apply_hamiltonian

    def spy(n, ell, psi):
        widths.append(psi.shape[1] if psi.ndim == 2 else 1)
        return apply_hamiltonian(n, ell, psi)

    monkeypatch.setattr(hilbert, "apply_hamiltonian", spy)
    bs.solve_sector(12, 6)
    assert widths and max(widths) <= len(hilbert.translation_orbits(12, 6)[1]) == 80, widths


def test_count_identity_small_chains(solved):
    expected = {(4, 1): 3, (4, 2): 2, (6, 1): 5, (6, 2): 9, (6, 3): 5}
    for (n, ell), count in expected.items():
        sols = solved(n, ell)
        good = [
            s
            for s in sols
            if s.classification in (bs.REGULAR, bs.PHYSICAL_SINGULAR)
        ]
        assert len(good) == count == rigged.rc_count(n, ell)


def test_solver_returns_no_coincident_root_artefacts(solved):
    sectors = [(n, ell) for n in (4, 6, 8) for ell in range(n // 2 + 1)] + [(10, 5)]
    for n, ell in sectors:
        for s in solved(n, ell):
            assert s.classification != bs.STRANGE, s
            for a, b in itertools.combinations(s.roots, 2):
                assert abs(a - b) >= 1e-4, s
            bs.bae_residual(s.roots, n)  # raises StrangeRootsError on coincident roots


def test_solve_sector_rejects_oversized_ell():
    with pytest.raises(ValueError):
        bs.solve_sector(4, 3)


def test_multiset_eq_handles_conjugate_ordering():
    a = (0.5 + 0.3j, 0.5 - 0.3j)
    b = (0.5 - 0.3j, 0.5 + 0.3j)
    assert multiset_eq(a, b, 1e-12)
    assert not multiset_eq(a, (0.5 + 0.3j, 0.4 - 0.3j), 1e-6)


def test_multiset_eq_backtracks_over_repeated_roots():
    # the first in-tolerance partner of 8e-4 is the first 0.0, but only
    # 1.5e-3 can take 8e-4, so the match must move it there
    tol = 1e-3
    assert multiset_eq((8e-4, 0.0, 0.0), (0.0, 0.0, 1.5e-3), tol)
    assert multiset_eq((0.0, 0.0, 1.5e-3), (8e-4, 0.0, 0.0), tol)
    assert not multiset_eq((0.0, 0.0, 0.0), (0.0, 0.0, 1.5e-3), tol)
    # a set with repeated roots matches itself in any order, not with
    # one root swapped
    repeated = (0.3 + 0.5j, 0.3 + 0.5j, 0.3 - 0.5j, 0.3 - 0.5j)
    assert multiset_eq(repeated, (0.3 - 0.5j, 0.3 + 0.5j) * 2, 1e-12)
    assert not multiset_eq(repeated, (0.3 + 0.5j,) * 3 + (0.3 - 0.5j,), 1e-3)


def test_multiset_eq_edge_cases():
    assert multiset_eq((), (), 1e-7)
    assert not multiset_eq((), (0.0,), 1e-7)
    assert not multiset_eq((0.1, 0.2), (0.1, 0.2, 0.3), 1e-7)
    assert not multiset_eq((0.1, 0.2, 0.3), (0.1, 0.2), 1e-7)
    # exact tolerance boundaries: |x - y| <= tol is inclusive
    assert multiset_eq((0.5,), (0.75,), 0.25)
    assert not multiset_eq((0.5,), (0.75,), np.nextafter(0.25, 0.0))
    assert multiset_eq((0j, 10.0), (10.0, 3 + 4j), 5.0)
    assert not multiset_eq((0j, 10.0), (10.0, 3 + 4j), np.nextafter(5.0, 0.0))


def _min_over_permutations(a, b):
    return min(max(abs(x - y) for x, y in zip(a, p)) for p in itertools.permutations(b))


def test_multiset_eq_matches_min_over_permutations():
    rng = np.random.default_rng(20261017)
    for _ in range(600):
        ell = int(rng.integers(1, 6))
        pool = rng.normal(size=3) + 1j * rng.normal(size=3)
        # draw from a small pool so that repeated roots are common
        a = [complex(pool[k]) for k in rng.integers(3, size=ell)]
        b = [a[k] + complex(*rng.normal(scale=1e-3, size=2)) for k in rng.permutation(ell)]
        best = _min_over_permutations(a, b)
        for tol in (best, np.nextafter(best, 0.0), 0.5 * best, 2.0 * best):
            assert multiset_eq(a, b, tol) == (best <= tol), (a, b, tol)


# ---------------------------------------------------------------------------
# physicality criterion vs regularized-vector convergence
# ---------------------------------------------------------------------------


def test_physicality_criterion_matches_vector_convergence(solved, nonphysical_singular):
    checked = 0
    for n in (4, 6, 8, 10):
        solved_sets = [s for ell in range(2, n // 2 + 1) for s in solved(n, ell)]
        # the solver returns the physical sets; the non-physical ones are stored
        for s in solved_sets + nonphysical_singular.get(n, []):
            if s.classification not in (
                bs.PHYSICAL_SINGULAR,
                bs.NONPHYSICAL_SINGULAR,
            ):
                continue
            c1, _ = bs.nw_constants(s)
            sweep = abba.regularization_sweep(s, c1)
            expected = s.classification == bs.PHYSICAL_SINGULAR
            assert sweep.converged == expected, (s, sweep.residuals)
            checked += 1
    assert checked >= 30  # 18 physical sets up to n=10, 12 stored non-physical ones
