import itertools
import math

import numpy as np
import pytest

from bethe_lab import abba, baesolver as bs

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
        if len(s.roots) == len(roots) and bs.multiset_eq(s.roots, roots, tol):
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
# Newton refinement
# ---------------------------------------------------------------------------


def test_newton_converges_to_a_table_row():
    result = bs.newton_refine([0.5, -0.1], 6)
    assert result.converged
    assert bs.multiset_eq(result.roots, (0.631084, -0.198071), 1e-5)


def test_newton_fixed_point_returns_immediately():
    exact = bs.newton_refine([SQ12, -SQ12], 4)
    assert exact.converged
    assert exact.iterations == 0


def test_newton_rejects_coinciding_start():
    with pytest.raises(bs.StrangeRootsError):
        bs.newton_refine([0.5, 0.5], 6)


def test_newton_divergence_reported_not_raised():
    result = bs.newton_refine([30.0, 40.0], 6)
    assert not result.converged
    assert result.message


# ---------------------------------------------------------------------------
# the residual system shared by float64 Newton and the mpmath polish
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
    f, jac = bs._jacobian(lam, n, reduced)
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
        f, jac = bs._jacobian(lam, n, reduced)
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
            assert bs.multiset_eq(s.roots, conj, 1e-7), s


def test_no_duplicate_solutions_as_multisets(solved):
    for n, ell in ((6, 2), (6, 3), (8, 2), (8, 4), (10, 5)):
        sols = [s.roots for s in solved(n, ell)]
        for i, a in enumerate(sols):
            for b in sols[i + 1 :]:
                assert not bs.multiset_eq(a, b, 1e-7)


def test_converged_residuals_within_tolerance(solved):
    for n, ell in ((4, 2), (6, 3), (8, 4)):
        for s in solved(n, ell):
            assert s.residual <= bs.NEWTON_TOL


def test_count_identity_small_chains(solved):
    expected = {(4, 1): 3, (4, 2): 2, (6, 1): 5, (6, 2): 9, (6, 3): 5}
    for (n, ell), count in expected.items():
        sols = solved(n, ell)
        good = [
            s
            for s in sols
            if s.classification in (bs.REGULAR, bs.PHYSICAL_SINGULAR)
        ]
        assert len(good) == count == bs.sector_target_count(n, ell)


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
    assert bs.multiset_eq(a, b, 1e-12)
    assert not bs.multiset_eq(a, (0.5 + 0.3j, 0.4 - 0.3j), 1e-6)


def test_multiset_eq_backtracks_over_repeated_roots():
    # the first in-tolerance partner of 8e-4 is the first 0.0, but only
    # 1.5e-3 can take 8e-4, so the match must move it there
    tol = 1e-3
    assert bs.multiset_eq((8e-4, 0.0, 0.0), (0.0, 0.0, 1.5e-3), tol)
    assert bs.multiset_eq((0.0, 0.0, 1.5e-3), (8e-4, 0.0, 0.0), tol)
    assert not bs.multiset_eq((0.0, 0.0, 0.0), (0.0, 0.0, 1.5e-3), tol)
    # a set with repeated roots matches itself in any order, not with
    # one root swapped
    repeated = (0.3 + 0.5j, 0.3 + 0.5j, 0.3 - 0.5j, 0.3 - 0.5j)
    assert bs.multiset_eq(repeated, (0.3 - 0.5j, 0.3 + 0.5j) * 2, 1e-12)
    assert not bs.multiset_eq(repeated, (0.3 + 0.5j,) * 3 + (0.3 - 0.5j,), 1e-3)


def test_multiset_eq_edge_cases():
    assert bs.multiset_eq((), (), 1e-7)
    assert not bs.multiset_eq((), (0.0,), 1e-7)
    assert not bs.multiset_eq((0.1, 0.2), (0.1, 0.2, 0.3), 1e-7)
    assert not bs.multiset_eq((0.1, 0.2, 0.3), (0.1, 0.2), 1e-7)
    # exact tolerance boundaries: |x - y| <= tol is inclusive
    assert bs.multiset_eq((0.5,), (0.75,), 0.25)
    assert not bs.multiset_eq((0.5,), (0.75,), np.nextafter(0.25, 0.0))
    assert bs.multiset_eq((0j, 10.0), (10.0, 3 + 4j), 5.0)
    assert not bs.multiset_eq((0j, 10.0), (10.0, 3 + 4j), np.nextafter(5.0, 0.0))


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
            assert bs.multiset_eq(a, b, tol) == (best <= tol), (a, b, tol)


# ---------------------------------------------------------------------------
# candidate dedup: the root-sum index against O(K^2) brute force
# ---------------------------------------------------------------------------


def _ref_dedup(cands, tol):
    kept = []
    for roots in cands:
        if not any(bs.multiset_eq(roots, prev, tol) for prev in kept):
            kept.append(roots)
    return kept


def _ref_first_match(kept, roots, tol):
    return next((k for k, prev in enumerate(kept) if bs.multiset_eq(roots, prev, tol)), None)


def _candidates(seed, tol, count=300, ell=4):
    """Near-duplicate-rich root-set lists for the dedup index test.

    Half the base sets are parity symmetric ({x, -x, iy, -iy}), so their
    root sums are all 0.  Variants of a base are exact copies, copies
    with every root moved 0.9 tol (inside) or one root moved 1.1 tol
    (outside), and chains that step every root 0.9 tol to the right, so
    that each link matches its predecessor but not the one before.
    """
    rng = np.random.default_rng(seed)
    bases = []
    for k in range(40):
        if k % 2:
            x, y = rng.uniform(0.1, 2.0, size=2)
            bases.append([x, -x, 1j * y, -1j * y])
        else:
            bases.append(list(rng.uniform(-2, 2, size=ell) + 1j * rng.uniform(-1, 1, size=ell)))
    chains = [0] * len(bases)
    cands = []
    for _ in range(count):
        b = int(rng.integers(len(bases)))
        roots = [complex(z) for z in bases[b]]
        kind = rng.integers(4)
        if kind == 1:
            roots = [z + 0.9 * tol * np.exp(2j * np.pi * rng.uniform()) for z in roots]
        elif kind == 2:
            roots[int(rng.integers(ell))] += 1.1 * tol * np.exp(2j * np.pi * rng.uniform())
        elif kind == 3:
            chains[b] += 1
            roots = [z + 0.9 * tol * chains[b] for z in roots]
        cands.append(bs.canonical_roots(rng.permutation(roots)))
    return cands


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tol", [1e-7, 1e-3])
def test_dedup_index_matches_brute_force(seed, tol):
    # the solver's distinctness guard: keep a set unless the index holds it
    cands = _candidates(seed, tol)
    index = bs._SumIndex(tol)
    matched_earlier = 0
    for roots in cands:
        k = index.first_match(roots)
        assert k == _ref_first_match(index.roots, roots, tol), roots
        if k is None:
            index.add(roots)
        elif k < len(index.roots) - 1:
            matched_earlier += 1
    assert index.roots == _ref_dedup(cands, tol)
    assert len(index.roots) < len(cands)
    assert matched_earlier  # matches are not only with the newest entry


# ---------------------------------------------------------------------------
# physicality criterion vs regularized-vector convergence
# ---------------------------------------------------------------------------


def test_physicality_criterion_matches_vector_convergence(solved, nonphysical_singular):
    checked = 0
    for n in (4, 6, 8):
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
    assert checked >= 10  # several singular solutions exist up to n=8
