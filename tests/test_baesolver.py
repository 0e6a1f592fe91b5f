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
    result = bs.newton_refine([30.0, 40.0], 6, bs.SolverConfig(max_newton_iters=10))
    assert not result.converged
    assert result.message


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
    cfg = bs.SolverConfig()
    assert bs.classify(bs.RootSet(4, (0.5j, -0.5j)), cfg).classification == bs.PHYSICAL_SINGULAR
    assert (
        bs.classify(bs.RootSet(6, (0.5j, 0.0, -0.5j)), cfg).classification
        == bs.PHYSICAL_SINGULAR
    )
    assert bs.classify(bs.RootSet(4, (0.5,)), cfg).classification == bs.REGULAR
    assert bs.classify(bs.RootSet(6, (0.2, 0.2 + 5e-11)), cfg).classification == bs.STRANGE
    assert (
        bs.classify(bs.RootSet(6, (0.5j, -0.5j, 0.405233)), cfg).classification
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
            if s.classification == bs.STRANGE:
                continue
            conj = [z.conjugate() for z in s.roots]
            assert bs.multiset_eq(s.roots, conj, 1e-7), s


def test_no_duplicate_solutions_as_multisets(solved):
    for n, ell in ((6, 2), (6, 3), (8, 2)):
        sols = [s.roots for s in solved(n, ell)]
        for i, a in enumerate(sols):
            for b in sols[i + 1 :]:
                assert not bs.multiset_eq(a, b, 1e-7)


def test_converged_residuals_within_tolerance(solved):
    cfg = bs.SolverConfig()
    for n, ell in ((4, 2), (6, 3), (8, 4)):
        for s in solved(n, ell):
            if s.classification == bs.STRANGE:
                continue
            assert s.residual <= cfg.newton_tol


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


def test_solve_sector_rejects_oversized_ell():
    with pytest.raises(ValueError):
        bs.solve_sector(4, 3)


def test_multiset_eq_handles_conjugate_ordering():
    a = (0.5 + 0.3j, 0.5 - 0.3j)
    b = (0.5 - 0.3j, 0.5 + 0.3j)
    assert bs.multiset_eq(a, b, 1e-12)
    assert not bs.multiset_eq(a, (0.5 + 0.3j, 0.4 - 0.3j), 1e-6)


# ---------------------------------------------------------------------------
# physicality criterion vs regularized-vector convergence
# ---------------------------------------------------------------------------


def test_physicality_criterion_matches_vector_convergence(solved):
    checked = 0
    for n in (4, 6, 8):
        for ell in range(2, n // 2 + 1):
            for s in solved(n, ell):
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
