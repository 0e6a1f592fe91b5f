import math

import numpy as np
import pytest

from bethe_lab import abba, hilbert
from bethe_lab.baesolver import NONPHYSICAL_SINGULAR, PHYSICAL_SINGULAR, RootSet, nw_constants


def _random_lams(count, seed, box=1.0):
    rng = np.random.default_rng(seed)
    return [
        complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# local operators and the R-matrix
# ---------------------------------------------------------------------------


def test_l_operator_at_zero_rapidity():
    blocks = abba.l_operator(1, 0.0, 1)
    s1, s2, s3 = (hilbert.PAULI[a] for a in (1, 2, 3))
    assert np.allclose(blocks[0][0], 0.5j * s3)
    assert np.allclose(blocks[0][1], 0.5j * (s1 - 1j * s2))
    assert np.allclose(blocks[1][0], 0.5j * (s1 + 1j * s2))
    assert np.allclose(blocks[1][1], -0.5j * s3)


def test_l_operator_auxiliary_trace():
    # the sigma^3 parts cancel between the diagonal blocks
    for lam in _random_lams(3, seed=11):
        blocks = abba.l_operator(2, lam, 3)
        assert np.allclose(blocks[0][0] + blocks[1][1], 2 * lam * np.eye(8))


def test_r_matrix_identity_at_zero():
    assert np.allclose(abba.r_matrix(0.0), np.eye(4))


def test_r_matrix_fixes_symmetric_vector():
    e11 = np.zeros(4)
    e11[0] = 1.0
    for lam in _random_lams(3, seed=12):
        assert np.allclose(abba.r_matrix(lam) @ e11, e11)


def test_r_matrix_unitarity_style_product():
    r = abba.r_matrix(0.7) @ abba.r_matrix(-0.7)
    assert np.abs(r - r[0, 0] * np.eye(4)).max() < 1e-12


def test_r_matrix_pole():
    with pytest.raises(abba.PoleError):
        abba.r_matrix(-1j)


def _embed_l(lam, aux_slot):
    """L acting on aux_slot (1 or 2) of aux (x) aux (x) C^2."""
    blocks = abba.l_operator(1, lam, 1)
    out = np.zeros((8, 8), dtype=complex)
    for al in range(2):
        for be in range(2):
            unit = np.zeros((2, 2))
            unit[al, be] = 1.0
            if aux_slot == 1:
                out += np.kron(np.kron(unit, np.eye(2)), blocks[al][be])
            else:
                out += np.kron(np.kron(np.eye(2), unit), blocks[al][be])
    return out


def test_yang_baxter_relation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r12 = np.kron(abba.r_matrix(lam - mu), np.eye(2))
        lhs = r12 @ _embed_l(lam, 1) @ _embed_l(mu, 2)
        rhs = _embed_l(mu, 1) @ _embed_l(lam, 2) @ r12
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# monodromy blocks
# ---------------------------------------------------------------------------


def test_monodromy_matches_explicit_block_product():
    n = 3
    lam = 0.3 - 0.7j
    ls = [abba.l_operator(k, lam, n) for k in range(1, n + 1)]

    def block_mul(x, y):
        return [
            [x[0][0] @ y[0][0] + x[0][1] @ y[1][0], x[0][0] @ y[0][1] + x[0][1] @ y[1][1]],
            [x[1][0] @ y[0][0] + x[1][1] @ y[1][0], x[1][0] @ y[0][1] + x[1][1] @ y[1][1]],
        ]

    explicit = ls[-1]
    for l_op in reversed(ls[:-1]):
        explicit = block_mul(explicit, l_op)
    blocks = abba.monodromy(lam, n)
    assert np.allclose(explicit[0][0], blocks.a)
    assert np.allclose(explicit[0][1], blocks.b)
    assert np.allclose(explicit[1][0], blocks.c)
    assert np.allclose(explicit[1][1], blocks.d)


def test_vacuum_eigenactions():
    rng = np.random.default_rng(14)
    for n in (1, 3, 6):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        vac = hilbert.vacuum_state(n)
        a, b, c, d = abba.apply_monodromy(lam, n, vac)
        assert np.allclose(a, (lam + 0.5j) ** n * vac, atol=1e-12)
        assert np.allclose(d, (lam - 0.5j) ** n * vac, atol=1e-12)
        assert np.allclose(c, 0.0, atol=1e-12)
        assert abs(np.vdot(vac, b)) < 1e-12  # B creates one magnon


def test_b_operators_commute():
    rng = np.random.default_rng(15)
    for n in (3, 5, 8):
        lam, mu = _random_lams(2, seed=int(rng.integers(1 << 30)))
        b1 = abba.monodromy(lam, n).b
        b2 = abba.monodromy(mu, n).b
        comm = b1 @ b2 - b2 @ b1
        scale = np.abs(b1).max() * np.abs(b2).max()
        assert np.abs(comm).max() <= 1e-10 * scale


def test_transfer_matrices_commute():
    rng = np.random.default_rng(16)
    for n in (3, 5, 8):
        lam, mu = _random_lams(2, seed=int(rng.integers(1 << 30)))
        t1 = abba.transfer_matrix(lam, n)
        t2 = abba.transfer_matrix(mu, n)
        comm = t1 @ t2 - t2 @ t1
        scale = np.abs(t1).max() * np.abs(t2).max()
        assert np.abs(comm).max() <= 1e-10 * scale


def test_hamiltonian_reconstruction_from_transfer_matrix():
    h_step = 1e-5
    for n in (2, 3, 4, 5, 6):
        tp = abba.transfer_matrix(0.5j + h_step, n)
        tm = abba.transfer_matrix(0.5j - h_step, n)
        t0 = abba.transfer_matrix(0.5j, n)
        deriv = (tp - tm) / (2 * h_step)
        recon = 0.5j * deriv @ np.linalg.inv(t0) - (n / 2) * np.eye(1 << n)
        assert np.abs(recon - hilbert.hamiltonian(n)).max() < 1e-6


# ---------------------------------------------------------------------------
# Bethe vectors
# ---------------------------------------------------------------------------


def test_bethe_vector_empty_product_is_vacuum():
    assert np.allclose(abba.bethe_vector(RootSet(4, ())), hilbert.vacuum_state(4))


def test_four_site_single_magnon_row():
    psi = abba.bethe_vector(RootSet(4, (0.5,)))
    h = hilbert.hamiltonian(4)
    assert np.linalg.norm(h @ psi + psi) <= 1e-9 * np.linalg.norm(psi)


def test_four_site_two_magnon_row():
    roots = RootSet(4, (1 / math.sqrt(12), -1 / math.sqrt(12)))
    psi = abba.bethe_vector(roots)
    h = hilbert.hamiltonian(4)
    assert np.linalg.norm(h @ psi + 3 * psi) <= 1e-9 * np.linalg.norm(psi)


def test_bethe_vector_rejects_coinciding_roots():
    with pytest.raises(ValueError):
        abba.bethe_vector(RootSet(4, (0.3, 0.3)))


def test_bethe_vector_routes_singular_pair_to_regularization():
    with pytest.raises(abba.SingularRootError):
        abba.bethe_vector(RootSet(4, (0.5j, -0.5j)))


def test_bethe_vector_sector_placement():
    roots = RootSet(6, (0.582004, -0.094167))
    psi = abba.bethe_vector(roots)
    counts = np.array([int(b).bit_count() for b in range(64)])
    outside = np.abs(psi[counts != 2]).max()
    assert outside <= 1e-12 * np.abs(psi).max()


def test_bethe_vector_is_highest_weight():
    roots = RootSet(6, (0.5 * math.tan(math.pi / 3) ** -1,))  # cot(pi/3)/2
    psi = abba.bethe_vector(roots)
    raised = hilbert.raising_operator(6) @ psi
    assert np.linalg.norm(raised) <= 1e-8 * np.linalg.norm(psi)


def test_singular_pair_product_annihilates():
    for n in (2, 4, 6):
        b_up = abba.monodromy(0.5j, n).b
        b_dn = abba.monodromy(-0.5j, n).b
        prod = b_up @ b_dn
        scale = np.abs(b_up).max() * np.abs(b_dn).max()
        assert np.abs(prod).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# transfer eigenvalue and unwanted terms
# ---------------------------------------------------------------------------


def test_transfer_eigenvalue_empty_roots():
    for lam in _random_lams(4, seed=17):
        val = abba.transfer_eigenvalue(lam, (), 5)
        assert abs(val - ((lam + 0.5j) ** 5 + (lam - 0.5j) ** 5)) < 1e-12


def test_transfer_eigenvalue_at_half_i():
    # at i/2 only the first branch survives: i^n prod (L_j+i/2)/(L_j-i/2)
    roots = (0.37, -0.61, 0.12 + 0.83j, 0.12 - 0.83j)
    n = 6
    expected = 1j**n
    for z in roots:
        expected *= (z + 0.5j) / (z - 0.5j)
    assert abs(abba.transfer_eigenvalue(0.5j, roots, n) - expected) < 1e-12


def test_transfer_eigenvalue_pole_on_root():
    with pytest.raises(abba.PoleError):
        abba.transfer_eigenvalue(0.25, (0.25,), 4)


def test_transfer_eigenvalue_matches_operator_action():
    roots = RootSet(4, (1 / math.sqrt(12), -1 / math.sqrt(12)))
    psi = abba.bethe_vector(roots)
    for lam in _random_lams(5, seed=18):
        tau_psi = abba.transfer_apply(lam, 4, psi)
        val = abba.transfer_eigenvalue(lam, roots)
        assert np.linalg.norm(tau_psi - val * psi) <= 1e-9 * abs(val) * np.linalg.norm(psi)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_transfer_eigenpolynomials_match_solved_states(ell, solved):
    n = 6
    coeffs = abba.transfer_eigenpolynomials(n, ell)
    states = solved(n, ell)
    assert coeffs.shape == (len(states), n + 1)
    lams = _random_lams(4, seed=20 + ell)
    from_poly = np.array([[np.polynomial.polynomial.polyval(u, c) for u in lams] for c in coeffs])
    from_roots = np.array([[abba.transfer_eigenvalue(u, s) for u in lams] for s in states])
    # each polynomial is the eigenvalue of exactly one solved state
    matched = []
    for row in from_poly:
        gaps = np.abs(from_roots - row).max(axis=1) / np.abs(row).max()
        matched.append(int(gaps.argmin()))
        assert gaps.min() <= 1e-9, gaps.min()
    assert sorted(matched) == list(range(len(states)))


def test_unwanted_terms_vanish_on_shell():
    roots = RootSet(4, (1 / math.sqrt(12), -1 / math.sqrt(12)))
    for lam in _random_lams(4, seed=19):
        for k in range(2):
            assert abs(abba.unwanted_term(lam, k, roots)) <= 1e-10


def test_unwanted_term_pole():
    with pytest.raises(abba.PoleError):
        abba.unwanted_term(0.5, 0, (0.5, -0.5), 4)


@pytest.mark.parametrize("n,scheme,k", [(4, "c1", 0), (4, "c2", 1), (6, "c1", 0), (6, "c2", 1)])
def test_unwanted_term_epsilon_scaling(n, scheme, k):
    # with the matching constant, the k-th unwanted coefficient scales as
    # eps^(n+1)/(lam - lam_k); the prefactor is stable across the ladder
    rs = RootSet(n, (0.5j, -0.5j))
    c1, c2 = nw_constants(rs)
    c = c1 if scheme == "c1" else c2
    lam = 0.37 - 0.22j
    ratios = []
    for eps in (1e-2, 5e-3):
        pr = abba.perturbed_singular_roots(
            (), n, abba.RegularizationParams(eps, c, scheme)
        )
        coeff = abba.unwanted_term(lam, k, pr, n)
        ratios.append(abs(coeff * (lam - pr[k]) / eps ** (n + 1)))
    assert abs(ratios[0] - ratios[1]) <= 0.1 * ratios[0]


# ---------------------------------------------------------------------------
# regularized singular vectors
# ---------------------------------------------------------------------------


def test_regularization_params_validation():
    with pytest.raises(ValueError):
        abba.RegularizationParams(0.5, 0j)
    with pytest.raises(ValueError):
        abba.RegularizationParams(1e-3, complex("inf"))


def test_four_site_regularized_vector_small_epsilon():
    rs = RootSet(4, (0.5j, -0.5j))
    c1, _ = nw_constants(rs)
    psi = abba.regularized_nw_vector(rs, abba.RegularizationParams(1e-3, c1))
    h = hilbert.hamiltonian(4)
    res = np.linalg.norm(h @ psi + psi) / np.linalg.norm(psi)
    assert res <= 1e-2
    # and the residual keeps shrinking with epsilon
    psi2 = abba.regularized_nw_vector(rs, abba.RegularizationParams(5e-4, c1))
    res2 = np.linalg.norm(h @ psi2 + psi2) / np.linalg.norm(psi2)
    assert res2 < res


def test_four_site_sweep_converges():
    rs = RootSet(4, (0.5j, -0.5j))
    c1, _ = nw_constants(rs)
    sweep = abba.regularization_sweep(rs, c1, energy=-1.0)
    assert sweep.converged
    assert all(b < a for a, b in zip(sweep.residuals, sweep.residuals[1:]))
    assert sweep.limit_residual <= 1e-3


def test_four_site_naive_scheme_fails():
    rs = RootSet(4, (0.5j, -0.5j))
    sweep = abba.regularization_sweep(rs, 0j, scheme=abba.NAIVE_SCHEME, energy=-1.0)
    assert not sweep.converged
    assert sweep.limit_residual > 1e-2


def test_six_site_triple_regularized_vector():
    # eps^6 is below float64 resolution: a plain float64 product would
    # cancel to rounding noise, the exact eps-expansion does not
    rs = RootSet(6, (0.5j, 0.0, -0.5j))
    c1, c2 = nw_constants(rs)
    assert abs(c1 - c2) < 1e-12
    h = hilbert.hamiltonian(6)
    residuals = []
    for eps in (2e-3, 1e-3):
        psi = abba.regularized_nw_vector(rs, abba.RegularizationParams(eps, c1))
        residuals.append(np.linalg.norm(h @ psi + 3 * psi) / np.linalg.norm(psi))
    assert residuals[1] < residuals[0]
    assert residuals[1] <= 5e-3


def test_regularized_vector_rejects_regular_input():
    with pytest.raises(ValueError):
        abba.regularized_nw_vector(
            RootSet(4, (0.3, -0.3)), abba.RegularizationParams(1e-2, 0j)
        )


def test_series_matches_direct_float_product():
    # at eps = 1e-2, n = 4 the plain float64 product still keeps ~8 digits
    rs = RootSet(4, (0.5j, -0.5j))
    c1, _ = nw_constants(rs)
    params = abba.RegularizationParams(1e-2, c1)
    psi = hilbert.vacuum_state(4)
    for lam in reversed(abba.perturbed_singular_roots((), 4, params)):
        psi = abba.apply_monodromy(lam, 4, psi)[1]
    reference = psi / params.epsilon**4
    vec = abba.regularized_nw_vector(rs, params)
    assert np.abs(vec - reference).max() <= 1e-6 * np.abs(reference).max()


def test_nw_series_vanishes_below_eps_n(solved, nonphysical_singular):
    checked = 0
    for n in (6, 8):
        solved_sets = [s for ell in range(2, n // 2 + 1) for s in solved(n, ell)]
        # the solver returns the physical sets; the non-physical ones are stored
        for s in solved_sets + nonphysical_singular[n]:
            if s.classification not in (PHYSICAL_SINGULAR, NONPHYSICAL_SINGULAR):
                continue
            c1, _ = nw_constants(s)
            series = abba._nw_series(s, c1)
            assert series.shape == (1 << n, n * n + n + 1)
            limit = np.abs(series[:, n]).max()
            assert np.abs(series[:, :n]).max() <= 1e-10 * limit, s
            checked += 1
    assert checked >= 10
