import math
import tracemalloc

import numpy as np
import pytest

from bethe_lab import abba, hilbert
from bethe_lab.baesolver import NONPHYSICAL_SINGULAR, PHYSICAL_SINGULAR, RootSet, nw_constants

import dense_ops


def _random_lams(count, seed, box=1.0):
    rng = np.random.default_rng(seed)
    return [
        complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# local operators and the R-matrix
# ---------------------------------------------------------------------------


def test_l_operator_at_zero_rapidity():
    blocks = dense_ops.l_operator(1, 0.0, 1)
    s1, s2, s3 = (dense_ops.PAULI[a] for a in (1, 2, 3))
    assert np.allclose(blocks[0][0], 0.5j * s3)
    assert np.allclose(blocks[0][1], 0.5j * (s1 - 1j * s2))
    assert np.allclose(blocks[1][0], 0.5j * (s1 + 1j * s2))
    assert np.allclose(blocks[1][1], -0.5j * s3)


def test_l_operator_auxiliary_trace():
    # the sigma^3 parts cancel between the diagonal blocks
    for lam in _random_lams(3, seed=11):
        blocks = dense_ops.l_operator(2, lam, 3)
        assert np.allclose(blocks[0][0] + blocks[1][1], 2 * lam * np.eye(8))


def test_r_matrix_identity_at_zero():
    assert np.allclose(dense_ops.r_matrix(0.0), np.eye(4))


def test_r_matrix_fixes_symmetric_vector():
    e11 = np.zeros(4)
    e11[0] = 1.0
    for lam in _random_lams(3, seed=12):
        assert np.allclose(dense_ops.r_matrix(lam) @ e11, e11)


def test_r_matrix_unitarity_style_product():
    r = dense_ops.r_matrix(0.7) @ dense_ops.r_matrix(-0.7)
    assert np.abs(r - r[0, 0] * np.eye(4)).max() < 1e-12


def test_r_matrix_pole():
    with pytest.raises(abba.PoleError):
        dense_ops.r_matrix(-1j)


def _embed_l(lam, aux_slot):
    """L acting on aux_slot (1 or 2) of aux (x) aux (x) C^2."""
    blocks = dense_ops.l_operator(1, lam, 1)
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
        r12 = np.kron(dense_ops.r_matrix(lam - mu), np.eye(2))
        lhs = r12 @ _embed_l(lam, 1) @ _embed_l(mu, 2)
        rhs = _embed_l(mu, 1) @ _embed_l(lam, 2) @ r12
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# monodromy blocks
# ---------------------------------------------------------------------------


def test_monodromy_matches_explicit_block_product():
    lam = 0.3 - 0.7j

    def block_mul(x, y):
        return [
            [x[0][0] @ y[0][0] + x[0][1] @ y[1][0], x[0][0] @ y[0][1] + x[0][1] @ y[1][1]],
            [x[1][0] @ y[0][0] + x[1][1] @ y[1][0], x[1][0] @ y[0][1] + x[1][1] @ y[1][1]],
        ]

    # every sector, the edges included: ell = 0 has an empty C block and
    # ell = n an empty B block
    for n in range(1, 6):
        ls = [dense_ops.l_operator(k, lam, n) for k in range(1, n + 1)]
        explicit = ls[-1]
        for l_op in reversed(ls[:-1]):
            explicit = block_mul(explicit, l_op)
        blocks = dense_ops.monodromy(lam, n)
        assert np.allclose(explicit[0][0], blocks.a)
        assert np.allclose(explicit[0][1], blocks.b)
        assert np.allclose(explicit[1][0], blocks.c)
        assert np.allclose(explicit[1][1], blocks.d)


def test_vacuum_eigenactions():
    rng = np.random.default_rng(14)
    # n = 14 is the default cap, one bit less than the column stack has
    for n in (1, 3, 6, 14):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        vac = dense_ops.vacuum_state(n)
        a, b, c, d = abba.apply_monodromy(lam, n, 0, np.ones(1))
        assert np.allclose(dense_ops.embed(n, 0, a), (lam + 0.5j) ** n * vac, atol=1e-12)
        assert np.allclose(dense_ops.embed(n, 0, d), (lam - 0.5j) ** n * vac, atol=1e-12)
        assert np.allclose(c, 0.0, atol=1e-12)
        assert c.shape == (0,)  # no sector below the vacuum
        assert abs(np.vdot(vac, dense_ops.embed(n, 1, b))) < 1e-12  # B creates one magnon


def test_apply_monodromy_rejects_bad_input():
    with pytest.raises(ValueError):
        abba.apply_monodromy(0.3, 4, 2, np.ones(5))  # C(4, 2) = 6
    with pytest.raises(ValueError):
        abba.apply_monodromy(0.3, 4, 2, np.ones(16))  # a full-space vector
    for ell in (-1, 5):
        with pytest.raises(ValueError):
            abba.apply_monodromy(0.3, 4, ell, np.ones(0))  # C(4, ell) = 0 rows
    with pytest.raises(ValueError, match=r"\(6,\)"):
        abba.apply_monodromy(np.array([0.1, 1.0]), 4, 2, np.ones(6))  # no eps axis


@pytest.mark.parametrize("n", [1, 3, 6])
def test_matrix_rapidity_matches_scalar_columns(n):
    # the constant polynomial [lam0] acts on each eps-coefficient column
    # alone, so every column must come out as the scalar recursion at
    # lam0 gives it
    m = 4
    rng = np.random.default_rng(40 + n)
    lam0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for ell in range(n + 1):
        dim = hilbert.binomial(n, ell)
        psi = rng.normal(size=(dim, m)) + 1j * rng.normal(size=(dim, m))
        blocks = abba.apply_monodromy(np.array([lam0]), n, ell, psi)
        for j in range(m):
            scalar = abba.apply_monodromy(lam0, n, ell, psi[:, j])
            for got, want in zip(blocks, scalar):
                # B at ell = n and C at ell = 0 are empty
                assert got.shape == (len(want), m)
                scale = max(1.0, np.abs(want).max(initial=0))
                assert np.abs(got[:, j] - want).max(initial=0) <= 1e-12 * scale


@pytest.mark.parametrize("n", [3, 6])
def test_polynomial_rapidity_matches_dense_toeplitz(n):
    # a rapidity of degree d widens the eps axis by d per site; the dense
    # Toeplitz recursion on that full width must give the same columns.
    # The random degree-2 rapidity has no special coefficient; i/2 + eps
    # + c eps^3 has a constant term that is exactly 0 once -i/2 is folded
    # in and a unit eps coefficient, which the kernel skips and adds unscaled
    w = 3
    rng = np.random.default_rng(70 + n)
    random = rng.normal(size=3) + 1j * rng.normal(size=3)
    for coeffs in (random, np.array([0.5j, 1.0, 0.0, 0.7 - 0.4j])):
        m = w + n * (len(coeffs) - 1)
        lam = dense_ops.toeplitz(coeffs, m)
        for ell in range(n + 1):
            dim = hilbert.binomial(n, ell)
            psi = rng.normal(size=(dim, w)) + 1j * rng.normal(size=(dim, w))
            padded = np.zeros((dim, m), dtype=complex)
            padded[:, :w] = psi
            a, b, c, d = abba.apply_monodromy(coeffs, n, ell, psi)
            want_a, want_c = dense_ops.toeplitz_column(lam, n, ell, padded, 0)
            want_b, want_d = dense_ops.toeplitz_column(lam, n, ell, padded, 1)
            for got, want in zip((a, b, c, d), (want_a, want_b, want_c, want_d)):
                assert got.shape == want.shape == (len(want), m)
                scale = max(1.0, np.abs(want).max(initial=0))
                assert np.abs(got - want).max(initial=0) <= 1e-12 * scale


@pytest.mark.parametrize("aux", [0, 1])
def test_column_holds_two_column_buffers(aux):
    # each site gathers into a fresh array and scales the old one in
    # place, so the recursion never holds more than two columns at once
    n, ell = 12, 6
    psi = hilbert.orbit_representatives(n, ell)
    abba._column(0.3 + 0.2j, n, ell, psi, aux)  # fill the swap cache
    column = hilbert.binomial(n + 1, ell + aux) * psi.shape[1] * 16
    tracemalloc.start()
    try:
        abba._column(0.3 + 0.2j, n, ell, psi, aux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.shape[1] == 80
    assert peak <= 2.5 * column, peak / column


@pytest.mark.parametrize("n, ell", [(8, 3), (10, 4), (12, 5)])
def test_polynomial_column_holds_three_column_buffers(n, ell):
    # the Nepomechie-Wang L1 = i/2 + eps + c eps^n on an (n + 1)-wide
    # eps-series: each site holds the old column, the new one and one
    # scaled copy of the old for c, so the peak stays within three final
    # columns of n^2 + n + 1 eps-coefficients
    lam = np.zeros(n + 1, dtype=complex)
    lam[:2] = 0.5j, 1.0
    lam[n] = 0.7 - 0.4j
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(hilbert.binomial(n, ell), n + 1)) + 0j
    abba._column(lam, n, ell, psi, 1)  # fill the swap cache
    column = hilbert.binomial(n + 1, ell + 1) * (n * n + n + 1) * 16
    tracemalloc.start()
    try:
        abba._column(lam, n, ell, psi, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * column, peak / column


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bethe_vector_matches_dense_b_product(n):
    # off-shell rapidities: the B-only column product must still equal
    # B(L_1) ... B(L_ell) |0> from the dense blocks
    lams = _random_lams(3 if n >= 6 else 2, seed=50 + n)
    psi = dense_ops.vacuum_state(n).astype(complex)
    for lam in lams:
        psi = dense_ops.monodromy(lam, n).b @ psi
    got = dense_ops.embed(n, len(lams), dense_ops.bethe_vector(RootSet(n, tuple(lams))))
    assert np.abs(got - psi).max() <= 1e-12 * np.abs(psi).max()


def test_b_operators_commute():
    rng = np.random.default_rng(15)
    for n in (3, 5, 8):
        lam, mu = _random_lams(2, seed=int(rng.integers(1 << 30)))
        b1 = dense_ops.monodromy(lam, n).b
        b2 = dense_ops.monodromy(mu, n).b
        comm = b1 @ b2 - b2 @ b1
        scale = np.abs(b1).max() * np.abs(b2).max()
        assert np.abs(comm).max() <= 1e-10 * scale


def test_transfer_matrices_commute():
    rng = np.random.default_rng(16)
    for n in (3, 5, 8):
        lam, mu = _random_lams(2, seed=int(rng.integers(1 << 30)))
        t1 = dense_ops.transfer_matrix(lam, n)
        t2 = dense_ops.transfer_matrix(mu, n)
        comm = t1 @ t2 - t2 @ t1
        scale = np.abs(t1).max() * np.abs(t2).max()
        assert np.abs(comm).max() <= 1e-10 * scale


def test_hamiltonian_reconstruction_from_transfer_matrix():
    h_step = 1e-5
    for n in (2, 3, 4, 5, 6):
        tp = dense_ops.transfer_matrix(0.5j + h_step, n)
        tm = dense_ops.transfer_matrix(0.5j - h_step, n)
        t0 = dense_ops.transfer_matrix(0.5j, n)
        deriv = (tp - tm) / (2 * h_step)
        recon = 0.5j * deriv @ np.linalg.inv(t0) - (n / 2) * np.eye(1 << n)
        assert np.abs(recon - hilbert.hamiltonian(n)).max() < 1e-6


# ---------------------------------------------------------------------------
# Bethe vectors
# ---------------------------------------------------------------------------


def test_bethe_vector_empty_product_is_vacuum():
    psi = dense_ops.embed(4, 0, dense_ops.bethe_vector(RootSet(4, ())))
    assert np.allclose(psi, dense_ops.vacuum_state(4))


def test_four_site_single_magnon_row():
    psi = dense_ops.embed(4, 1, dense_ops.bethe_vector(RootSet(4, (0.5,))))
    h = hilbert.hamiltonian(4)
    assert np.linalg.norm(h @ psi + psi) <= 1e-9 * np.linalg.norm(psi)


def test_four_site_two_magnon_row():
    roots = RootSet(4, (1 / math.sqrt(12), -1 / math.sqrt(12)))
    psi = dense_ops.embed(4, 2, dense_ops.bethe_vector(roots))
    h = hilbert.hamiltonian(4)
    assert np.linalg.norm(h @ psi + 3 * psi) <= 1e-9 * np.linalg.norm(psi)


def test_bethe_vector_rejects_coinciding_roots():
    with pytest.raises(ValueError):
        dense_ops.bethe_vector(RootSet(4, (0.3, 0.3)))


def test_bethe_vector_routes_singular_pair_to_regularization():
    with pytest.raises(dense_ops.SingularRootError):
        dense_ops.bethe_vector(RootSet(4, (0.5j, -0.5j)))


def test_bethe_vector_sector_placement():
    roots = RootSet(6, (0.582004, -0.094167))
    assert dense_ops.bethe_vector(roots).shape == (hilbert.binomial(6, 2),)
    psi = dense_ops.embed(6, 2, dense_ops.bethe_vector(roots))
    counts = np.array([int(b).bit_count() for b in range(64)])
    outside = np.abs(psi[counts != 2]).max()
    assert outside <= 1e-12 * np.abs(psi).max()


def test_bethe_vector_is_highest_weight():
    roots = RootSet(6, (0.5 * math.tan(math.pi / 3) ** -1,))  # cot(pi/3)/2
    psi = dense_ops.embed(6, 1, dense_ops.bethe_vector(roots))
    raised = dense_ops.raising_operator(6) @ psi
    assert np.linalg.norm(raised) <= 1e-8 * np.linalg.norm(psi)


def test_singular_pair_product_annihilates():
    for n in (2, 4, 6):
        b_up = dense_ops.monodromy(0.5j, n).b
        b_dn = dense_ops.monodromy(-0.5j, n).b
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
    psi = dense_ops.bethe_vector(roots)
    for lam in _random_lams(5, seed=18):
        a, _, _, d = abba.apply_monodromy(lam, 4, 2, psi)
        tau_psi = a + d
        val = abba.transfer_eigenvalue(lam, roots)
        assert np.linalg.norm(tau_psi - val * psi) <= 1e-9 * abs(val) * np.linalg.norm(psi)


def _sector_states(n, ell, kernels, blocks):
    """The W_q-coordinate states of ``transfer_eigenpolynomials``, in sector coordinates."""
    pairs = enumerate(zip(kernels, blocks))
    return np.concatenate([dense_ops.momentum_states(n, ell, q, w @ x) for q, (w, x) in pairs], axis=1)


@pytest.mark.parametrize("n", range(2, 11))
def test_transfer_eigenpolynomials_match_full_dft(n):
    # t(u) restricted to ker S^+ at all n + 1 roots of unity, transformed
    # here; the package runs the monodromy at only floor(m/4) + 1 of its
    # m = max(2, 2 floor((n - 1)/2)) nodes i w^j, fills the rest by the
    # adjoint and by conjugation, and adds the fixed
    # 2 u^n + (3n/4 - S(S + 1)) u^(n-2) back by hand
    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    for ell in range(n // 2 + 1):
        kernels = hilbert.highest_weight_blocks(n, ell)
        coeffs, states = abba.transfer_eigenpolynomials(n, ell, kernels)
        basis = dense_ops.highest_weight_basis(n, ell)
        at_nodes = []
        for u in nodes:
            a, _, _, d = abba.apply_monodromy(u, n, ell, basis)
            at_nodes.append(basis.T @ (a + d))
        full = np.fft.fft(np.array(at_nodes), axis=0) / (n + 1)
        eye = np.eye(basis.shape[1])
        spin = n / 2 - ell
        assert np.abs(full[n] - 2 * eye).max() <= 1e-12
        assert np.abs(full[n - 1]).max() <= 1e-12
        assert np.abs(full[n - 2] - (0.75 * n - spin * (spin + 1)) * eye).max() <= 1e-12
        x = basis.T @ _sector_states(n, ell, kernels, states)
        from_dft = np.array([((c @ x) * x.conj()).sum(axis=0) for c in full]).T
        assert np.abs(coeffs - from_dft).max() <= 1e-12 * max(1.0, np.abs(from_dft).max())


@pytest.mark.parametrize("n", range(2, 11))
def test_transfer_momentum_blocks_match_projection(n):
    # T_q(u) from the orbit representatives equals t(u) projected onto
    # the expanded momentum states
    rng = np.random.default_rng(30 + n)
    u = complex(rng.normal(), rng.normal())
    for ell in range(n // 2 + 1):
        a, _, _, d = abba.apply_monodromy(u, n, ell, hilbert.orbit_representatives(n, ell))
        for q, block in enumerate(hilbert.momentum_blocks(a + d, n, ell)):
            states = dense_ops.momentum_states(n, ell, q, np.eye(len(block)))
            a, _, _, d = abba.apply_monodromy(u, n, ell, states)
            ref = states.conj().T @ (a + d)
            assert np.abs(block - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0)), (ell, q)


@pytest.mark.parametrize("n", range(2, 11))
def test_monodromy_at_minus_conjugate_rapidity(n):
    # conj L_k(u) = -L_k(-conj u) for L_k = (u - i/2) + i P_k, so on the
    # real orbit representatives T(-conj u) = (-1)^n conj T(u), bit for bit
    for ell in range(n + 1):
        reps = hilbert.orbit_representatives(n, ell)
        for u in _random_lams(3, seed=40 + n):
            blocks = abba.apply_monodromy(u, n, ell, reps)
            mirrored = abba.apply_monodromy(-u.conjugate(), n, ell, reps)
            for x, y in zip(blocks, mirrored, strict=True):
                assert np.array_equal(y, (-1) ** n * x.conj()), (ell, u)


@pytest.mark.parametrize("n", range(2, 11))
def test_transfer_blocks_at_conjugate_rapidity_are_adjoints(n):
    # t(u) is Hermitian at real u, so t(conj u) = t(u)^H, and on the
    # orthonormal momentum states every block T_q(conj u) = T_q(u)^H
    for ell in range(n // 2 + 1):
        reps = hilbert.orbit_representatives(n, ell)
        for u in _random_lams(2, seed=60 + n):
            blocks = []
            for lam in (u, u.conjugate()):
                a, _, _, d = abba.apply_monodromy(lam, n, ell, reps)
                blocks.append(hilbert.momentum_blocks(a + d, n, ell))
            for q, (at_u, at_conj) in enumerate(zip(*blocks, strict=True)):
                scale = max(1.0, np.abs(at_u).max(initial=0.0))
                assert np.abs(at_conj - at_u.conj().T).max(initial=0.0) <= 1e-13 * scale, (ell, q, u)


@pytest.mark.parametrize("n", range(2, 11))
def test_transfer_eigenpolynomials_conjugate_blocks(n):
    # block q > n/2 is derived from block n - q: Lambda rows
    # (-1)^(n + k) conj(lambda_k) on the states conj(x)
    sign = (-1) ** (n + np.arange(n + 1))
    for ell in range(n // 2 + 1):
        coeffs, states = abba.transfer_eigenpolynomials(n, ell, hilbert.highest_weight_blocks(n, ell))
        rows = np.split(coeffs, np.cumsum([x.shape[1] for x in states])[:-1])
        for q in range(n // 2 + 1, n):
            assert np.array_equal(rows[q], sign * rows[n - q].conj()), (ell, q)
            assert np.array_equal(states[q], states[n - q].conj()), (ell, q)


def test_transfer_eigenpolynomials_run_half_the_nodes(monkeypatch):
    # floor(m/4) + 1 monodromy runs of the m = max(2, 2 floor((n - 1)/2))
    # nodes: 3, 3, 4 and 4 at n = 10, 12, 14 and 15
    calls = []
    apply_monodromy = abba.apply_monodromy

    def counting(lam, n, ell, psi):
        calls.append(lam)
        return apply_monodromy(lam, n, ell, psi)

    monkeypatch.setattr(abba, "apply_monodromy", counting)
    for n in range(2, 11):
        m = max(2, 2 * ((n - 1) // 2))
        for ell in range(1, n // 2 + 1):
            calls.clear()
            abba.transfer_eigenpolynomials(n, ell, hilbert.highest_weight_blocks(n, ell))
            assert len(calls) == m // 4 + 1, (n, ell)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_transfer_eigenpolynomials_match_solved_states(ell, solved):
    n = 6
    kernels = hilbert.highest_weight_blocks(n, ell)
    coeffs, blocks = abba.transfer_eigenpolynomials(n, ell, kernels)
    vecs = _sector_states(n, ell, kernels, blocks)
    states = solved(n, ell)
    assert coeffs.shape == (len(states), n + 1)
    assert vecs.shape == (hilbert.binomial(n, ell), len(states))
    # the columns are unit eigenvectors of H in sector coordinates
    h_vecs = hilbert.sector_hamiltonian(n, ell) @ vecs
    energies = (vecs.conj() * h_vecs).sum(axis=0)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
    assert np.abs(h_vecs - vecs * energies).max() <= 1e-9
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
            assert abs(dense_ops.unwanted_term(lam, k, roots)) <= 1e-10


def test_unwanted_term_pole():
    with pytest.raises(abba.PoleError):
        dense_ops.unwanted_term(0.5, 0, (0.5, -0.5), 4)


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
        pr = dense_ops.perturbed_singular_roots((), n, abba.RegularizationParams(eps, c))
        coeff = dense_ops.unwanted_term(lam, k, pr, n)
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
    psi = dense_ops.embed(4, 2, psi)
    h = hilbert.hamiltonian(4)
    res = np.linalg.norm(h @ psi + psi) / np.linalg.norm(psi)
    assert res <= 1e-2
    # and the residual keeps shrinking with epsilon
    psi2 = abba.regularized_nw_vector(rs, abba.RegularizationParams(5e-4, c1))
    psi2 = dense_ops.embed(4, 2, psi2)
    res2 = np.linalg.norm(h @ psi2 + psi2) / np.linalg.norm(psi2)
    assert res2 < res


def test_four_site_sweep_converges():
    rs = RootSet(4, (0.5j, -0.5j))
    c1, _ = nw_constants(rs)
    sweep = abba.regularization_sweep(rs, c1, energy=-1.0)
    assert sweep.converged
    assert all(b < a for a, b in zip(sweep.residuals, sweep.residuals[1:]))
    assert sweep.limit_residual <= 1e-3


def test_sweep_checks_every_rung_before_the_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("series built before the ladder was checked")

    monkeypatch.setattr(abba, "_nw_series", no_series)
    with pytest.raises(ValueError, match="epsilon"):
        abba.regularization_sweep(RootSet(4, (0.5j, -0.5j)), 0j, ladder=(1e-2, 0.5))


def test_sweep_gives_a_zero_vector_infinite_residuals(monkeypatch):
    monkeypatch.setattr(abba, "_nw_series", lambda rs, c: np.zeros((6, 21), dtype=complex))
    sweep = abba.regularization_sweep(RootSet(4, (0.5j, -0.5j)), 0j)
    assert sweep.residuals == (math.inf,) * 3
    assert sweep.limit_residual == math.inf and not sweep.converged


def test_four_site_naive_scheme_fails():
    rs = RootSet(4, (0.5j, -0.5j))
    sweep = abba.regularization_sweep(rs, 0j, energy=-1.0)
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
        psi = dense_ops.embed(6, 3, psi)
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
    psi = np.ones(1)  # |0>
    for ell, lam in enumerate(reversed(dense_ops.perturbed_singular_roots((), 4, params))):
        psi = abba.apply_monodromy(lam, 4, ell, psi)[1]
    reference = psi / params.epsilon**4
    vec = abba.regularized_nw_vector(rs, params)
    assert np.abs(vec - reference).max() <= 1e-6 * np.abs(reference).max()


def _singular_sets(solved, nonphysical_singular, ns):
    """Every singular set at the given n: the solver's physical ones and the stored rest."""
    for n in ns:
        sets = [s for ell in range(2, n // 2 + 1) for s in solved(n, ell)]
        for s in sets + nonphysical_singular.get(n, []):
            if s.classification in (PHYSICAL_SINGULAR, NONPHYSICAL_SINGULAR):
                yield s


def test_nw_series_vanishes_below_eps_n(solved, nonphysical_singular):
    checked = 0
    for s in _singular_sets(solved, nonphysical_singular, (6, 8)):
        n = s.n
        c1, _ = nw_constants(s)
        series = abba._nw_series(s, c1)
        assert series.shape == (hilbert.binomial(n, s.ell), n * n + n + 1)
        limit = np.abs(series[:, n]).max()
        assert np.abs(series[:, :n]).max() <= 1e-10 * limit, s
        checked += 1
    assert checked >= 10


def test_nw_series_matches_dense_toeplitz_reference(solved, nonphysical_singular):
    checked = 0
    for s in _singular_sets(solved, nonphysical_singular, (4, 6, 8, 10)):
        c1, _ = nw_constants(s)
        series = abba._nw_series(s, c1)
        reference = dense_ops.dense_nw_series(s, c1)
        assert series.shape == reference.shape
        assert np.abs(series - reference).max() <= 1e-13 * np.abs(reference).max(), s
        checked += 1
    assert checked >= 30  # 18 physical sets up to n=10, 12 stored non-physical ones


def test_sweep_residuals_match_dense_sector_hamiltonian(solved, nonphysical_singular):
    # the sweep applies H through its bond swaps; the reference multiplies
    # by the dense sector matrix, on the dense-Toeplitz series
    checked = 0
    for s in _singular_sets(solved, nonphysical_singular, (4, 6, 8)):
        c1, _ = nw_constants(s)
        sweep = abba.regularization_sweep(s, c1)
        residuals, limit = dense_ops.dense_sweep_residuals(s, c1)
        assert np.abs(np.subtract(sweep.residuals, residuals)).max() <= 1e-12, s
        assert abs(sweep.limit_residual - limit) <= 1e-12, s
        checked += 1
    assert checked >= 20  # 8 physical sets up to n=8, 12 stored non-physical ones
