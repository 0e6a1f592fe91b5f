import math

import numpy as np
import pytest

from bethe_lab import hilbert

import dense_ops


def test_pauli_site_single_site_sigma_z():
    assert np.allclose(dense_ops.pauli_site(3, 1, 1), np.diag([1.0, -1.0]))


def test_pauli_site_bit_flip_on_least_significant_site():
    # site 2 of a 2-site chain is the least significant bit: |00> <-> |01>
    sx = dense_ops.pauli_site(1, 2, 2)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 3] = expected[3, 2] = 1.0
    assert np.allclose(sx, expected)


def test_pauli_involution_random_sites():
    rng = np.random.default_rng(7)
    for _ in range(6):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        a = int(rng.integers(1, 4))
        s = dense_ops.pauli_site(a, k, n)
        assert np.allclose(s @ s, np.eye(1 << n))


def test_pauli_site_argument_errors():
    with pytest.raises(ValueError):
        dense_ops.pauli_site(4, 1, 2)
    with pytest.raises(ValueError):
        dense_ops.pauli_site(1, 3, 2)


def test_two_site_chain_spectrum():
    # two sites: singlet at -2J, triplet at 0 (hand diagonalization)
    w = np.linalg.eigvalsh(hilbert.hamiltonian(2))
    assert np.allclose(w, [-2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_four_site_chain_spectrum_multiplicities():
    w = np.linalg.eigvalsh(hilbert.hamiltonian(4))
    entries = hilbert.spectrum_with_multiplicities(np.sort(w))
    levels = [(round(e.energy, 9), e.multiplicity) for e in entries]
    assert levels == [(-3.0, 1), (-2.0, 3), (-1.0, 7), (0.0, 5)]


def test_hamiltonian_annihilates_vacuum():
    for n in (2, 3, 5):
        h = hilbert.hamiltonian(n)
        assert np.allclose(h @ dense_ops.vacuum_state(n), 0.0)


def test_hamiltonian_matches_pauli_sum_construction():
    # independent route: (J/4) sum_k (sum_a sigma^a_k sigma^a_{k+1} - 1)
    for n in (2, 3, 4, 5, 6):
        dim = 1 << n
        ref = np.zeros((dim, dim), dtype=complex)
        for k in range(1, n + 1):
            knext = k % n + 1
            for a in (1, 2, 3):
                ref += dense_ops.pauli_site(a, k, n) @ dense_ops.pauli_site(a, knext, n)
            ref -= np.eye(dim)
        ref /= 4.0
        assert np.abs(ref - hilbert.hamiltonian(n)).max() < 1e-14


def test_hamiltonian_requires_two_sites():
    with pytest.raises(ValueError):
        hilbert.hamiltonian(1)


def test_sector_basis_examples():
    assert list(hilbert.sector_basis(4, 0)) == [0]
    assert len(hilbert.sector_basis(4, 2)) == 6
    assert len(hilbert.sector_basis(6, 3)) == 20
    idx = hilbert.sector_basis(5, 2)
    assert all(int(b).bit_count() == 2 for b in idx)
    assert list(idx) == sorted(idx)


def test_eig_hermitian_diagonal_input():
    w, v = hilbert.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v.conj().T @ v), np.eye(3))


def test_eig_hermitian_empty_matrix():
    # a momentum block with no states is 0 x 0
    w, v = hilbert.eig_hermitian(np.zeros((0, 0)))
    assert w.shape == (0,)
    assert v.shape == (0, 0)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(hilbert.NonHermitianError):
        hilbert.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_six_site_sector_contains_minus_three_j():
    w = np.linalg.eigvalsh(hilbert.sector_hamiltonian(6, 3))
    assert np.min(np.abs(w - (-3.0))) < 1e-10


def test_six_site_full_spectrum_contains_golden_level():
    w, _ = hilbert.eig_hermitian(hilbert.hamiltonian(6))
    target = -(5.0 - np.sqrt(13.0)) / 2.0  # approx -0.6972
    assert np.min(np.abs(w - target)) < 1e-10


def test_spectrum_merge_exact_duplicates():
    entries = hilbert.spectrum_with_multiplicities([-1.0, 0.0, 0.0, 0.0])
    assert [(e.energy, e.multiplicity) for e in entries] == [(-1.0, 1), (0.0, 3)]


def test_spectrum_entry_equals_its_level_pair():
    assert hilbert.SpectrumEntry(-1.0, 3) == (-1.0, 3)


def test_exact_spectrum_merges_its_levels_once_through_merge_levels(monkeypatch):
    calls = []
    merge = hilbert.merge_levels

    def spy(*args, **kwargs):
        calls.append(args)
        return merge(*args, **kwargs)

    monkeypatch.setattr(hilbert, "merge_levels", spy)
    entries = hilbert.exact_spectrum(6)
    assert len(calls) == 1
    assert sum(m for _, m in entries) == 2**6


def test_spectrum_requires_sorted_input():
    with pytest.raises(ValueError):
        hilbert.spectrum_with_multiplicities([1.0, 0.0])


def test_spectrum_stores_zero_level_exactly():
    # eigensolver noise of either sign around E = 0 becomes +0.0
    for noise in ([-1e-16, 2e-16, 3e-16], [-3e-16, -1e-16, -2e-16]):
        entries = hilbert.spectrum_with_multiplicities([-1.0, *sorted(noise)])
        assert [(e.energy, e.multiplicity) for e in entries] == [(-1.0, 1), (0.0, 3)]
        assert math.copysign(1.0, entries[1].energy) == 1.0
    # a level further than the merge tolerance (1e-8 here) from 0 keeps its value
    entries = hilbert.spectrum_with_multiplicities([2e-8, 2e-8])
    assert entries[0].energy == 2e-8


def test_six_site_thirteen_levels():
    w = np.sort(np.linalg.eigvalsh(hilbert.hamiltonian(6)))
    entries = hilbert.spectrum_with_multiplicities(w)
    assert len(entries) == 13
    # multiplicities quoted from the top of the spectrum downwards
    assert [e.multiplicity for e in reversed(entries)] == [
        7, 10, 1, 6, 3, 3, 10, 7, 6, 6, 1, 3, 1,
    ]


def test_magnon_number_conservation():
    for n in (3, 5, 8):
        h = hilbert.hamiltonian(n)
        counts = np.array([int(b).bit_count() for b in range(1 << n)])
        mixing = h[counts[:, None] != counts[None, :]]
        assert np.abs(mixing).max() == 0.0


def test_sector_spectra_union_equals_full_spectrum():
    for n in (4, 7, 10):
        full = np.sort(np.linalg.eigvalsh(hilbert.hamiltonian(n)))
        sector = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(hilbert.sector_hamiltonian(n, ell)) for ell in range(n + 1)]
            )
        )
        assert np.abs(full - sector).max() < 1e-9


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_spectrum_matches_dense_reference(n):
    # independent route: one eigvalsh of the dense 2^n x 2^n Hamiltonian
    dense = hilbert.spectrum_with_multiplicities(
        np.sort(np.linalg.eigvalsh(hilbert.hamiltonian(n)))
    )
    sector = hilbert.exact_spectrum(n)
    assert len(sector) == len(dense)
    assert [e.multiplicity for e in sector] == [e.multiplicity for e in dense]
    assert max(abs(a.energy - b.energy) for a, b in zip(sector, dense)) <= 1e-9
    assert sum(e.multiplicity for e in sector) == 2**n


@pytest.mark.parametrize("n", range(2, 11))
def test_spin_flip_maps_sector_onto_its_mirror(n):
    # flipping every spin reverses the ascending sector basis, so the
    # (n, n - ell) block is the (n, ell) block read backwards
    for ell in range(n + 1):
        mirror = hilbert.sector_hamiltonian(n, ell)[::-1, ::-1]
        assert np.array_equal(hilbert.sector_hamiltonian(n, n - ell), mirror)


def test_translation_commutes_with_hamiltonian():
    for n in (3, 6, 8):
        h = hilbert.hamiltonian(n)
        t = dense_ops.translation_matrix(n)
        assert np.abs(t @ h - h @ t).max() == 0.0


def test_trace_identity():
    # every sigma.sigma bond term is traceless, so tr H = (J/4)(-n 2^n)
    for n in (2, 4, 6, 8):
        assert abs(np.trace(hilbert.hamiltonian(n)) - (-n * 2 ** (n - 2))) < 1e-9


def test_chain_length_cap(monkeypatch):
    with pytest.raises(ValueError):
        hilbert.hamiltonian(hilbert.max_chain_length() + 1)
    monkeypatch.setenv("BETHE_LAB_MAX_N", "4")
    assert hilbert.max_chain_length() == 4
    with pytest.raises(ValueError):
        hilbert.sector_basis(5, 0)


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_chain_length_cap_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("BETHE_LAB_MAX_N", raw)
    with pytest.raises(ValueError, match=f"BETHE_LAB_MAX_N.*'{raw}'"):
        hilbert.max_chain_length()


def test_chain_length_cap_honours_env(monkeypatch):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "16")
    assert hilbert.max_chain_length() == 16
    hilbert.sector_basis(16, 0)  # scans 2**16 indices; above the default cap of 14
    with pytest.raises(ValueError, match=r"\[1, 16\]"):
        hilbert.sector_basis(17, 0)


def test_sector_dimension_cap(monkeypatch):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "18")
    with pytest.raises(ValueError, match="exceeds cap"):
        hilbert.sector_hamiltonian(18, 9)  # C(18,9) = 48620 > 10000


@pytest.mark.parametrize("build", [hilbert.sector_hamiltonian, hilbert.highest_weight_blocks])
def test_sector_dimension_cap_names_n_and_ell_before_any_basis(monkeypatch, build):
    def no_basis(n, ell):
        raise AssertionError(f"sector_basis({n}, {ell}) built before the cap check")

    monkeypatch.setenv("BETHE_LAB_MAX_N", "16")
    monkeypatch.setattr(hilbert, "sector_basis", no_basis)
    message = r"^sector dimension 11440 \(n=16, ell=7\) exceeds cap 10000$"  # C(16, 7)
    with pytest.raises(ValueError, match=message):
        build(16, 7)


@pytest.mark.parametrize("n", range(2, 9))
def test_highest_weight_basis_is_ker_s_plus(n):
    s_plus = dense_ops.raising_operator(n)  # dense reference
    for ell in range(n // 2 + 1):
        basis = dense_ops.highest_weight_basis(n, ell)
        d = hilbert.binomial(n, ell) - hilbert.binomial(n, ell - 1)
        assert basis.shape == (hilbert.binomial(n, ell), d)
        assert np.abs(basis.conj().T @ basis - np.eye(d)).max() <= 1e-12
        full = np.zeros((1 << n, d))
        full[hilbert.sector_basis(n, ell)] = basis
        assert np.abs(s_plus @ full).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_momentum_states_are_translation_eigenvectors(n):
    # U moves the spin at site k to site k + 1; |r, q> carries the
    # eigenvalue e^(+2 pi i q / n) of U, and the states of all q
    # together are an orthonormal basis of the sector
    u = dense_ops.translation_matrix(n)
    for ell in range(n // 2 + 1):
        blocks = []
        for q in range(n):
            dim = len(hilbert.momentum_orbits(n, ell, q))
            full = dense_ops.embed(n, ell, dense_ops.momentum_states(n, ell, q, np.eye(dim)))
            assert np.abs(u @ full - np.exp(2j * np.pi * q / n) * full).max(initial=0.0) <= 1e-12
            blocks.append(full)
        full = np.concatenate(blocks, axis=1)
        assert full.shape[1] == hilbert.binomial(n, ell)
        assert np.abs(full.conj().T @ full - np.eye(full.shape[1])).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_hamiltonian_momentum_blocks_match_sector(n):
    rng = np.random.default_rng(n)
    for ell in range(n // 2 + 1):
        h = hilbert.sector_hamiltonian(n, ell)
        psi = rng.normal(size=(len(h), 3)) + 1j * rng.normal(size=(len(h), 3))
        assert np.abs(hilbert.apply_hamiltonian(n, ell, psi) - h @ psi).max() <= 1e-12
        reps = hilbert.orbit_representatives(n, ell)
        blocks = hilbert.momentum_blocks(hilbert.apply_hamiltonian(n, ell, reps), n, ell)
        for q, block in enumerate(blocks):
            states = dense_ops.momentum_states(n, ell, q, np.eye(len(block)))
            assert np.abs(block - states.conj().T @ h @ states).max(initial=0.0) <= 1e-12
        w = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_highest_weight_blocks_span_ker_s_plus(n):
    s_plus = dense_ops.raising_operator(n)
    for ell in range(n // 2 + 1):
        kernels = hilbert.highest_weight_blocks(n, ell)
        d = hilbert.binomial(n, ell) - hilbert.binomial(n, ell - 1)
        assert sum(w.shape[1] for w in kernels) == d
        states = np.concatenate(
            [dense_ops.momentum_states(n, ell, q, w) for q, w in enumerate(kernels)], axis=1
        )
        assert np.abs(states.conj().T @ states - np.eye(d)).max() <= 1e-12
        assert np.abs(s_plus @ dense_ops.embed(n, ell, states)).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_momentum_block_n_minus_q_is_conjugate_of_block_q(n):
    # S^+ and H are real, so their block n - q is the conjugate of block
    # q; ker S^+ is taken exactly so, with real bases on the self-conjugate
    # blocks q = 0 and n/2, and exact_spectrum counts block 0 < q < n/2 twice
    for ell in range(n // 2 + 1):
        kernels = hilbert.highest_weight_blocks(n, ell)
        blocks = hilbert.hamiltonian_blocks(n, ell)
        for q in range(n):
            assert np.array_equal(kernels[-q], kernels[q].conj()), (ell, q)
            assert np.abs(blocks[-q] - blocks[q].conj()).max(initial=0.0) <= 1e-12, (ell, q)
            if 2 * q % n == 0:  # q = 0 or n/2
                assert np.all(kernels[q].imag == 0), (ell, q)


def test_exact_spectrum_eigensolves_only_blocks_up_to_half(monkeypatch):
    # sectors ell <= n/2 and, in each, momentum blocks q <= n/2
    calls = []
    eig_hermitian = hilbert.eig_hermitian

    def counting(m):
        calls.append(len(m))
        return eig_hermitian(m)

    monkeypatch.setattr(hilbert, "eig_hermitian", counting)
    for n in range(2, 13):
        calls.clear()
        hilbert.exact_spectrum(n)
        assert len(calls) == (n // 2 + 1) ** 2, n


@pytest.mark.parametrize("n", range(2, 15))
def test_exact_spectrum_matches_full_block_reference(n):
    # the reference eigensolves every whole (ell, q) block and counts the
    # spin-flipped sectors; the package eigensolves only W_q^H H_q W_q
    # and counts each level for its SU(2) multiplet
    ref = dense_ops.full_block_spectrum(n)
    got = hilbert.exact_spectrum(n)
    assert [e.multiplicity for e in got] == [e.multiplicity for e in ref]
    assert max(abs(a.energy - b.energy) for a, b in zip(got, ref)) <= 1e-12
    assert [f"{e.energy:+.10f}" for e in got] == [f"{e.energy:+.10f}" for e in ref]


def test_exact_spectrum_eigensolves_only_highest_weight_blocks(monkeypatch):
    # every eigensolved matrix is d_q wide, the width of block q of ker S^+;
    # the whole blocks at ell = 7 are up to 246 wide
    n = 14
    widths = [
        w.shape[1]
        for ell in range(n // 2 + 1)
        for w in hilbert.highest_weight_blocks(n, ell)[: n // 2 + 1]
    ]
    shapes = []
    eig_hermitian = hilbert.eig_hermitian

    def spy(m):
        shapes.append(m.shape)
        return eig_hermitian(m)

    monkeypatch.setattr(hilbert, "eig_hermitian", spy)
    hilbert.exact_spectrum(n)
    assert shapes == [(d, d) for d in widths]
    assert 28 <= min(widths[-8:]) and max(widths[-8:]) <= 34  # ell = 7
    assert max(widths) < max(len(h) for h in hilbert.hamiltonian_blocks(n, 7)) == 246
