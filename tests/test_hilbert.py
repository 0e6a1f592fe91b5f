import numpy as np
import pytest

from bethe_lab import hilbert


def test_pauli_site_single_site_sigma_z():
    assert np.allclose(hilbert.pauli_site(3, 1, 1), np.diag([1.0, -1.0]))


def test_pauli_site_bit_flip_on_least_significant_site():
    # site 2 of a 2-site chain is the least significant bit: |00> <-> |01>
    sx = hilbert.pauli_site(1, 2, 2)
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
        s = hilbert.pauli_site(a, k, n)
        assert np.allclose(s @ s, np.eye(1 << n))


def test_pauli_site_argument_errors():
    with pytest.raises(ValueError):
        hilbert.pauli_site(4, 1, 2)
    with pytest.raises(ValueError):
        hilbert.pauli_site(1, 3, 2)


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
        assert np.allclose(h @ hilbert.vacuum_state(n), 0.0)


def test_hamiltonian_matches_pauli_sum_construction():
    # independent route: (J/4) sum_k (sum_a sigma^a_k sigma^a_{k+1} - 1)
    for n in (2, 3, 4, 5, 6):
        dim = 1 << n
        ref = np.zeros((dim, dim), dtype=complex)
        for k in range(1, n + 1):
            knext = k % n + 1
            for a in (1, 2, 3):
                ref += hilbert.pauli_site(a, k, n) @ hilbert.pauli_site(a, knext, n)
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
    entries = hilbert.spectrum_with_multiplicities([-1.0, 0.0, 0.0, 0.0], merge_tol=1e-8)
    assert [(e.energy, e.multiplicity) for e in entries] == [(-1.0, 1), (0.0, 3)]


def test_spectrum_requires_sorted_input():
    with pytest.raises(ValueError):
        hilbert.spectrum_with_multiplicities([1.0, 0.0])


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


def test_translation_commutes_with_hamiltonian():
    for n in (3, 6, 8):
        h = hilbert.hamiltonian(n)
        t = hilbert.translation_matrix(n)
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
        hilbert.vacuum_state(5)


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_chain_length_cap_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("BETHE_LAB_MAX_N", raw)
    with pytest.raises(ValueError, match=f"BETHE_LAB_MAX_N.*'{raw}'"):
        hilbert.max_chain_length()


def test_chain_length_cap_honours_env(monkeypatch):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "16")
    assert hilbert.max_chain_length() == 16
    hilbert.vacuum_state(16)  # 2**16 entries; above the default cap of 14
    with pytest.raises(ValueError, match=r"\[1, 16\]"):
        hilbert.vacuum_state(17)


def test_sector_dimension_cap(monkeypatch):
    monkeypatch.setenv("BETHE_LAB_MAX_N", "18")
    with pytest.raises(ValueError, match="exceeds cap"):
        hilbert.sector_hamiltonian(18, 9)  # C(18,9) = 48620 > 10000


@pytest.mark.parametrize("n", range(2, 9))
def test_highest_weight_basis_is_ker_s_plus(n):
    s_plus = hilbert.raising_operator(n)  # dense reference
    for ell in range(n // 2 + 1):
        basis = hilbert.highest_weight_basis(n, ell)
        d = hilbert.binomial(n, ell) - hilbert.binomial(n, ell - 1)
        assert basis.shape == (hilbert.binomial(n, ell), d)
        assert np.abs(basis.conj().T @ basis - np.eye(d)).max() <= 1e-12
        full = np.zeros((1 << n, d))
        full[hilbert.sector_basis(n, ell)] = basis
        assert np.abs(s_plus @ full).max() <= 1e-12
