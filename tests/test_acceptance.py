"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
every tolerance is pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from bethe_lab import abba, baesolver as bs, energy, hilbert, pipeline, rigged
from bethe_lab.baesolver import RootSet

SQ12 = 1 / math.sqrt(12)


def _pass(num: int, msg: str) -> None:
    print(f"criterion {num:2d}: PASS — {msg}")


def _find(solutions, roots, tol):
    for s in solutions:
        if len(s.roots) == len(roots) and bs.multiset_eq(s.roots, roots, tol):
            return s
    raise AssertionError(f"no solution matching {roots} within {tol}")


def test_criterion_01_four_site_spectrum():
    t0 = time.perf_counter()
    w, _ = hilbert.eig_hermitian(hilbert.hamiltonian(4))
    entries = hilbert.spectrum_with_multiplicities(w)
    elapsed = time.perf_counter() - t0
    expected = [(-3.0, 1), (-2.0, 3), (-1.0, 7), (0.0, 5)]
    assert len(entries) == 4
    for (e_exp, m_exp), entry in zip(expected, entries):
        assert abs(entry.energy - e_exp) <= 1e-9
        assert entry.multiplicity == m_exp
    assert elapsed < 1.0
    _pass(1, f"n=4 multiplicities {{0^5,(-J)^7,(-2J)^3,(-3J)^1}} in {elapsed:.3f}s")


def test_criterion_02_four_site_regular_coverage(solved):
    ell1 = [s for s in solved(4, 1) if s.classification == bs.REGULAR]
    assert len(ell1) == 3
    for root, e_exp in ((0.5, -1.0), (0.0, -2.0), (-0.5, -1.0)):
        s = _find(ell1, (root,), tol=1e-9)
        assert abs(energy.energy_regular(s).energy - e_exp) <= 1e-9
    ell2 = [s for s in solved(4, 2) if s.classification == bs.REGULAR]
    s = _find(ell2, (SQ12, -SQ12), tol=1e-9)
    assert abs(energy.energy_regular(s).energy + 3.0) <= 1e-9
    _pass(2, "n=4 tables: {1/2,0,-1/2} -> {-J,-2J,-J} and ±1/sqrt(12) -> -3J")


def test_criterion_03_four_site_singular_recovery():
    t0 = time.perf_counter()
    rs = bs.classify(RootSet(4, (0.5j, -0.5j)))
    assert rs.classification == bs.PHYSICAL_SINGULAR
    c1, c2 = bs.nw_constants(rs)
    assert abs(c1 - 2j) <= 1e-12 and abs(c2 - 2j) <= 1e-12
    assert energy.energy_nw(rs).energy == -1.0
    sweep = abba.regularization_sweep(rs, c1, ladder=(1e-2, 5e-3, 2.5e-3), energy=-1.0)
    elapsed = time.perf_counter() - t0
    assert all(b < a for a, b in zip(sweep.residuals, sweep.residuals[1:]))
    assert sweep.converged
    assert sweep.limit_residual <= 1e-3
    assert elapsed < 5.0
    _pass(
        3,
        f"n=4 pair physical (c=2i), E=-J, residuals {[f'{r:.1e}' for r in sweep.residuals]} "
        f"-> limit {sweep.limit_residual:.1e} in {elapsed:.2f}s",
    )


def test_criterion_04_six_site_spectrum():
    t0 = time.perf_counter()
    w, _ = hilbert.eig_hermitian(hilbert.hamiltonian(6))
    entries = hilbert.spectrum_with_multiplicities(w)
    elapsed = time.perf_counter() - t0
    s13, s17, s5 = math.sqrt(13), math.sqrt(17), math.sqrt(5)
    expected = [
        (-(5 + s13) / 2, 1),
        (-(5 + s5) / 2, 3),
        (-3.0, 1),
        (-(7 + s17) / 4, 6),
        (-2.5, 6),
        (-2.0, 7),
        (-1.5, 10),
        (-(5 - s5) / 2, 3),
        (-1.0, 3),
        (-(7 - s17) / 4, 6),
        (-(5 - s13) / 2, 1),
        (-0.5, 10),
        (0.0, 7),
    ]
    assert len(entries) == 13
    for (e_exp, m_exp), entry in zip(expected, entries):
        assert abs(entry.energy - e_exp) <= 1e-9, (entry, e_exp)
        assert entry.multiplicity == m_exp, (entry, m_exp)
    assert elapsed < 10.0
    _pass(4, f"n=6: 13 levels incl. surd closed forms matched to 1e-9 in {elapsed:.3f}s")


def test_criterion_05_six_site_solution_tables(solved):
    # the (0.582004, 0.094167) pair and its negative appear in the
    # published table with the smaller rapidity's sign flipped; the
    # values here are the verified roots (the energies agree either way)
    tables = {
        1: [
            ((0.866025,), -0.5),
            ((0.288675,), -1.5),
            ((0.0,), -2.0),
            ((-0.288675,), -1.5),
            ((-0.866025,), -0.5),
        ],
        2: [
            ((0.554592 + 0.512465j, 0.554592 - 0.512465j), -0.7192),
            ((-0.554592 + 0.512465j, -0.554592 - 0.512465j), -0.7192),
            ((0.688190, -0.688190), -1.3819),
            ((0.631084, -0.198071), -2.5),
            ((0.582004, 0.094167), -2.7807),
            ((0.198071, -0.631084), -2.5),
            ((0.162459, -0.162459), -3.6180),
            ((-0.094167, -0.582004), -2.7807),
        ],
        3: [
            ((1.008757j, 0.0, -1.008757j), -0.6972),
            ((0.235900 + 0.500280j, 0.235900 - 0.500280j, -0.471800), -2.0),
            ((0.471800, -0.235900 + 0.500280j, -0.235900 - 0.500280j), -2.0),
            ((0.429253, 0.0, -0.429253), -4.3027),
        ],
    }
    for ell, rows in tables.items():
        regular = [s for s in solved(6, ell) if s.classification == bs.REGULAR]
        assert len(regular) == len(rows)
        for roots, e_exp in rows:
            s = _find(regular, roots, tol=1e-5)
            assert abs(energy.energy_regular(s).energy - e_exp) <= 1e-4
    _pass(5, "n=6 tables: 5 + 8 + 4 regular solutions at 1e-5, energies at 1e-4")


def test_criterion_06_six_site_singular_recovery():
    rep = pipeline.run_pipeline(6)
    missing = sorted((round(e, 9), m) for e, m in rep.missing_levels)
    recovered = sorted((round(e, 9), m) for e, m in rep.recovered_by_nw)
    assert missing == [(-3.0, 1), (-1.0, 3)]
    assert recovered == [(-3.0, 1), (-1.0, 3)]
    assert rep.audit["spectral_closure"]
    _pass(6, "n=6 missing {(-J)^3, (-3J)^1} exactly covered by the two singular states")


def test_criterion_07_derivation_constants():
    ladder = (1e-2, 5e-3, 2.5e-3)
    for rs in (RootSet(4, (0.5j, -0.5j)), RootSet(6, (0.5j, -0.5j)), RootSet(6, (0.5j, 0.0, -0.5j))):
        prev = None
        for eps in ladder:
            step4, step5 = energy.derivation_step_ratios(rs, eps)
            assert abs(step4 - rs.n) <= 1e-10
            gap = abs(step5 + 2.0)
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev <= 1e-3
    _pass(7, "A0 ratio = n to 1e-10; pair ratio -> -2 within 1e-3 at eps=2.5e-3")


def test_criterion_08_operator_identities():
    rng = np.random.default_rng(2024)

    def embed(lam, slot):
        blocks = abba.l_operator(1, lam, 1)
        out = np.zeros((8, 8), dtype=complex)
        for al in range(2):
            for be in range(2):
                unit = np.zeros((2, 2))
                unit[al, be] = 1.0
                front = (unit, np.eye(2)) if slot == 1 else (np.eye(2), unit)
                out += np.kron(np.kron(*front), blocks[al][be])
        return out

    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r12 = np.kron(abba.r_matrix(lam - mu), np.eye(2))
        resid = r12 @ embed(lam, 1) @ embed(mu, 2) - embed(mu, 1) @ embed(lam, 2) @ r12
        assert np.abs(resid).max() <= 1e-12

    pairs = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for _ in range(20)
    ]
    for i, (lam, mu) in enumerate(pairs):
        n = (4, 6, 8)[i % 3]
        m1, m2 = abba.monodromy(lam, n), abba.monodromy(mu, n)
        b_scale = np.abs(m1.b).max() * np.abs(m2.b).max()
        assert np.abs(m1.b @ m2.b - m2.b @ m1.b).max() <= 1e-10 * b_scale
        t1, t2 = m1.tau, m2.tau
        t_scale = np.abs(t1).max() * np.abs(t2).max()
        assert np.abs(t1 @ t2 - t2 @ t1).max() <= 1e-10 * t_scale

    h_step = 1e-5
    for n in (2, 3, 4, 5, 6):
        deriv = (abba.transfer_matrix(0.5j + h_step, n) - abba.transfer_matrix(0.5j - h_step, n)) / (2 * h_step)
        recon = 0.5j * deriv @ np.linalg.inv(abba.transfer_matrix(0.5j, n)) - (n / 2) * np.eye(1 << n)
        assert np.abs(recon - hilbert.hamiltonian(n)).max() <= 1e-6
    _pass(8, "Yang-Baxter 1e-12; [B,B], [tau,tau] 1e-10; H from tau 1e-6 (n<=6)")


def test_criterion_09_eigenvalue_identity(solved):
    rng = np.random.default_rng(99)
    checked = 0
    for n in (4, 6, 8):
        for ell in range(1, n // 2 + 1):
            for s in solved(n, ell):
                if s.classification != bs.REGULAR:
                    continue
                psi = abba.bethe_vector(s)
                norm = np.linalg.norm(psi)
                for _ in range(5):
                    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    val = abba.transfer_eigenvalue(lam, s)
                    resid = np.linalg.norm(abba.transfer_apply(lam, n, psi) - val * psi)
                    assert resid <= 1e-8 * abs(val) * norm
                    for k in range(len(s.roots)):
                        assert abs(abba.unwanted_term(lam, k, s.roots, n)) <= 1e-9
                checked += 1
    assert checked >= 70
    _pass(9, f"tau Psi = Lambda Psi at 1e-8 and unwanted terms at 1e-9 for {checked} states")


def test_criterion_10_rigged_configuration_census():
    t0 = time.perf_counter()
    for n in range(2, 15):
        for ell in range(n // 2 + 1):
            expected = hilbert.binomial(n, ell) - hilbert.binomial(n, ell - 1)
            assert rigged.rc_count(n, ell) == expected
    elapsed = time.perf_counter() - t0
    assert [rigged.rc_count(6, ell) for ell in range(4)] == [1, 5, 9, 5]
    assert elapsed < 5.0
    _pass(10, f"census matches C(n,l)-C(n,l-1) for all n<=14 in {elapsed:.2f}s")


def test_criterion_11_completeness_audit(solved):
    for n in (4, 6, 8):
        for ell in range(n // 2 + 1):
            found = sum(
                1
                for s in solved(n, ell)
                if s.classification in (bs.REGULAR, bs.PHYSICAL_SINGULAR)
            )
            assert found == bs.sector_target_count(n, ell), (n, ell, found)
    rep = pipeline.run_pipeline(8)
    assert rep.exit_code == pipeline.EXIT_OK
    assert rep.audit["count_check"] and rep.audit["spectral_closure"]
    _pass(11, "n=4,6,8 sector counts equal the census; n=8 pipeline exits 0")
