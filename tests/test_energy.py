import math

import numpy as np
import pytest

from bethe_lab import baesolver as bs, energy, hilbert
from bethe_lab.abba import PoleError
from bethe_lab.baesolver import RootSet

import dense_ops

SQ12 = 1 / math.sqrt(12)


def test_vacuum_energy_is_zero():
    res = energy.energy_regular(RootSet(4, ()))
    assert res.energy == 0.0 and res.method == energy.REGULAR_FORMULA


def test_four_site_zero_rapidity():
    assert abs(energy.energy_regular(RootSet(4, (0.0,))).energy + 2.0) < 1e-14


def test_six_site_complex_pair():
    roots = RootSet(6, (0.554592 + 0.512465j, 0.554592 - 0.512465j))
    res = energy.energy_regular(roots)
    assert abs(res.energy + 0.7192) < 1e-4
    assert res.imag_leak <= 1e-8


def test_regular_formula_rejects_singular_sets():
    with pytest.raises(ValueError):
        energy.energy_regular(RootSet(4, (0.5j, -0.5j)))


def test_singular_energy_pair_only():
    res = energy.energy_nw(RootSet(4, (0.5j, -0.5j)))
    assert res.energy == -1.0 and res.method == energy.NW_THEOREM
    # the pair alone contributes -J regardless of chain length
    assert energy.energy_nw(RootSet(10, (0.5j, -0.5j))).energy == -1.0


def test_singular_energy_with_zero_companion():
    res = energy.energy_nw(RootSet(6, (0.5j, 0.0, -0.5j)))
    assert abs(res.energy + 3.0) < 1e-14


def test_singular_energy_requires_pair():
    with pytest.raises(ValueError):
        energy.energy_nw(RootSet(6, (0.3, -0.3)))


def test_energy_of_dispatches_on_classification():
    reg = bs.classify(RootSet(4, (0.5,)))
    assert energy.energy_of(reg).method == energy.REGULAR_FORMULA
    sing = bs.classify(RootSet(4, (0.5j, -0.5j)))
    assert energy.energy_of(sing).method == energy.NW_THEOREM
    with pytest.raises(ValueError):
        energy.energy_of(RootSet(4, (0.5,)))  # unclassified


def test_logderiv_vacuum():
    res = energy.energy_logderiv(RootSet(5, ()))
    assert abs(res.energy) < 1e-9


def test_logderiv_regular_agreement():
    roots = RootSet(4, (SQ12, -SQ12), bs.REGULAR, 0.0)
    res = energy.energy_logderiv(roots)
    assert abs(res.energy + 3.0) <= 1e-12
    assert res.method == energy.LAMBDA_LOGDERIV


def test_logderiv_agreement_for_solved_sectors(solved):
    for n in (4, 6, 8):
        for ell in range(n // 2 + 1):
            for s in solved(n, ell):
                if s.classification != bs.REGULAR:
                    continue
                reference = energy.energy_regular(s).energy
                via_lambda = energy.energy_logderiv(s).energy
                assert abs(via_lambda - reference) <= 1e-12 * max(1.0, abs(reference))


def test_logderiv_singular_extrapolation():
    res = energy.energy_logderiv(RootSet(4, (0.5j, -0.5j)))
    assert abs(res.energy + 1.0) <= 1e-12
    res6 = energy.energy_logderiv(RootSet(6, (0.5j, 0.0, -0.5j)))
    assert abs(res6.energy + 3.0) <= 1e-12


def test_logderiv_singular_agreement_for_solved_sectors(solved):
    for n in (4, 6, 8):
        for ell in range(2, n // 2 + 1):
            for s in solved(n, ell):
                if s.classification != bs.PHYSICAL_SINGULAR:
                    continue
                reference = energy.energy_nw(s).energy
                via_lambda = energy.energy_logderiv(s).energy
                assert abs(via_lambda - reference) <= 1e-12 * max(1.0, abs(reference))


def test_every_bethe_energy_appears_in_exact_spectrum(solved):
    for n in (4, 6, 8):
        eigs = np.sort(np.linalg.eigvalsh(hilbert.hamiltonian(n)))
        for ell in range(n // 2 + 1):
            for s in solved(n, ell):
                if s.classification == bs.REGULAR:
                    e = energy.energy_regular(s).energy
                    assert np.min(np.abs(eigs - e)) <= 1e-7
                elif s.classification == bs.PHYSICAL_SINGULAR:
                    e = energy.energy_nw(s).energy
                    assert np.min(np.abs(eigs - e)) <= 1e-5


def test_imag_leak_flags_broken_conjugation():
    res = energy.energy_regular(RootSet(4, (0.2 + 0.4j,)))
    assert res.imag_leak > 1e-8


@pytest.mark.parametrize("n", [4, 6])
def test_derivation_step_ratios(n):
    roots = (
        RootSet(n, (0.5j, -0.5j))
        if n == 4
        else RootSet(n, (0.5j, 0.0, -0.5j))
    )
    for eps in (1e-2, 5e-3, 2.5e-3):
        step4, step5 = dense_ops.derivation_step_ratios(roots, eps)
        assert abs(step4 - n) <= 1e-10
    assert abs(step5 + 2.0) <= 1e-3  # at the finest rung


def test_step_ratios_require_singular_input():
    with pytest.raises(ValueError):
        dense_ops.derivation_step_ratios(RootSet(4, (0.5,)), 1e-2)


def test_logderiv_degenerate_denominator():
    # a lone root at -i/2 (no partner, so not singular) zeroes the
    # transfer eigenvalue at i/2
    with pytest.raises(energy.DegenerateDenominatorError):
        energy.energy_logderiv(RootSet(4, (-0.5j, 0.7)))
    # a lone root at +i/2 is a pole of the transfer eigenvalue there
    with pytest.raises(PoleError):
        energy.energy_logderiv(RootSet(4, (0.5j, 0.7)))
    # below n = 3 the second term of Lambda does not vanish to second
    # order at i/2 on a set holding the pair, and below n = 2 on any set
    with pytest.raises(ValueError):
        energy.energy_logderiv(RootSet(2, (0.5j, -0.5j)))
    with pytest.raises(ValueError):
        energy.energy_logderiv(RootSet(1, ()))


def test_ladder_reference_matches_exact_logderiv_for_any_c(solved):
    # the eps -> 0 limit of the regularized log-derivative does not
    # depend on the regularization constant: the central-difference,
    # three-rung ladder lands on the exact value for c = c1 and c = 0
    singular = [
        s
        for n in range(4, 11)
        for ell in range(2, n // 2 + 1)
        for s in solved(n, ell)
        if s.classification == bs.PHYSICAL_SINGULAR
    ]
    assert len(singular) == 20
    for s in singular:
        exact = energy.energy_logderiv(s).energy
        for c in (bs.nw_constants(s)[0], 0j):
            assert abs(dense_ops.ladder_logderiv(s, c) - exact) <= 1e-8
