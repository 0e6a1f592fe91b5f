import json
from pathlib import Path

import pytest

from bethe_lab import baesolver

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def solved():
    """Session-cached solve_sector results at default settings."""
    cache: dict[tuple[int, int], list] = {}

    def get(n: int, ell: int):
        if (n, ell) not in cache:
            cache[(n, ell)] = baesolver.solve_sector(n, ell)
        return cache[(n, ell)]

    return get


@pytest.fixture(scope="session")
def nonphysical_singular():
    """Stored non-physical singular root sets by chain length, re-checked on load.

    The solver returns only regular and physical singular sets, so these
    exact solutions that are not eigenstates come from a file.
    """
    with open(DATA / "nonphysical_singular.json") as fh:
        stored = json.load(fh)["rootsets"]
    out = {}
    for n_key, sets in stored.items():
        n = int(n_key)
        out[n] = []
        for pairs in sets:
            roots = tuple(complex(re_, im) for re_, im in pairs)
            residual = baesolver.bae_residual(roots, n)
            assert residual <= 1e-9, (n, roots, residual)
            rs = baesolver.classify(baesolver.RootSet(n, roots, residual=residual))
            assert rs.classification == baesolver.NONPHYSICAL_SINGULAR, rs
            out[n].append(rs)
    return out


def by_class(solutions, classification):
    return [s for s in solutions if s.classification == classification]
