"""Multiset equality of root sets, kept as a test helper.

The solver keeps one root set per transfer-matrix eigenvalue and never
compares sets with each other; the tests use this matching to look up
published roots and to check conjugation closure and distinctness.
"""

from __future__ import annotations


def multiset_eq(a, b, tol: float) -> bool:
    """Whether two root multisets coincide within ``tol`` per root.

    True when the roots of ``a`` can be paired one-to-one with those of
    ``b`` so that every pair lies within ``tol``: a perfect matching in
    the bipartite graph of in-tolerance pairs.  The matching is built by
    backtracking along augmenting paths, so a root whose partners are
    all taken may move an earlier root onto another partner.  This is
    the exact min-over-permutations test in O(ell^3) rather than ell!
    steps.
    """
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if len(a) != len(b):
        return False
    near = [[j for j, y in enumerate(b) if abs(x - y) <= tol] for x in a]
    owner = [-1] * len(b)  # owner[j]: index in ``a`` matched to b[j]

    def place(i: int, seen: set[int]) -> bool:
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(a)))
