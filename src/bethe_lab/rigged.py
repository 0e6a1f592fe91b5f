"""Rigged configurations for the spin-1/2 XXX chain.

A rigged configuration for chain length ``n`` and magnon number ``ell``
is a partition ``nu`` of ``ell`` (``ell <= n/2``) together with one
integer rigging per row, bounded by the vacancy number of the row
length.  Their total count per sector equals the number of highest
weight states, C(n, ell) - C(n, ell - 1), which is what the solver
completeness audit checks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby, islice, product

from .hilbert import binomial


class AdmissibilityError(ValueError):
    """Partition does not fit the chain (more than n/2 boxes)."""


def partitions(total: int) -> list[tuple[int, ...]]:
    """All partitions of ``total`` in reverse-lexicographic order."""
    if total < 0:
        raise ValueError("partition size must be non-negative")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(max_part, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return list(gen(total, total))


def vacancy(nu: tuple[int, ...], n: int) -> dict[int, int]:
    """Vacancy numbers P_k = n - 2 sum_i min(k, nu_i) for k = 1..nu_1."""
    nu = tuple(nu)
    if any(x <= 0 for x in nu) or any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise ValueError(f"nu must be a weakly decreasing positive partition, got {nu}")
    if 2 * sum(nu) > n:
        raise AdmissibilityError(f"partition {nu} has more than n/2 = {n/2} boxes")
    return {k: n - 2 * sum(min(k, x) for x in nu) for k in range(1, (nu[0] if nu else 0) + 1)}


@dataclass(frozen=True)
class RiggedConfiguration:
    """Partition plus riggings; equal-length rows keep riggings sorted descending."""

    n: int
    nu: tuple[int, ...]
    riggings: tuple[int, ...]

    def __post_init__(self):
        p = vacancy(self.nu, self.n)
        if len(self.riggings) != len(self.nu):
            raise ValueError("one rigging per row required")
        for i, (row, rig) in enumerate(zip(self.nu, self.riggings)):
            if not 0 <= rig <= p[row]:
                raise ValueError(
                    f"rigging {rig} on length-{row} row outside [0, {p[row]}]"
                )
            if i > 0 and self.nu[i - 1] == row and self.riggings[i - 1] < rig:
                raise ValueError("riggings of equal-length rows must be sorted descending")

    @property
    def ell(self) -> int:
        return sum(self.nu)


def enumerate_rcs(n: int, ell: int) -> list[RiggedConfiguration]:
    """All rigged configurations for (n, ell), deterministically ordered.

    Partitions appear in reverse-lexicographic order; riggings run
    lexicographically within each partition.  Reordering riggings among
    equal-length rows does not produce a new configuration.
    """
    if not 0 <= 2 * ell <= n:
        raise AdmissibilityError(f"need 0 <= ell <= n/2, got ell={ell}, n={n}")
    out: list[RiggedConfiguration] = []
    for nu in partitions(ell):
        p = vacancy(nu, n)
        # group equal-length rows; nu is sorted so groups are contiguous
        groups: list[tuple[int, int]] = []  # (row length, count)
        for row in nu:
            if groups and groups[-1][0] == row:
                groups[-1] = (row, groups[-1][1] + 1)
            else:
                groups.append((row, 1))
        per_group = [
            [tuple(reversed(c)) for c in combinations_with_replacement(range(p[row] + 1), cnt)]
            for row, cnt in groups
        ]
        for choice in product(*per_group):
            riggings = tuple(r for grp in choice for r in grp)
            out.append(RiggedConfiguration(n, nu, riggings))
    return out


def rc_count(n: int, ell: int) -> int:
    """Number of rigged configurations; checked against C(n,ell) - C(n,ell-1)."""
    count = len(enumerate_rcs(n, ell))
    expected = binomial(n, ell) - binomial(n, ell - 1)
    if count != expected:
        raise RuntimeError(
            f"rigged configuration census {count} != C({n},{ell})-C({n},{ell-1}) = {expected}"
        )
    return count


def heuristic_real_pairing(
    root_lists: list[tuple[float, ...]], rcs: list[RiggedConfiguration]
) -> list[tuple[int, int]] | None:
    """Heuristic pairing of real solutions with single-column configurations.

    The larger first rigging goes with the larger first rapidity; ties in
    the first rigging are then broken by pairing the larger second
    rigging with the larger second rapidity.  Only defined for ell <= 2;
    returns None when the shapes do not line up.  This is a labelling
    aid, not a computed bijection.
    """
    if not root_lists:
        return None
    ell = len(root_lists[0])
    if ell == 0 or ell > 2:
        return None
    column_rcs = [(i, rc) for i, rc in enumerate(rcs) if rc.nu == (1,) * ell]
    if len(column_rcs) != len(root_lists):
        return None
    by_riggings = sorted(column_rcs, key=lambda t: t[1].riggings, reverse=True)
    by_first = iter(sorted(range(len(root_lists)), key=lambda i: root_lists[i][0], reverse=True))
    # chunk the configurations by their first rigging, and order the
    # solutions that a chunk takes by their remaining rapidities
    pairs: list[tuple[int, int]] = []
    for _, chunk in groupby(by_riggings, key=lambda t: t[1].riggings[0]):
        rc_indices = [rc_i for rc_i, _ in chunk]
        sols = islice(by_first, len(rc_indices))
        pairs += zip(sorted(sols, key=lambda i: root_lists[i][1:], reverse=True), rc_indices)
    return pairs
