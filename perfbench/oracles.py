"""Closed forms and brute-force counts for cubelab reports.

Nothing here imports eqctt.  The cube category is re-derived from its
definition: a map I^a -> I^d is a bipointed function <d> -> <a>, written as
the tuple of its middle values in 0..a+1 (0 is bottom, a+1 is top).
"""

from __future__ import annotations

import itertools
from math import comb


def representable_sizes(n: int, D: int) -> list[int]:
    """|Hom(I^d, I^n)| = (d+2)^n for d = 0..D."""
    return [(d + 2) ** n for d in range(D + 1)]


def symmetric_quotient_sizes(n: int, D: int) -> list[int]:
    """Orbits of Sigma_n on (d+2)^n: multisets of size n from d+2 values."""
    return [comb(d + 1 + n, n) for d in range(D + 1)]


def simplex_sizes(n: int, D: int) -> list[int]:
    """Monotone maps [d] -> [n]: C(n+d+1, d+1)."""
    return [comb(n + d + 1, d + 1) for d in range(D + 1)]


def simplex_nondegenerate(n: int, D: int) -> list[int]:
    """Injective monotone maps [d] -> [n]: C(n+1, d+1)."""
    return [comb(n + 1, d + 1) for d in range(D + 1)]


def boolean_chains(n: int, D: int) -> list[int]:
    """Strict chains x0 < ... < xd in the Boolean lattice {0,1}^n, counted
    by walking subsets of {1..n} as bit masks."""
    masks = range(1 << n)

    def below(x, y):
        return x != y and x & y == x

    counts = []
    chains = [(x,) for x in masks]
    for _ in range(D + 1):
        counts.append(len(chains))
        chains = [c + (y,) for c in chains for y in masks if below(c[-1], y)]
    return counts


# ---------------------------------------------------------------------------
# open boxes

def _cells(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(d + 2), repeat=n))


def _act(cell: tuple[int, ...], g: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Precompose a cell I^d -> I^n with g : I^a -> I^d, both as middles."""
    full = (0, *g, a + 1)
    return tuple(full[v] for v in cell)


def count_subobjects(n: int, D: int) -> int:
    """Subpresheaves of I^n truncated at D: distinct unions of the
    principal subpresheaves generated by single cells."""
    def closure(d0, cell):
        out = set()
        for a in range(D + 1):
            for g in itertools.product(range(a + 2), repeat=d0):
                out.add((a, _act(cell, g, a)))
        return frozenset(out)

    principals = {closure(d, c) for d in range(D + 1) for c in _cells(n, d)}
    principals = sorted(principals, key=sorted)
    if len(principals) > 16:
        raise ValueError("too many generators to enumerate unions")
    unions = set()
    for r in range(len(principals) + 1):
        for combo in itertools.combinations(principals, r):
            unions.add(frozenset().union(*combo))
    return len(unions)


def count_box_specs(n_max: int, k_max: int, D: int) -> int:
    """Open boxes (n, k, C, zeta) with n + k <= D: a subobject C of I^n and
    a point zeta : I^n -> I^k, of which there are (n+2)^k."""
    total = 0
    for n in range(n_max + 1):
        subs = count_subobjects(n, D)
        for k in range(1, k_max + 1):
            if n + k <= D:
                total += subs * (n + 2) ** k
    return total


def count_identity_squares(m: int, n_max: int, k_max: int, D: int) -> int:
    """Commuting squares from each box into id(I^m): by Yoneda, one per map
    I^(n+k) -> I^m, i.e. (n+k+2)^m per box."""
    total = 0
    for n in range(n_max + 1):
        subs = count_subobjects(n, D)
        for k in range(1, k_max + 1):
            if n + k <= D:
                total += subs * (n + 2) ** k * (n + k + 2) ** m
    return total
