"""The truncated simplex category and the triangulation functor.

Triangulation is restriction along the dimension-preserving functor from
simplices to cubes given by the interval representation: a monotone map
f : [m] -> [n] dualizes to the bipointed table sending j to the least i with
f(i) >= j (top if there is none).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from . import cubes
from .cubes import CubeMap, make_cube_map
from .presheaf import FinPresheaf, build_presheaf


@dataclass(frozen=True, order=True)
class SimplexMap:
    dom: int                 # [dom] -> [cod], monotone
    cod: int
    table: tuple[int, ...]   # length dom + 1, values in 0..cod

    def __post_init__(self):
        assert len(self.table) == self.dom + 1
        assert all(0 <= v <= self.cod for v in self.table)
        assert all(a <= b for a, b in zip(self.table, self.table[1:]))

    def __call__(self, i: int) -> int:
        return self.table[i]


def simplex_identity(n: int) -> SimplexMap:
    return SimplexMap(n, n, tuple(range(n + 1)))


def simplex_compose(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    if f.cod != g.dom:
        raise ValueError("dimension mismatch")
    return SimplexMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def enumerate_monotone(m: int, n: int) -> list[SimplexMap]:
    """All monotone maps [m] -> [n]."""
    out = []
    for vals in itertools.combinations_with_replacement(range(n + 1), m + 1):
        out.append(SimplexMap(m, n, vals))
    return out


def split_epis(d: int) -> list[SimplexMap]:
    """The surjective monotone maps out of [d] to a lower dimension (every
    epimorphism of the simplex category is split).  The table of a
    surjection [d] -> [d2] holds each of 0..d2 once plus d - d2 repeats."""
    return [SimplexMap(d, d2, tuple(sorted((*range(d2 + 1), *extra))))
            for d2 in range(d)
            for extra in itertools.combinations_with_replacement(
                range(d2 + 1), d - d2)]


# This module is the simplex site of ``presheaf.FinPresheaf`` (see ``cubes``).
maps = enumerate_monotone
identity = simplex_identity
compose = simplex_compose
SIMPLEX = sys.modules[__name__]


def delta(n: int, D: int) -> FinPresheaf:
    """The standard n-simplex, truncated at dimension D."""
    levels = {d: tuple(sorted(enumerate_monotone(d, n))) for d in range(D + 1)}
    return build_presheaf(SIMPLEX, D, levels,
                          lambda f, c: simplex_compose(c, f))


def dualize_simplex_map(f: SimplexMap) -> CubeMap:
    """The bipointed table <cod> -> <dom> of a monotone map, with bot = 0 and
    top = dom + 1; contravariantly functorial."""
    m, n = f.dom, f.cod
    mids = []
    for j in range(1, n + 1):
        for i in range(m + 1):
            if f.table[i] >= j:
                mids.append(i)
                break
        else:
            mids.append(m + 1)
    return make_cube_map(m, n, tuple(mids))


def triangulate(X: FinPresheaf) -> FinPresheaf:
    """Restriction along the simplex-to-cube functor: level d is X's level d,
    and a monotone map acts as its dualized cube map."""
    if X.site is not cubes:
        raise ValueError("triangulate expects a cubical set")
    return build_presheaf(SIMPLEX, X.D, dict(X.levels),
                          lambda f, c: X.act(dualize_simplex_map(f), c))
