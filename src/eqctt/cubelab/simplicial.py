"""The truncated simplex category and the triangulation functor.

Triangulation is restriction along the dimension-preserving functor from
simplices to cubes given by the interval representation: a monotone map
f : [m] -> [n] dualizes to the bipointed table sending j to the least i with
f(i) >= j (top if there is none).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from . import cubes
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


def simplex_compose(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    if f.cod != g.dom:
        raise ValueError("dimension mismatch")
    return SimplexMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def enumerate_monotone(m: int, n: int) -> list[SimplexMap]:
    """All monotone maps [m] -> [n], in sorted order."""
    return [SimplexMap(m, n, vals) for vals in
            itertools.combinations_with_replacement(range(n + 1), m + 1)]


def split_epis(d: int) -> list[int]:
    """The numbers of the surjective monotone maps out of [d] to a lower
    dimension (every epimorphism of the simplex category is split)."""
    return [f for d2 in range(d)
            for f, s in zip(maps(d, d2), enumerate_monotone(d, d2))
            if len(set(s.table)) == d2 + 1]


# This module is the simplex site of ``presheaf.FinPresheaf`` (see
# ``cubes``): a map is numbered by its position in ``enumerate_monotone``.
SIMPLEX = sys.modules[__name__]


def count(m: int, n: int) -> int:
    return math.comb(m + n + 1, m + 1)


def maps(m: int, n: int) -> range:
    return cubes.map_numbers(count, m, n)


def delta(n: int, D: int) -> FinPresheaf:
    """The standard n-simplex, truncated at dimension D."""
    levels = {d: tuple(enumerate_monotone(d, n)) for d in range(D + 1)}
    index = {d: {c: i for i, c in enumerate(cells)}
             for d, cells in levels.items()}
    return build_presheaf(SIMPLEX, D, levels, lambda a, b: [
        tuple(index[a][simplex_compose(c, f)] for c in levels[b])
        for f in enumerate_monotone(a, b)])


def dual_middles(f: SimplexMap) -> tuple[int, ...]:
    """The middles of the cube map of a monotone map, its bipointed table
    <cod> -> <dom>: j goes to the least i with f(i) >= j, or to top."""
    return tuple(next((i for i, v in enumerate(f.table) if v >= j), f.dom + 1)
                 for j in range(1, f.cod + 1))


def triangulate(X: FinPresheaf) -> FinPresheaf:
    """Restriction along the simplex-to-cube functor: level d is X's level d,
    and a monotone map acts as its dualized cube map."""
    if X.site is not cubes:
        raise ValueError("triangulate expects a cubical set")

    def tables(a: int, b: int) -> list:
        numbers = cubes.maps(a, b)
        return [X.action[numbers[cubes.mids_index(a, dual_middles(f))]]
                for f in enumerate_monotone(a, b)]
    return build_presheaf(SIMPLEX, X.D, dict(X.levels), tables)
