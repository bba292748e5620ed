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
from functools import cache

from . import cubes
from .presheaf import FinPresheaf, build_presheaf, gather


class SimplexMap(cubes.TableMap):
    """A monotone map [dom] -> [cod], by its table of length dom + 1 with
    values in 0..cod."""
    __slots__ = ()

    def __init__(self, dom: int, cod: int, table: tuple[int, ...]):
        assert len(table) == dom + 1
        assert all(0 <= v <= cod for v in table)
        assert all(a <= b for a, b in zip(table, table[1:]))
        self.dom, self.cod, self.table = dom, cod, table

    def __repr__(self):
        return (f"SimplexMap(dom={self.dom!r}, cod={self.cod!r}, "
                f"table={self.table!r})")


def enumerate_monotone(m: int, n: int) -> list[SimplexMap]:
    """All monotone maps [m] -> [n], in sorted order."""
    return [SimplexMap(m, n, vals) for vals in
            itertools.combinations_with_replacement(range(n + 1), m + 1)]


@cache
def generators(b: int) -> tuple[tuple[int, ...], ...]:
    """The faces [b-1] -> [b], which skip a vertex, the degeneracies
    [b] -> [b-1], which repeat one, and no symmetries, by number."""
    def number(m: int, n: int, t: tuple[int, ...]) -> int:
        return maps(m, n)[enumerate_monotone(m, n).index(SimplexMap(m, n, t))]
    return (tuple(number(b - 1, b, tuple(v + (v >= i) for v in range(b)))
                  for i in range(b + 1) if b),
            tuple(number(b, b - 1, tuple(v - (v > i) for v in range(b + 1)))
                  for i in range(b)), ())


# This module is the simplex site of ``presheaf.FinPresheaf`` (see
# ``cubes``): a map is numbered by its position in ``enumerate_monotone``.
SIMPLEX = sys.modules[__name__]


def count(m: int, n: int) -> int:
    return math.comb(m + n + 1, m + 1)


def maps(m: int, n: int) -> range:
    return cubes.map_numbers(count, m, n)


def delta(n: int, D: int) -> FinPresheaf:
    """The standard n-simplex, truncated at dimension D."""
    monotone = cache(lambda m, k: list(
        itertools.combinations_with_replacement(range(k + 1), m + 1)))
    index = cache(lambda d: {c: i for i, c in enumerate(monotone(d, n))})
    columns = cache(lambda d: list(zip(*monotone(d, n))))  # c[v], by v

    def table(a: int, b: int, i: int) -> tuple[int, ...]:  # c . f, by c
        f = monotone(a, b)[i]
        return gather(index(a), list(zip(*gather(columns(b), f))))
    return build_presheaf(SIMPLEX, D, {d: tuple(enumerate_monotone(d, n))
                                       for d in range(D + 1)}, table)


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

    duals = cache(lambda a, b: [  # the cube maps' numbers, by monotone map
        cubes.maps(a, b)[cubes.mids_index(a, dual_middles(f))]
        for f in enumerate_monotone(a, b)])
    return build_presheaf(SIMPLEX, X.D, dict(X.levels),
                          lambda a, b, i: X.action[duals(a, b)[i]])
