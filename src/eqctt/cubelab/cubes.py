"""The cartesian cube category as bipointed-set function tables.

A morphism I^m -> I^n is, contravariantly, a function <n> -> <m> between the
bipointed sets <k> = {bot, 1..k, top}, encoded as integers 0, 1..k, k+1.
Tables compose in the opposite order of the maps they present.

A map I^m -> I^n is also its ``index``, its middles read in base m + 2, and
``maps(m, n)[index]`` is its number, which keys action tables.  ``CubeMap``
is built only to parse, print and factor maps.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, partial
from typing import Callable


class TableMap:
    """A map ``dom -> cod`` given by a table of integers.  Maps of one class
    compare, hash and sort as the tuple (dom, cod, table)."""
    __slots__ = ("dom", "cod", "table")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.dom, self.cod, self.table)
                    == (other.dom, other.cod, other.table))
        return NotImplemented

    def __hash__(self):
        return hash((self.dom, self.cod, self.table))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return ((self.dom, self.cod, self.table)
                    < (other.dom, other.cod, other.table))
        return NotImplemented


class CubeMap(TableMap):
    """I^dom -> I^cod, by its table <cod> -> <dom> of length cod + 2."""
    __slots__ = ()

    def __init__(self, dom: int, cod: int, table: tuple[int, ...]):
        assert len(table) == cod + 2
        assert table[0] == 0 and table[-1] == dom + 1
        assert all(0 <= v <= dom + 1 for v in table)
        self.dom, self.cod, self.table = dom, cod, table

    def __repr__(self):
        mids = ",".join(_show_el(self.table[j], self.dom)
                        for j in range(1, self.cod + 1))
        return f"CubeMap({self.dom}->{self.cod}; {mids})"


def _show_el(v: int, m: int) -> str:
    if v == 0:
        return "b"
    if v == m + 1:
        return "t"
    return str(v)


def make_cube_map(dom: int, cod: int, middles: tuple[int, ...]) -> CubeMap:
    return CubeMap(dom, cod, (0, *middles, dom + 1))


def cube_identity(n: int) -> CubeMap:
    return CubeMap(n, n, tuple(range(n + 2)))


def compose(g: CubeMap, f: CubeMap) -> CubeMap:
    """g after f; tables compose the other way around."""
    if f.cod != g.dom:
        raise ValueError(f"dimension mismatch: {f!r} then {g!r}")
    return CubeMap(f.dom, g.cod, tuple(f.table[v] for v in g.table))


HOM_BOUND = 16  # the largest dimension whose maps are enumerated or numbered


def count_hom(m: int, n: int) -> int:
    """|Hom(I^m, I^n)| = (m+2)^n, the number of bipointed functions
    <n> -> <m>; dimensions above ``HOM_BOUND`` are rejected."""
    if m > HOM_BOUND or n > HOM_BOUND:
        raise ValueError(f"hom enumeration bound {HOM_BOUND} exceeded")
    return count(m, n)


def hom_tables(m: int, n: int):
    """The tables of the maps I^m -> I^n, in index order."""
    return ((0, *mids, m + 1)
            for mids in itertools.product(range(m + 2), repeat=n))


def enumerate_hom(m: int, n: int) -> list[CubeMap]:
    """All bipointed functions <n> -> <m>, in sorted (index) order."""
    count_hom(m, n)
    return [CubeMap(m, n, t) for t in hom_tables(m, n)]


# ---------------------------------------------------------------------------
# maps as numbers

def mids_index(m: int, mids) -> int:
    """The index of the map I^m -> I^len(mids) with these middles."""
    i = 0
    for v in mids:
        i = i * (m + 2) + v
    return i


def middles(m: int, n: int, i: int) -> tuple[int, ...]:
    """The middles of the map I^m -> I^n with index i."""
    out = []
    for _ in range(n):
        i, v = divmod(i, m + 2)
        out.append(v)
    return tuple(reversed(out))


def index(f: CubeMap) -> int:
    """f's position in ``enumerate_hom(f.dom, f.cod)``."""
    return mids_index(f.dom, f.table[1:-1])


def cube_map(m: int, n: int, i: int) -> CubeMap:
    """The map I^m -> I^n with index i, the inverse of ``index``."""
    return make_cube_map(m, n, middles(m, n, i))


def composites(N: int, m: int, g: int, d: int) -> list[int]:
    """index(g . h) for h : I^d -> I^m in index order, g an index in
    Hom(I^m, I^N): g . h has the digit h(v) for each digit v of g."""
    weight = [0] * (m + 2)  # by digit value v of g: its place values
    for j, v in enumerate(middles(m, N, g)):
        weight[v] += (d + 2) ** (N - 1 - j)
    column = [(d + 1) * weight[m + 1]]
    for w in weight[1:m + 1]:
        column = [x + t * w for x in column for t in range(d + 2)]
    return column


class Labels:
    """The labels of a level, each built from its position when read."""
    def __init__(self, size: int, label: Callable[[int], object]):
        self.size, self.label = size, label

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int):
        if not 0 <= i < self.size:
            raise IndexError(i)
        return self.label(i)


class HomSet(Labels):
    """The labels of a level of I^cod: Hom(I^dom, I^cod) in index order."""
    def __init__(self, dom: int, cod: int):
        super().__init__(count(dom, cod), partial(cube_map, dom, cod))
        self.dom, self.cod = dom, cod


def map_numbers(count, a: int, b: int) -> range:
    """The numbers of a site's maps a -> b, where ``count(a, b)`` maps: the
    one with index i is (i * w + a) * w + b, w = HOM_BOUND + 1, which does
    not depend on a truncation."""
    if a > HOM_BOUND or b > HOM_BOUND:
        raise ValueError(f"hom enumeration bound {HOM_BOUND} exceeded")
    w = HOM_BOUND + 1
    return range(a * w + b, (count(a, b) * w + a) * w + b, w * w)


def map_of(number: int) -> tuple[int, int, int]:
    """The inverse of ``map_numbers``: (i, a, b) for the i-th map a -> b."""
    rest, b = divmod(number, HOM_BOUND + 1)
    return (*divmod(rest, HOM_BOUND + 1), b)


# ---------------------------------------------------------------------------
# automorphisms and factorizations

class GroupAction:
    """A subgroup of Sigma_n given by its permutations of {1..n}, checked
    to be closed under identity, inverses and composition; n! distinct ones
    are all of Sigma_n, so only a proper subset has its pairs composed."""
    __slots__ = ("n", "perms")

    def __init__(self, n: int, perms: tuple[tuple[int, ...], ...]):
        members = frozenset(perms)
        ident = tuple(range(1, n + 1))
        if any(sorted(p) != list(ident) for p in members):
            raise ValueError(f"a member is not a permutation of 1..{n}")
        if len(members) < math.factorial(n) and (ident not in members or any(
                tuple(sorted(ident, key=lambda j: p[j - 1])) not in members
                or any(tuple(p[i - 1] for i in q) not in members
                       for q in perms)
                for p in perms)):
            raise ValueError("the permutations are not a group")
        self.n, self.perms = n, perms


def full_symmetric(n: int) -> GroupAction:
    return GroupAction(n, tuple(itertools.permutations(range(1, n + 1))))


def automorphisms(n: int) -> GroupAction:
    """All invertible endomorphisms of I^n: exactly the n! axis permutations,
    since an invertible table must be a bijection of the middles."""
    return full_symmetric(n)


def is_iso(f: CubeMap) -> bool:
    """Isos are the axis permutations: their middles permute 1..n."""
    mids = f.table[1:-1]
    return f.dom == f.cod and sorted(mids) == list(range(1, f.cod + 1))


def is_mono(m: int, table) -> bool:
    """A map I^m -> I^n with this table (or its middles) is mono, a
    nondegenerate cell of I^n, iff the table hits every axis of <m>."""
    return set(range(1, m + 1)) <= set(table)


def ez_factor(f: CubeMap) -> tuple[CubeMap, CubeMap]:
    """Factor f = mono . split-epi.

    On the bipointed side the table <n> -> <m> factors as the corestriction
    surjection onto its image followed by the image inclusion; dually the
    inclusion gives the split epi e and the surjection gives the mono m.
    Isomorphisms return (f, id) so that golden outputs are deterministic.
    """
    if is_iso(f):
        return f, cube_identity(f.cod)
    image_mids = sorted({v for v in f.table[1:-1] if 1 <= v <= f.dom})
    d = len(image_mids)
    position = {0: 0, f.dom + 1: d + 1,
                **{v: i + 1 for i, v in enumerate(image_mids)}}
    return (make_cube_map(f.dom, d, tuple(image_mids)),
            make_cube_map(d, f.cod, tuple(position[v]
                                          for v in f.table[1:-1])))


def find_section(e: CubeMap) -> CubeMap | None:
    """The least section s with e . s = id, or None.

    e . s = id says s sends each middle e.table[j] back to j, so a section
    exists iff e's middles are distinct axes of its domain; sending every
    other axis to bot gives the first one in ``enumerate_hom`` order.
    """
    mids = e.table[1:-1]
    if len(set(mids)) != len(mids) or not all(1 <= v <= e.dom for v in mids):
        return None
    s_mids = [0] * e.dom
    for j, v in enumerate(mids, 1):
        s_mids[v - 1] = j
    return make_cube_map(e.cod, e.dom, tuple(s_mids))


# ---------------------------------------------------------------------------
# This module is the cube site of ``presheaf.FinPresheaf``.

def count(m: int, n: int) -> int:
    return (m + 2) ** n


def maps(m: int, n: int) -> range:
    return map_numbers(count, m, n)


@cache
def generators(b: int) -> tuple[tuple[int, ...], ...]:
    """The faces and diagonals I^(b-1) -> I^b, which put an endpoint at an
    axis or repeat one, the projections I^b -> I^(b-1), which drop an axis,
    and the adjacent axis transpositions of I^b, by number."""
    ax = range(1, b + 1)
    lowering = [[e if k == j else k - (k > j) for k in ax]
                for j in ax for e in (0, b)]
    lowering += [[j if k == i else k - (k > i) for k in ax]
                 for i in ax for j in range(1, i)]
    return tuple(tuple(maps(m, n)[mids_index(m, t)] for t in ts)
                 for m, n, ts in (
        (b - 1, b, lowering),
        (b, b - 1, [[k + (k >= j) for k in range(1, b)] for j in ax]),
        (b, b, [[k + (k == j) - (k == j + 1) for k in ax]
                for j in range(1, b)])))
