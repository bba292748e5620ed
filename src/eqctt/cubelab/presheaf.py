"""Dimension-truncated finite presheaves with action tables built when read.

A ``FinPresheaf`` over a site gives, for every site morphism between levels
<= D, the induced function on cells, built when first read.  A site is the
module of its category, ``cubes`` or ``simplicial``, which provides
``maps(a, b)`` (the numbers of the morphisms dom=a -> cod=b, in hom-set
order), ``count(a, b)`` (how many) and ``split_epis(d)`` (the numbers of
the non-invertible split epis out of level d).

Site maps and cells are integers: ``action[f]`` is the table of the map
numbered f, and a cell at level d is its position in ``levels[d]``, that
level's labels in sorted order, which are used only to print reports.
Position order is label order, so every "least" or "sorted" choice reads the
same on either.  All checks here are bounded certificates: they are
exhaustive for the truncation D but say nothing beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from types import ModuleType
from typing import Callable, Hashable, Sequence

from . import cubes
from .cubes import CubeMap, GroupAction, HomSet, hom_tables, map_of

Label = Hashable
Cell = int
Table = tuple[Cell, ...]  # the action of one site map, by cell


def gather(t: Sequence, cells: Sequence[int]) -> tuple:
    """The tuple of t[c] for each c in cells, gathered in C where it can."""
    return itemgetter(*cells)(t) if len(cells) > 1 else tuple(
        t[c] for c in cells)


@dataclass(eq=False)
class FinPresheaf:
    site: ModuleType
    D: int
    levels: dict[int, Sequence[Label]]
    action: Action  # map a -> b, by number: level b to level a

    def act(self, f: int, cell: Cell) -> Cell:
        return self.action[f][cell]

    def cells(self, d: int) -> range:
        return range(len(self.levels[d]))

    def level_sizes(self) -> list[int]:
        return [len(self.levels[d]) for d in range(self.D + 1)]


class Action(dict):
    """Tables by map number: the i-th map a -> b gets ``table(a, b, i)``,
    checked to send level b into level a, the first time it is read."""

    def __init__(self, site: ModuleType, sizes: list[int], table: Callable):
        self.site, self.sizes, self.table = site, sizes, table

    def __missing__(self, f: int) -> Table:
        i, a, b = map_of(f)
        sizes = self.sizes
        if max(a, b) >= len(sizes) or not 0 <= i < self.site.count(a, b):
            raise KeyError(f)
        t = self.table(a, b, i)
        if len(t) != sizes[b] or t and not (0 <= min(t) and max(t) < sizes[a]):
            raise ValueError(f"action of map {f} ({a} -> {b}) "
                             "leaves the level sets")
        self[f] = t
        return t


def build_presheaf(site: ModuleType, D: int,
                   levels: dict[int, Sequence[Label]],
                   table: Callable[[int, int, int], Table]) -> FinPresheaf:
    """The presheaf whose i-th site map a -> b acts by ``table(a, b, i)``."""
    return FinPresheaf(site, D, levels, Action(
        site, [len(levels[d]) for d in range(D + 1)], table))


def table_size(site: ModuleType, sizes: list[int]) -> int:
    """The entries of all action tables for levels of these sizes, had
    every one been built: one per site map f and cell at level f.cod."""
    return sum(site.count(a, b) * sizes[b]
               for a in range(len(sizes)) for b in range(len(sizes)))


# ---------------------------------------------------------------------------
# standard objects

def representable_cube(n: int, D: int) -> FinPresheaf:
    """I^n: a cell I^d -> I^n is its index, its middles read in base
    d + 2.  A map f acts on each middle v as ``f.table[v]``, so f's table is
    the n-fold product of ``f.table``."""
    hom = cache(lambda a, b: list(hom_tables(a, b)))  # by index

    def table(a: int, b: int, i: int) -> Table:
        ft, t = hom(a, b)[i], (0,)
        for _ in range(n):
            t = tuple([x * (a + 2) + v for x in t for v in ft])
        return t
    return build_presheaf(cubes, D, {d: HomSet(d, n) for d in range(D + 1)},
                          table)


def terminal_cube(D: int) -> FinPresheaf:
    return representable_cube(0, D)


def product(X: FinPresheaf, Y: FinPresheaf) -> FinPresheaf:
    """Cell (i, j) at level d is i * |Y_d| + j, the position of the label
    pair in sorted order."""
    if X.site != Y.site or X.D != Y.D:
        raise ValueError("product requires matching site and truncation")
    levels = {d: tuple((x, y) for x in X.levels[d] for y in Y.levels[d])
              for d in range(X.D + 1)}

    def table(a: int, b: int, i: int) -> Table:
        f, width = X.site.maps(a, b)[i], len(Y.levels[a])
        return tuple([x * width + y for x in X.action[f] for y in Y.action[f]])
    return build_presheaf(X.site, X.D, levels, table)


# ---------------------------------------------------------------------------
# group quotients

def symmetric_level_action(X: FinPresheaf, n: int) -> Callable:
    """Axis permutations acting by postcomposition on a cubical set whose
    cells are maps into I^n: ``act(perm, d)`` is perm's table on level d (-1
    outside it), moving each cell's digit at axis i to axis perm[i-1]."""
    index: dict[int, dict | None] = {}  # per level: label index -> cell
    for d, cells in X.levels.items():
        if X.site is cubes and isinstance(cells, HomSet) and cells.cod == n:
            index[d] = None  # a cell is its label's index
        elif X.site is cubes and all(isinstance(c, CubeMap) and c.cod == n
                                     for c in cells):
            index[d] = {cubes.index(c): i for i, c in enumerate(cells)}
        else:
            raise ValueError(f"S{n} permutes axes only of a cubical set "
                             f"whose cells are maps into I^{n}")

    def act(perm: tuple[int, ...], d: int) -> Table:
        image = [0]  # of each map I^d -> I^n, by index
        for i in range(n):
            weight = (d + 2) ** (n - perm[i])
            image = [x + v * weight for x in image for v in range(d + 2)]
        if index[d] is None:
            return tuple(image)
        return tuple(index[d].get(image[cubes.index(c)], -1)
                     for c in X.levels[d])
    return act


def quotient_by_group(X: FinPresheaf, group: GroupAction,
                      level_action=None) -> FinPresheaf:
    """Levelwise orbit sets with the induced action; an orbit is labelled
    by its least member.

    ``level_action(perm, d)`` is the table of a permutation on level d; it
    must permute each level compatibly with the presheaf action, which is
    verified, as is well-definedness of the induced action.  By default
    axis permutations act on a representable (``symmetric_level_action``).
    """
    if level_action is None:
        level_action = symmetric_level_action(X, group.n)
    perm = {d: [level_action(p, d) for p in group.perms]
            for d in range(X.D + 1)}
    for d, tables in perm.items():
        if any(-1 in t for t in tables):
            raise ValueError(f"group action does not permute level {d}")
    homs = [(a, b, f) for a in range(X.D + 1) for b in range(X.D + 1)
            for f in X.site.maps(a, b)]
    for a, b, f in homs:
        ft = X.action[f]
        for pa, pb in zip(perm[a], perm[b]):
            if gather(ft, pb) != gather(pa, ft):
                raise ValueError(
                    "group action is not equivariant for the "
                    f"presheaf action at map {f} ({a} -> {b})")
    orbit: dict[int, list[Cell]] = {}  # cell of X -> cell of the quotient
    first: dict[int, list[Cell]] = {}  # cell of the quotient -> of X
    levels: dict[int, tuple[Label, ...]] = {}
    for d, tables in perm.items():
        rep = [min(t[c] for t in tables) for c in X.cells(d)]
        number = {r: i for i, r in enumerate(sorted(set(rep)))}
        orbit[d] = [number[r] for r in rep]
        first[d] = list(map(orbit[d].index, range(len(number))))
        levels[d] = tuple(X.levels[d][r] for r in number)
    induced: dict[int, Table] = {}  # read at first members, checked on all
    for a, b, f in homs:
        image = gather(orbit[a], X.action[f])  # by cell of X
        t = induced[f] = gather(image, first[b])
        if gather(t, orbit[b]) != image:
            raise ValueError("induced action is not well-defined")
    return build_presheaf(X.site, X.D, levels,
                          lambda a, b, i: induced[X.site.maps(a, b)[i]])


# ---------------------------------------------------------------------------
# degeneracy structure

def nondegenerate(X: FinPresheaf, d: int) -> tuple[Cell, ...]:
    """Cells at level d not in the image of any non-invertible split epi."""
    degenerate: set[Cell] = set()
    for e in X.site.split_epis(d):
        degenerate.update(X.action[e])
    return tuple(c for c in X.cells(d) if c not in degenerate)


# ---------------------------------------------------------------------------
# isomorphism search

@dataclass
class IsoResult:
    found: bool
    witness: dict[int, Table] | None = None  # level -> X's cell -> Y's
    reason: str = ""
    nodes: int = 0


def iso_search(X: FinPresheaf, Y: FinPresheaf,
               budget: int = 500_000) -> IsoResult:
    """Levelwise bijections commuting with every operator, or a refutation.

    Backtracking over levels in ascending order; candidates are pruned by
    the already-fixed images of all lower-level restrictions.
    """
    if X.site != Y.site or X.D != Y.D:
        return IsoResult(False, reason="site or truncation mismatch")
    for d in range(X.D + 1):
        if len(X.levels[d]) != len(Y.levels[d]):
            return IsoResult(
                False,
                reason=f"level-size mismatch at dimension {d}: "
                       f"{len(X.levels[d])} vs {len(Y.levels[d])}")
    # per level b: (a, X's table, Y's table) of each map into b from a < b,
    # the two tables of each endo of b, and Y's cells by their restrictions
    down = {b: [(a, X.action[f], Y.action[f])
                for a in range(b) for f in X.site.maps(a, b)]
            for b in range(X.D + 1)}
    endo = {b: [(X.action[f], Y.action[f]) for f in X.site.maps(b, b)]
            for b in range(X.D + 1)}
    y_by_sig: dict[int, dict[tuple, list[Cell]]] = {b: {} for b in down}
    for b, by_sig in y_by_sig.items():
        for y in Y.cells(b):
            by_sig.setdefault(tuple(t[y] for _, _, t in down[b]), []).append(y)
    phi: dict[int, Table] = {}
    nodes = 0

    def assign_level(b: int) -> bool:
        nonlocal nodes
        if b > X.D:
            return True
        cur: list[Cell] = []  # the images of X's cells 0, 1, ... at level b
        used: set[Cell] = set()

        def consistent(x: Cell, y: Cell) -> bool:
            for xt, yt in endo[b]:
                fx = xt[x]
                if fx < len(cur) and cur[fx] != yt[y]:
                    return False
                for x2, y2 in enumerate(cur):
                    if xt[x2] == x and yt[y2] != y:
                        return False
            return True

        def place(x: int) -> bool:
            nonlocal nodes
            if x == len(X.levels[b]):
                phi[b] = tuple(cur)
                if assign_level(b + 1):
                    return True
                del phi[b]
                return False
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"iso search exceeded budget {budget}")
            want_sig = tuple(phi[a][xt[x]] for a, xt, _ in down[b])
            for y in y_by_sig[b].get(want_sig, []):
                if y in used or not consistent(x, y):
                    continue
                cur.append(y)
                used.add(y)
                if place(x + 1):
                    return True
                cur.pop()
                used.discard(y)
            return False

        return place(0)

    if assign_level(0):
        return IsoResult(True, witness=phi, nodes=nodes)
    return IsoResult(False, reason="exhausted all level bijections",
                     nodes=nodes)


class BudgetExceeded(Exception):
    pass
