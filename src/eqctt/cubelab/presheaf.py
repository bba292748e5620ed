"""Dimension-truncated finite presheaves with action tables built when read.

A ``FinPresheaf`` over a site gives, for every site morphism between levels
<= D, the induced function on cells, built when first read.  A site is the
module of its category, ``cubes`` or ``simplicial``, which provides
``maps(a, b)`` (the numbers of the morphisms dom=a -> cod=b, in hom-set
order), ``count(a, b)`` (how many) and ``generators(b)``: the numbers of
the lowering maps b-1 -> b (monos), the raising maps b -> b-1 (split epis)
and the symmetries of b (involutions).  Both sites are Eilenberg-Zilber
categories: every map is a mono after a split epi, a mono into b from lower
factors through a lowering map, a split epi out of b to lower through a
raising map, and the symmetries generate the automorphisms of b.  So every
map is a composite of generators, and as presheaf actions are functorial, a
check that holds on the generators holds on every map; the checks here read
only those tables.

Site maps and cells are integers: ``action[f]`` is the table of the map
numbered f, and a cell at level d is its position in ``levels[d]``, that
level's labels in sorted order, which are used only to print reports.
Position order is label order, so every "least" or "sorted" choice reads the
same on either.  All checks here are bounded certificates: they are
exhaustive for the truncation D but say nothing beyond it.
"""

from __future__ import annotations

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


class FinPresheaf:
    __slots__ = ("site", "D", "levels", "action")

    def __init__(self, site: ModuleType, D: int,
                 levels: dict[int, Sequence[Label]], action: Action):
        self.site, self.D, self.levels = site, D, levels
        self.action = action  # map a -> b, by number: level b to level a

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

    ``level_action(perm, d)`` is the table of a permutation on level d
    (by default ``symmetric_level_action``); it must permute each level and
    commute with the presheaf action, which is checked for every member on
    the generators of the site.  An induced table is built, and checked to
    be well defined, when it is first read.
    """
    if level_action is None:
        level_action = symmetric_level_action(X, group.n)
    perm = {d: [level_action(p, d) for p in group.perms]
            for d in range(X.D + 1)}
    for d, tables in perm.items():
        if any(-1 in t for t in tables):
            raise ValueError(f"group action does not permute level {d}")
    for f in (f for d in perm for gens in X.site.generators(d) for f in gens):
        ft, (_, a, b) = X.action[f], map_of(f)
        if any(gather(ft, pb) != gather(pa, ft)
               for pa, pb in zip(perm[a], perm[b])):
            raise ValueError("group action is not equivariant for the "
                             f"presheaf action at map {f} ({a} -> {b})")
    orbit: dict[int, list[Cell]] = {}  # cell of X -> cell of the quotient
    first: dict[int, list[Cell]] = {}  # cell of the quotient -> of X
    levels: dict[int, tuple[Label, ...]] = {}
    for d, tables in perm.items():
        rep = list(map(min, zip(*tables)))  # each cell's least image
        number = {r: i for i, r in enumerate(sorted(set(rep)))}
        orbit[d] = [number[r] for r in rep]
        first[d] = list(map(orbit[d].index, range(len(number))))
        levels[d] = tuple(X.levels[d][r] for r in number)

    def table(a: int, b: int, i: int) -> Table:  # read at first members
        image = gather(orbit[a], X.action[X.site.maps(a, b)[i]])
        t = gather(image, first[b])
        if gather(t, orbit[b]) != image:
            raise ValueError("induced action is not well-defined")
        return t
    return build_presheaf(X.site, X.D, levels, table)


# ---------------------------------------------------------------------------
# degeneracy structure

def nondegenerate(X: FinPresheaf, d: int) -> tuple[Cell, ...]:
    """Cells at level d hit by no raising map, so by no split epi to lower."""
    degenerate = {c for e in X.site.generators(d)[1] for c in X.action[e]}
    return tuple(c for c in X.cells(d) if c not in degenerate)


# ---------------------------------------------------------------------------
# isomorphism search

class IsoResult:
    __slots__ = ("found", "witness", "reason", "nodes")

    def __init__(self, found: bool, witness: dict[int, Table] | None = None,
                 reason: str = "", nodes: int = 0):
        self.found = found
        self.witness = witness  # level -> X's cell -> Y's
        self.reason, self.nodes = reason, nodes


def iso_search(X: FinPresheaf, Y: FinPresheaf,
               budget: int = 500_000) -> IsoResult:
    """The least levelwise bijection commuting with every operator, or a
    refutation.

    Backtracking over levels in ascending order and over each level's cells
    in order, reading only the generators: a cell's candidates are the cells
    with its images under the lowering maps, a cell w.e for a raising map e
    goes to phi(w).e, and each symmetry is checked on the cells placed.
    """
    if X.site != Y.site or X.D != Y.D:
        return IsoResult(False, reason="site or truncation mismatch")
    for d, (m, n) in enumerate(zip(X.level_sizes(), Y.level_sizes())):
        if m != n:
            return IsoResult(False, reason="level-size mismatch at "
                             f"dimension {d}: {m} vs {n}")
    gens = [[[(X.action[f], Y.action[f]) for f in fs]
             for fs in X.site.generators(b)] for b in range(X.D + 1)]
    by_key: list[dict[tuple, list[Cell]]] = [{} for _ in gens]
    for b, cells in enumerate(by_key):  # Y's cells by lowering images
        for y in Y.cells(b):
            cells.setdefault(tuple(t[y] for _, t in gens[b][0]), []).append(y)
    phi: list[list[Cell]] = [[]]  # X's cells' images, by level
    forced: list[dict[Cell, Cell]] = [{}]  # x = w.e goes to phi(w).e
    nodes = 0

    def place(b: int, x: int) -> bool:
        nonlocal nodes
        if x == len(X.levels[b]):  # on to level b + 1
            if b == X.D:
                return True
            below, force = phi[b], {}
            for xt, yt in gens[b + 1][1]:
                for w, c in enumerate(xt):
                    if force.setdefault(c, yt[below[w]]) != yt[below[w]]:
                        return False
            phi.append([])
            forced.append(force)
            if place(b + 1, 0):
                return True
            del phi[-1], forced[-1]
            return False
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"iso search exceeded budget {budget}")
        (lowering, _, symmetries), cur = gens[b], phi[b]
        cands = by_key[b].get(
            tuple(phi[b - 1][xt[x]] for xt, _ in lowering), ())
        if x in forced[b]:
            cands = [forced[b][x]] if forced[b][x] in cands else []
        for y in cands:
            # a symmetry s is an involution: check s.x once it is placed
            if y in cur or any(xt[x] <= x and yt[y] != (
                    cur[xt[x]] if xt[x] < x else y) for xt, yt in symmetries):
                continue
            cur.append(y)
            if place(b, x + 1):
                return True
            cur.pop()
        return False

    if place(0, 0):
        return IsoResult(True, witness=dict(enumerate(map(tuple, phi))),
                         nodes=nodes)
    return IsoResult(False, reason="exhausted all level bijections",
                     nodes=nodes)


class BudgetExceeded(Exception):
    pass
