"""Dimension-truncated finite presheaves with materialized action tables.

A ``FinPresheaf`` over a site stores, for every site morphism between levels
<= D, the induced function on cells.  A site is the module of its category,
``cubes`` or ``simplicial``, which provides ``maps(a, b)`` (morphisms
dom=a -> cod=b), ``count(a, b)`` (how many), ``identity(n)``,
``compose(g, f)`` and ``split_epis(d)`` (the non-invertible split epis out
of level d).

A cell at level d is its position in ``levels[d]``, the sorted tuple of that
level's labels (hashable, sortable values such as cube maps or pairs of
them), and ``action[f]`` is a tuple of positions.  Position order is label
order, so every "least" or "sorted" choice reads the same on either.  Labels
are used to build representables, to find orbits and to print reports.  All
checks here are bounded certificates: they are exhaustive for the truncation
D but say nothing beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Hashable

from . import cubes
from .cubes import (CubeMap, GroupAction, compose as cube_compose,
                    enumerate_hom, perm_cube_map)

Label = Hashable
Cell = int
Table = tuple[Cell, ...]  # the action of one site map, by cell


@dataclass(eq=False)
class FinPresheaf:
    site: ModuleType
    D: int
    levels: dict[int, tuple[Label, ...]]
    action: dict  # site map f -> Table from level f.cod to level f.dom

    def act(self, f, cell: Cell) -> Cell:
        return self.action[f][cell]

    def cells(self, d: int) -> range:
        return range(len(self.levels[d]))

    def level_sizes(self) -> list[int]:
        return [len(self.levels[d]) for d in range(self.D + 1)]


def build_presheaf(site: ModuleType, D: int,
                   levels: dict[int, tuple[Label, ...]],
                   table: Callable[[object], Table]) -> FinPresheaf:
    """Materialize the action of every site map f between levels <= D as
    ``table(f)``, checking that it sends level f.cod into level f.dom."""
    action = {}
    for a in range(D + 1):
        for b in range(D + 1):
            for f in site.maps(a, b):
                t = action[f] = table(f)
                if len(t) != len(levels[b]) or t and not (
                        0 <= min(t) and max(t) < len(levels[a])):
                    raise ValueError(f"action of {f!r} leaves the level sets")
    return FinPresheaf(site, D, levels, action)


def table_size(site: ModuleType, sizes: list[int]) -> int:
    """The entries ``build_presheaf`` materializes for levels of these
    sizes: one per site map f and cell at level f.cod."""
    return sum(site.count(a, b) * sizes[b]
               for a in range(len(sizes)) for b in range(len(sizes)))


def label_table(levels: dict[int, tuple[Label, ...]],
                fn: Callable[[object, Label], Label]) -> Callable:
    """``table`` for ``build_presheaf`` from an action on labels: the
    position of ``fn(f, c)`` for each label c at level f.cod (-1 for a label
    outside level f.dom, which ``build_presheaf`` rejects)."""
    index = _positions(levels)
    return lambda f: tuple(index[f.dom].get(fn(f, c), -1)
                           for c in levels[f.cod])


def _positions(levels: dict[int, tuple[Label, ...]]) -> dict[int, dict]:
    return {d: {c: i for i, c in enumerate(cells)}
            for d, cells in levels.items()}


def check_functorial(X: FinPresheaf) -> bool:
    """Identity and composition laws, exhaustively over the truncation."""
    s = X.site
    for n in range(X.D + 1):
        if X.action[s.identity(n)] != tuple(X.cells(n)):
            return False
    for a in range(X.D + 1):
        for b in range(X.D + 1):
            for c_dim in range(X.D + 1):
                for f in s.maps(a, b):
                    for g in s.maps(b, c_dim):
                        gf, ft = X.action[s.compose(g, f)], X.action[f]
                        if gf != tuple(ft[x] for x in X.action[g]):
                            return False
    return True


# ---------------------------------------------------------------------------
# standard objects

def representable_cube(n: int, D: int) -> FinPresheaf:
    """I^n: a cell I^d -> I^n is its middles read in base d + 2, its
    position in ``enumerate_hom`` order.  A map f acts on each middle v as
    ``f.table[v]``, so f's table is the n-fold product of ``f.table``."""
    levels = {d: tuple(enumerate_hom(d, n)) for d in range(D + 1)}

    def table(f) -> Table:
        t: Table = (0,)
        for _ in range(n):
            t = tuple(x * (f.dom + 2) + v for x in t for v in f.table)
        return t
    return build_presheaf(cubes, D, levels, table)


def terminal_cube(D: int) -> FinPresheaf:
    return representable_cube(0, D)


def product(X: FinPresheaf, Y: FinPresheaf) -> FinPresheaf:
    """Cell (i, j) at level d is i * |Y_d| + j, the position of the label
    pair in sorted order."""
    if X.site != Y.site or X.D != Y.D:
        raise ValueError("product requires matching site and truncation")
    levels = {d: tuple((x, y) for x in X.levels[d] for y in Y.levels[d])
              for d in range(X.D + 1)}

    def table(f) -> Table:
        width = len(Y.levels[f.dom])
        return tuple(x * width + y for x in X.action[f] for y in Y.action[f])
    return build_presheaf(X.site, X.D, levels, table)


# ---------------------------------------------------------------------------
# group quotients

def symmetric_level_action(X: FinPresheaf):
    """Postcomposition action of axis permutations on a representable."""
    def act(perm: tuple[int, ...], d: int, cell: Label) -> Label:
        return cube_compose(perm_cube_map(perm), cell)
    return act


def quotient_by_group(X: FinPresheaf, group: GroupAction,
                      level_action=None) -> FinPresheaf:
    """Levelwise orbit sets with the induced action; an orbit is labelled
    by its least member.

    ``level_action(perm, d, label)`` must permute each level's labels
    compatibly with the presheaf action; this is verified, as is
    well-definedness of the induced action.
    """
    if level_action is None:
        if X.site is not cubes or not all(
                isinstance(c, CubeMap) and c.cod == group.n
                for cells in X.levels.values() for c in cells):
            raise ValueError(f"S{group.n} permutes axes only of a cubical "
                             f"set whose cells are maps into I^{group.n}")
        level_action = symmetric_level_action(X)
    index = _positions(X.levels)
    perm = {d: [tuple(index[d].get(level_action(p, d, c), -1)
                      for c in X.levels[d]) for p in group.perms]
            for d in range(X.D + 1)}
    for d, tables in perm.items():
        if any(-1 in t for t in tables):
            raise ValueError(f"group action does not permute level {d}")
    for a in range(X.D + 1):
        for b in range(X.D + 1):
            for f in X.site.maps(a, b):
                ft = X.action[f]
                for pa, pb in zip(perm[a], perm[b]):
                    if any(ft[pb[c]] != pa[ft[c]] for c in X.cells(b)):
                        raise ValueError(
                            "group action is not equivariant for the "
                            f"presheaf action at {f!r}")
    orbit: dict[int, list[Cell]] = {}  # cell of X -> cell of the quotient
    levels: dict[int, tuple[Label, ...]] = {}
    for d, tables in perm.items():
        rep = [min(t[c] for t in tables) for c in X.cells(d)]
        number = {r: i for i, r in enumerate(sorted(set(rep)))}
        orbit[d] = [number[r] for r in rep]
        levels[d] = tuple(X.levels[d][r] for r in number)

    def induced(f) -> Table:
        image: dict[Cell, Cell] = {}  # per orbit, checked on every member
        for q, fc in zip(orbit[f.cod], X.action[f]):
            if image.setdefault(q, orbit[f.dom][fc]) != orbit[f.dom][fc]:
                raise ValueError("induced action is not well-defined")
        return tuple(image[q] for q in range(len(image)))

    return build_presheaf(X.site, X.D, levels, induced)


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
