"""Dimension-truncated finite presheaves with materialized action tables.

A ``FinPresheaf`` over a site stores, for every site morphism between levels
<= D, the induced function on cells.  A site is the module of its category,
``cubes`` or ``simplicial``, which provides ``maps(a, b)`` (morphisms
dom=a -> cod=b), ``identity(n)``, ``compose(g, f)`` and ``split_epis(d)``
(the non-invertible split epis out of level d).  Cells are arbitrary
hashable, sortable values.  All checks here are bounded certificates: they
are exhaustive for the truncation D but say nothing beyond it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Hashable

from . import cubes
from .cubes import (CubeMap, GroupAction, compose as cube_compose,
                    enumerate_hom, perm_cube_map)

Cell = Hashable


@dataclass(eq=False)
class FinPresheaf:
    site: ModuleType
    D: int
    levels: dict[int, tuple[Cell, ...]]
    action: dict  # site map -> {cell at cod level -> cell at dom level}

    def act(self, f, cell: Cell) -> Cell:
        return self.action[f][cell]

    def level_sizes(self) -> list[int]:
        return [len(self.levels[d]) for d in range(self.D + 1)]


def build_presheaf(site: ModuleType, D: int,
                   levels: dict[int, tuple[Cell, ...]],
                   fn: Callable[[object, Cell], Cell]) -> FinPresheaf:
    """Materialize the action of every site map between levels <= D."""
    action = {}
    for a in range(D + 1):
        for b in range(D + 1):
            for f in site.maps(a, b):
                action[f] = {c: fn(f, c) for c in levels[b]}
    level_sets = {d: set(levels[d]) for d in range(D + 1)}
    for f, table in action.items():
        if not level_sets[f.dom].issuperset(table.values()):
            raise ValueError(f"action of {f!r} leaves the level sets")
    return FinPresheaf(site, D, levels, action)


def check_functorial(X: FinPresheaf) -> bool:
    """Identity and composition laws, exhaustively over the truncation."""
    s = X.site
    for n in range(X.D + 1):
        ident = s.identity(n)
        for c in X.levels[n]:
            if X.act(ident, c) != c:
                return False
    for a in range(X.D + 1):
        for b in range(X.D + 1):
            for c_dim in range(X.D + 1):
                for f in s.maps(a, b):
                    for g in s.maps(b, c_dim):
                        gf = s.compose(g, f)
                        for cell in X.levels[c_dim]:
                            if X.act(gf, cell) != X.act(f, X.act(g, cell)):
                                return False
    return True


# ---------------------------------------------------------------------------
# standard objects

def representable_cube(n: int, D: int) -> FinPresheaf:
    levels = {d: tuple(sorted(enumerate_hom(d, n))) for d in range(D + 1)}
    return build_presheaf(cubes, D, levels,
                          lambda f, c: cube_compose(c, f))


def terminal_cube(D: int) -> FinPresheaf:
    return representable_cube(0, D)


def product(X: FinPresheaf, Y: FinPresheaf) -> FinPresheaf:
    if X.site != Y.site or X.D != Y.D:
        raise ValueError("product requires matching site and truncation")
    levels = {d: tuple(sorted(itertools.product(X.levels[d], Y.levels[d])))
              for d in range(X.D + 1)}
    return build_presheaf(X.site, X.D, levels,
                          lambda f, c: (X.act(f, c[0]), Y.act(f, c[1])))


# ---------------------------------------------------------------------------
# group quotients

def symmetric_level_action(X: FinPresheaf):
    """Postcomposition action of axis permutations on a representable."""
    def act(perm: tuple[int, ...], d: int, cell: Cell) -> Cell:
        return cube_compose(perm_cube_map(perm), cell)
    return act


def quotient_by_group(X: FinPresheaf, group: GroupAction,
                      level_action=None) -> FinPresheaf:
    """Levelwise orbit sets with the induced action.

    ``level_action(perm, d, cell)`` must permute each level compatibly with
    the presheaf action; this is verified, as is well-definedness of the
    induced action.
    """
    if level_action is None:
        if X.site is not cubes or not all(
                isinstance(c, CubeMap) and c.cod == group.n
                for cells in X.levels.values() for c in cells):
            raise ValueError(f"S{group.n} permutes axes only of a cubical "
                             f"set whose cells are maps into I^{group.n}")
        level_action = symmetric_level_action(X)
    for d in range(X.D + 1):
        level = set(X.levels[d])
        if any(level_action(p, d, c) not in level
               for p in group.perms for c in X.levels[d]):
            raise ValueError(f"group action does not permute level {d}")
    # equivariance of the level action w.r.t. the cubical action
    for a in range(X.D + 1):
        for b in range(X.D + 1):
            for f in X.site.maps(a, b):
                for p in group.perms:
                    for c in X.levels[b]:
                        if X.act(f, level_action(p, b, c)) != \
                                level_action(p, a, X.act(f, c)):
                            raise ValueError(
                                "group action is not equivariant for the "
                                f"presheaf action at {f!r}")
    orbit_rep: dict[tuple[int, Cell], Cell] = {}
    levels: dict[int, tuple[Cell, ...]] = {}
    for d in range(X.D + 1):
        assigned: dict[Cell, Cell] = {}
        for c in sorted(X.levels[d]):
            if c in assigned:
                continue
            orbit = sorted({level_action(p, d, c) for p in group.perms})
            rep = orbit[0]
            for m in orbit:
                assigned[m] = rep
        for c, rep in assigned.items():
            orbit_rep[(d, c)] = rep
        levels[d] = tuple(sorted(set(assigned.values())))

    def induced(f, rep_cell):
        members = [c for c in X.levels[f.cod]
                   if orbit_rep[(f.cod, c)] == rep_cell]
        images = {orbit_rep[(f.dom, X.act(f, m))] for m in members}
        if len(images) != 1:
            raise ValueError("induced action is not well-defined")
        return images.pop()

    return build_presheaf(X.site, X.D, levels, induced)


# ---------------------------------------------------------------------------
# degeneracy structure

def nondegenerate(X: FinPresheaf, d: int) -> tuple[Cell, ...]:
    """Cells at level d not in the image of any non-invertible split epi."""
    degenerate: set[Cell] = set()
    for e in X.site.split_epis(d):
        degenerate.update(X.action[e].values())
    return tuple(c for c in X.levels[d] if c not in degenerate)


# ---------------------------------------------------------------------------
# isomorphism search

@dataclass
class IsoResult:
    found: bool
    witness: dict[int, dict[Cell, Cell]] | None = None
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
    down_maps = {b: [f for a in range(b) for f in X.site.maps(a, b)]
                 for b in range(X.D + 1)}
    endo_maps = {b: X.site.maps(b, b) for b in range(X.D + 1)}
    phi: dict[int, dict[Cell, Cell]] = {}
    nodes = 0

    def assign_level(b: int) -> bool:
        nonlocal nodes
        if b > X.D:
            return True
        inv_lower = {}  # X cell -> Y cell at lower levels
        for d in range(b):
            inv_lower.update(phi[d])
        xs = list(X.levels[b])
        y_by_sig: dict = {}
        for y in Y.levels[b]:
            y_by_sig.setdefault(
                tuple(Y.act(f, y) for f in down_maps[b]), []).append(y)

        cur: dict[Cell, Cell] = {}
        used: set[Cell] = set()

        def consistent(x: Cell, y: Cell) -> bool:
            for f in endo_maps[b]:
                fx = X.act(f, x)
                if fx in cur and cur[fx] != Y.act(f, y):
                    return False
                for x2, y2 in cur.items():
                    if X.act(f, x2) == x and Y.act(f, y2) != y:
                        return False
            return True

        def place(i: int) -> bool:
            nonlocal nodes
            if i == len(xs):
                phi[b] = dict(cur)
                if assign_level(b + 1):
                    return True
                del phi[b]
                return False
            x = xs[i]
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"iso search exceeded budget {budget}")
            want_sig = tuple(inv_lower[X.act(f, x)] for f in down_maps[b])
            for y in y_by_sig.get(want_sig, []):
                if y in used or not consistent(x, y):
                    continue
                cur[x] = y
                used.add(y)
                if place(i + 1):
                    return True
                del cur[x]
                used.discard(y)
            return False

        return place(0)

    if assign_level(0):
        return IsoResult(True, witness=phi, nodes=nodes)
    return IsoResult(False, reason="exhausted all level bijections",
                     nodes=nodes)


class BudgetExceeded(Exception):
    pass
