"""Open boxes and bounded equivariant-lifting certificates.

A generating trivial cofibration is determined by a subobject C of I^n and a
point zeta : I^n -> I^k: the open box is the union of the graph of zeta with
C x I^k inside I^n x I^k.  A morphism of boxes is a cube map alpha paired
with an automorphism sigma of I^k such that the subobject pulls back along
alpha and xi = sigma . zeta . alpha; it induces alpha x sigma^{-1} between
the boxes, and chosen lifts must commute with these.

I^n x I^k is the representable I^(n+k), so by Yoneda a bottom or a lift is
one cell at level n+k, and a top is one cell of X per generator of the box.
The check runs on integers: generators and box cells are cells of I^(n+k),
that is maps into it by index or number, g . h is computed from the digits
of g (``cubes.composites``), and so are the box morphisms.  Cube maps are
built only as labels, to print reports.
Everything here is a bounded certificate at truncation D: lifting is decided
exhaustively, and uniformity is a finite constraint-satisfaction search over
per-square lift choices.
"""

from __future__ import annotations

from functools import cache

from . import cubes
from .cubes import (composites, count, cube_map, full_symmetric, hom_tables,
                    is_mono, maps, middles, mids_index)
from .presheaf import (BudgetExceeded, Cell, FinPresheaf, build_presheaf,
                       gather, nondegenerate, product, representable_cube,
                       terminal_cube)


# ---------------------------------------------------------------------------
# subpresheaves of a representable

def close_cells(X: FinPresheaf, seed: dict[int, set]) -> dict[int, frozenset]:
    """Close a family of cell sets under the whole presheaf action: by
    functoriality the images of the seed cells are already closed."""
    return {a: frozenset(X.act(f, c) for b, cells in seed.items()
                         for f in X.site.maps(a, b) for c in cells)
            for a in range(X.D + 1)}


def enumerate_subpresheaves(X: FinPresheaf, spend=lambda count: None
                            ) -> list[dict[int, frozenset]]:
    """All subpresheaves of X: the unions of principal subpresheaves of
    nondegenerate cells, since every cell is a degeneracy of one.
    ``spend(count)`` is charged for the unions of each step.  A candidate
    is one int with a bit per cell, the levels laid end to end."""
    offset = [0]
    for a in range(X.D + 1):
        offset.append(offset[-1] + len(X.levels[a]))
    subs = {0}
    for d in range(X.D + 1):
        for c in nondegenerate(X, d):
            p = sum(1 << (offset[a] + x)
                    for a, cells in close_cells(X, {d: {c}}).items()
                    for x in cells)
            spend(len(subs))
            subs |= {s | p for s in subs}
    out = [{a: frozenset(x for x in range(len(X.levels[a]))
                         if s >> (offset[a] + x) & 1)
            for a in range(X.D + 1)} for s in subs]
    return sorted(out, key=lambda sub: tuple(
        (d, tuple(sorted(cells))) for d, cells in sub.items()))


def sub_vertex(n: int, D: int, endpoint: int) -> dict[int, frozenset]:
    """The subpresheaf of I^n generated by the all-0 or all-1 vertex, the
    cell whose n binary digits are all 0 or all 1."""
    vertex = 0 if endpoint == 0 else 2 ** n - 1
    return close_cells(representable_cube(n, D), {0: {vertex}})


def sub_empty(n: int, D: int) -> dict[int, frozenset]:
    return {d: frozenset() for d in range(D + 1)}


def sub_full(n: int, D: int) -> dict[int, frozenset]:
    return {d: frozenset(range(count(d, n))) for d in range(D + 1)}


# ---------------------------------------------------------------------------
# open boxes

def build_open_box(n: int, k: int, C: dict[int, frozenset], zeta: int,
                   D: int) -> tuple[FinPresheaf, FinPresheaf]:
    """The inclusion of the open box of a subobject C of I^n (its cells, per
    level) and the map zeta : I^n -> I^k with this index into I^n x I^k, as
    (domain, ambient).

    The pair (a, b) at level d is the ambient cell a * |Hom(I^d, I^k)| + b.
    The domain holds the pairs (a, zeta . a), and (c, b) with c in C_d.  The
    inclusion is the identity on labels, hence levelwise injective.
    """
    if n + k > D:
        raise ValueError("n + k exceeds the truncation bound")
    amb = product(representable_cube(n, D), representable_cube(k, D))
    levels = {}
    for d in range(D + 1):
        w = count(d, k)
        graph = enumerate(composites(k, n, zeta, d))
        levels[d] = sorted({a * w + z for a, z in graph} |
                           {c * w + b for c in C[d] for b in range(w)})
    position = {d: {e: i for i, e in enumerate(cells)}
                for d, cells in levels.items()}
    return build_presheaf(
        cubes, D, {d: tuple(amb.levels[d][e] for e in cells)
                   for d, cells in levels.items()},
        lambda a, b, i: gather(position[a], gather(
            amb.action[maps(a, b)[i]], levels[b]))), amb


def horn_box_domain(D: int) -> FinPresheaf:
    """The shipped non-fibration shape: the open box of (n=1, k=1,
    C = vertex 0, zeta = constant 0) as a subobject of I^2 = I^1 x I^1."""
    return build_open_box(1, 1, sub_vertex(1, D, 0), 0, D)[0]


# ---------------------------------------------------------------------------
# natural transformations

class PresheafMap:
    __slots__ = ("src", "dst", "components")

    def __init__(self, src: FinPresheaf, dst: FinPresheaf,
                 components: dict[int, dict[Cell, Cell]]):
        self.src, self.dst, self.components = src, dst, components

    def __call__(self, d: int, cell: Cell) -> Cell:
        return self.components[d][cell]


def presheaf_map_to_terminal(X: FinPresheaf) -> PresheafMap:
    T = terminal_cube(X.D)
    comp = {d: {c: 0 for c in X.cells(d)} for d in range(X.D + 1)}
    return PresheafMap(X, T, comp)


def is_natural(A: FinPresheaf, B: FinPresheaf,
               components: dict[int, dict[Cell, Cell]]) -> bool:
    return all(components[a][A.act(f, c)] == B.act(f, components[b][c])
               for a in range(A.D + 1) for b in range(A.D + 1)
               for f in A.site.maps(a, b) for c in A.cells(b))


def enumerate_natural_maps(A: FinPresheaf, B: FinPresheaf,
                           seed: dict[int, dict[Cell, Cell]] | None = None,
                           budget: int = 500_000) -> list[PresheafMap]:
    """All natural transformations A -> B by levelwise backtracking.

    ``seed`` pins images of some cells.  The lifting check finds maps out of
    representables by Yoneda instead; tests keep this search as its oracle.
    """
    cells = [(d, c) for d in range(A.D + 1) for c in A.cells(d)]
    assign: dict[tuple[int, Cell], Cell] = {
        (d, c): v for d, t in (seed or {}).items() for c, v in t.items()}
    out: list[PresheafMap] = []
    nodes = 0

    def ok(d: int, c: Cell, y: Cell) -> bool:
        # naturality against everything already assigned
        return all(assign.get((a, A.act(f, c)), B.act(f, y)) == B.act(f, y)
                   for a in range(A.D + 1) for f in A.site.maps(a, d)) and all(
            B.act(f, y2) == y for (a, c2), y2 in assign.items()
            for f in A.site.maps(d, a) if A.act(f, c2) == c)

    def place(i: int):
        nonlocal nodes
        if i == len(cells):
            comp = {d: {} for d in range(A.D + 1)}
            for (d, c), y in assign.items():
                comp[d][c] = y
            if is_natural(A, B, comp):
                out.append(PresheafMap(A, B, comp))
            return
        d, c = cells[i]
        if (d, c) in assign:
            if ok(d, c, assign[(d, c)]):
                place(i + 1)
            return
        for y in B.cells(d):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"natural-map search exceeded {budget}")
            if ok(d, c, y):
                assign[(d, c)] = y
                place(i + 1)
                del assign[(d, c)]

    place(0)
    return out


# ---------------------------------------------------------------------------
# equivariant lifting, by Yoneda, on integers

def _monos(m: int) -> list[tuple[int, int, int]]:
    """The monos into I^m, its nondegenerate cells, as (d, index, number)."""
    return [(d, h, number) for d in range(m + 1)
            for h, number in enumerate(maps(d, m))
            if is_mono(d, middles(d, m, h))]


def _product(a: int, u, b: int, v) -> int:
    """u x v : I^(a+b) -> I^(n+k) from the middles of u : I^a -> I^n (top
    moved to a + b + 1) and of v : I^b -> I^k (axis y moved to a + y)."""
    return mids_index(a + b, (*(a + b + 1 if x == a + 1 else x for x in u),
                              *(y and a + y for y in v)))


def _xi(m: int, alpha: tuple[int, ...], zeta: tuple[int, ...],
        p: tuple[int, ...]) -> int:
    """sigma . zeta . alpha : I^m -> I^k for the permutation p, from the
    table of alpha and the middles of zeta: alpha(zeta(p^{-1}(j))) at j."""
    return mids_index(m, [alpha[zeta[p.index(j)]]
                          for j in range(1, len(p) + 1)])


class Box:
    """An open box in I^N, N = n + k, of the ``sub``-th subobject C of I^n
    and the map I^n -> I^k with index ``zeta``.  A generator (m, g) is the
    map numbered g from I^m.  ``relations[i]`` holds each (h, j, h2), map
    numbers, with gens[i] . h = gens[j] . h2 nondegenerate and j < i;
    ``cells`` lists the nondegenerate box cells in sorted order as (i, h),
    the cell gens[i] . h.  Every cell is e . t with e nondegenerate and t a
    split epi, and generators are monos, so agreeing at e means agreeing at
    e . t."""
    __slots__ = ("n", "k", "sub", "C", "zeta", "gens", "relations", "cells")

    def __init__(self, n: int, k: int, sub: int, C: dict[int, frozenset],
                 zeta: int, gens: list[tuple[int, int]],
                 relations: list[list[tuple[int, int, int]]],
                 cells: list[tuple[int, int]]):
        self.n, self.k, self.sub, self.C, self.zeta = n, k, sub, C, zeta
        self.gens, self.relations, self.cells = gens, relations, cells

    @staticmethod
    def make(n: int, k: int, sub: int, C: dict[int, frozenset], zeta: int,
             image) -> "Box":
        """Generators: the graph <id, zeta> of zeta, and c x id for each
        nondegenerate c in C, higher cells first so that relations pin the
        images of their faces.  ``image(N, m, g)`` lists (h, e) for the
        monos h into I^m, by number, with e a key of g . h in sorted order,
        for the generator with index g."""
        N = n + k
        # the graph <id, zeta>: its index is index(id) * (n + 2)^k + zeta
        gens = [(n, mids_index(n, range(1, n + 1)) * (n + 2) ** k + zeta)]
        for d in sorted(C, reverse=True):
            for c in sorted(C[d]):
                mids = middles(d, n, c)
                if is_mono(d, mids):
                    gens.append((d + k, _product(d, mids, k, range(1, k + 1))))
        first: dict[int, tuple[int, int]] = {}
        relations: list[list] = []
        for i, (m, g) in enumerate(gens):
            relations.append([])
            for h, e in image(N, m, g):
                if e in first:
                    relations[i].append((h, *first[e]))
                else:
                    first[e] = (i, h)
        return Box(n, k, sub, C, zeta,
                   [(m, maps(m, N)[g]) for m, g in gens], relations,
                   [first[e] for e in sorted(first)])

    def tops(self, X: FinPresheaf, spend) -> list[tuple]:
        """The natural maps from the box to X, as generator images that agree
        on every relation, in the order ``enumerate_natural_maps`` finds
        them: by their images of the nondegenerate cells, which decide the
        rest.  ``spend(count)`` is charged for every candidate image."""
        act = X.action
        tops = [()]
        for (m, _), relations in zip(self.gens, self.relations):
            spend(len(tops) * len(X.levels[m]))
            pairs = [(act[h], j, act[h2]) for h, j, h2 in relations]
            tops = [top + (x,) for top in tops for x in X.cells(m)
                    if all(t[x] == t2[top[j]] for t, j, t2 in pairs)]
        if len(tops) < 2:
            return tops
        images = [(act[h], i) for i, h in self.cells]
        return sorted(tops, key=lambda top: tuple(
            t[top[i]] for t, i in images))

    def top_map(self, X: FinPresheaf, top: tuple) -> dict[int, dict]:
        """A top's image of every box cell g . h of I^N, by level and then
        index in sorted order: X.act(h, x) for the generator's image x."""
        N = self.n + self.k
        first: dict[tuple[int, int], tuple[int, int]] = {}
        for i, (m, g) in enumerate(self.gens):
            for d in range(X.D + 1):
                hs = maps(d, m)
                for h, e in enumerate(composites(
                        N, m, maps(m, N).index(g), d)):
                    first.setdefault((d, e), (i, hs[h]))
        components: dict[int, dict] = {d: {} for d in range(X.D + 1)}
        for (d, e), (i, h) in sorted(first.items()):
            components[d][e] = X.act(h, top[i])
        return components


def open_boxes(n_top: int, k_max: int, D: int, spend):
    """The open boxes with n <= n_top, 1 <= k <= k_max and n + k <= D in
    the check's order, the representables I^n and their subobjects; each
    generator's images are computed once for all boxes."""
    cubes_n = [representable_cube(n, D) for n in range(n_top + 1)]
    subs = [enumerate_subpresheaves(R, spend) for R in cubes_n]
    monos = cache(_monos)

    @cache
    def image(N: int, m: int, g: int) -> list[tuple[int, int]]:
        column = {d: composites(N, m, g, d) for d in range(m + 1)}
        return [(number, d * (N + 2) ** N + column[d][h])
                for d, h, number in monos(m)]

    boxes = [Box.make(n, k, i, C, zeta, image)
             for n in range(n_top + 1)
             for k in range(1, min(k_max, D - n) + 1)
             for zeta in range(count(n, k))
             for i, C in enumerate(subs[n])]
    return boxes, cubes_n, subs


def _refutation(box: Box, X: FinPresheaf, top: tuple) -> dict:
    """The refuting box and top; a box cell's label is the pair of maps
    I^d -> I^n and I^d -> I^k that split the digits of its index."""
    n, k = box.n, box.k
    return {"n": n, "k": k, "zeta": [0, *middles(n, k, box.zeta), n + 1],
            "C_sizes": [len(box.C[d]) for d in sorted(box.C)],
            "top": {str(d): {str((cube_map(d, n, e // (d + 2) ** k),
                                  cube_map(d, k, e % (d + 2) ** k))):
                             str(X.levels[d][x]) for e, x in t.items()}
                    for d, t in box.top_map(X, top).items()}}


class LiftReport:
    __slots__ = ("passed", "D", "bounds", "boxes", "squares", "refutation",
                 "detail")

    def __init__(self, passed: bool, D: int, bounds: dict):
        self.passed, self.D, self.bounds = passed, D, bounds
        self.boxes = self.squares = 0
        self.refutation: dict | None = None
        self.detail = ""

    def to_json(self) -> dict:
        out = {"passed": self.passed, "D": self.D, "bounds": self.bounds,
               "boxes": self.boxes, "squares": self.squares,
               "certificate": "bounded", "detail": self.detail}
        if self.refutation is not None:
            out["refutation"] = self.refutation
        return out


def check_equivariant_lifting(f: PresheafMap, n_max: int, k_max: int,
                              D: int, budget: int = 500_000) -> LiftReport:
    """Find the lifts against every open box within bounds, then a uniform
    equivariant choice of lifts.  A square is a top and a bottom y in Y at
    level n+k; its lifts are the cells x of X at level n+k with f(x) = y
    that restrict to the top.  Reports distinguish 'no lift exists' (with a
    refuting square) from 'lifts exist but no uniform equivariant choice
    exists within the bounds'.  ``budget`` caps the subobject unions, the
    top candidates and the uniformity nodes of the whole check together."""
    X, Y = f.src, f.dst
    report = LiftReport(False, D, {"n_max": n_max, "k_max": k_max})
    nodes = 0

    def spend(count: int = 1) -> None:
        nonlocal nodes
        nodes += count
        if nodes > budget:
            raise BudgetExceeded(f"lift check exceeded budget {budget}")

    # a box needs n + k <= D with k >= 1, so n <= D - 1
    n_top = min(n_max, D - 1)
    boxes, cubes_n, subs = open_boxes(n_top, k_max, D, spend)
    report.boxes = len(boxes)
    xact, yact = X.action, Y.action

    # the bottoms at level N in the order the natural-map search finds them:
    # by their restrictions to the nondegenerate cells of I^N
    @cache
    def rank(N: int) -> dict[Cell, int]:
        tables = [yact[h] for _, _, h in _monos(N)]
        return {y: r for r, y in enumerate(sorted(
            Y.cells(N), key=lambda y: tuple(t[y] for t in tables)))}

    # squares (box number b, top, y) and their lifts, in the order the
    # searches found them; x lifts the square square_of[b, x]
    squares: dict[tuple, list[Cell]] = {}
    square_of: dict[tuple[int, Cell], tuple] = {}
    for b, box in enumerate(boxes):
        N = box.n + box.k
        lifts: dict[tuple, list[Cell]] = {}
        gens = [xact[g] for _, g in box.gens]
        for x in X.cells(N):
            key = square_of[b, x] = (
                b, tuple(t[x] for t in gens), f(N, x))
            lifts.setdefault(key, []).append(x)
        bottoms: dict[tuple, list[Cell]] = {}
        gens = [yact[g] for _, g in box.gens]
        for y in Y.cells(N):
            bottoms.setdefault(tuple(t[y] for t in gens), []).append(y)
        for top in box.tops(X, spend):
            below = bottoms.get(tuple(
                f(m, x) for (m, _), x in zip(box.gens, top)), [])
            if len(below) > 1:
                below = sorted(below, key=rank(N).__getitem__)
            for y in below:
                if (b, top, y) not in lifts:
                    report.refutation = _refutation(box, X, top)
                    report.detail = "no lift exists for this open box"
                    report.squares = len(squares) + 1
                    return report
                squares[b, top, y] = lifts[b, top, y]
    report.squares = len(squares)

    # box morphisms (alpha, sigma) into each box, as the number of their
    # domain box and the map alpha x sigma^{-1} : I^(m+k) -> I^(n+k)
    number = {(box.n, box.k, box.sub, box.zeta): b
              for b, box in enumerate(boxes)}
    sub_number = [{tuple(tuple(sorted(C[d])) for d in sorted(C)): i
                   for i, C in enumerate(s)} for s in subs]
    @cache
    def pullback(n: int, i: int, m: int, alpha: int) -> int:
        """The subobject of I^m of the cells c with alpha . c in the i-th
        subobject C of I^n: by Yoneda, I^n's action of c on alpha."""
        act, C = cubes_n[n].action, subs[n][i]
        return sub_number[m][tuple(
            tuple(c for c, h in enumerate(maps(d, m)) if act[h][alpha] in C[d])
            for d in range(D + 1))]

    perms = {k: full_symmetric(k).perms for k in range(1, min(k_max, D) + 1)}
    morphisms: list[list[tuple[int, int]]] = [[] for _ in boxes]
    for b, box in enumerate(boxes):
        n, k = box.n, box.k
        zeta = middles(n, k, box.zeta)
        for m in range(min(n_top, D - k) + 1):
            into = maps(m + k, n + k)
            for alpha, A in enumerate(hom_tables(m, n)):
                C = pullback(n, box.sub, m, alpha)
                # sigma^{-1} has the middles p
                morphisms[b] += [(number[m, k, C, _xi(m, A, zeta, p)],
                                  into[_product(m, A[1:-1], k, p)])
                                 for p in perms[k]]

    # the CSP: one lift per square, such that a lift x of a square forces
    # the lift X.act(G, x) on its pullback along every box morphism G
    def forced_by(key: tuple, x: Cell) -> dict | None:
        spend()
        forced = {key: x}
        for small, G in morphisms[key[0]]:
            x2 = xact[G][x]
            skey = square_of[small, x2]
            if choice.get(skey, forced.setdefault(skey, x2)) != x2:
                return None
        return forced

    keys = list(squares)
    choice: dict[tuple, Cell] = {}
    stack: list[tuple] = []  # (key index, untried lifts, squares it set)
    i = 0
    while i < len(keys):
        if keys[i] in choice:
            i += 1
            continue
        stack.append((i, iter(squares[keys[i]]), []))
        while stack:  # the next untried lift of the latest choice
            i, untried, assigned = stack[-1]
            for skey in assigned:
                del choice[skey]
            forced = next(filter(None, (forced_by(keys[i], x)
                                        for x in untried)), None)
            if forced is not None:
                assigned[:] = [s for s in forced if s not in choice]
                choice.update(forced)
                break
            stack.pop()
        else:
            report.detail = ("lifts exist but no uniform equivariant choice "
                             "exists within the bounds")
            return report
    report.passed = True
    report.detail = (f"uniform equivariant lifts chosen for {len(squares)} "
                     f"squares against {len(boxes)} boxes")
    return report
