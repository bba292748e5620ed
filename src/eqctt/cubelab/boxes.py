"""Open boxes and bounded equivariant-lifting certificates.

A generating trivial cofibration is determined by a subobject C of I^n and a
point zeta : I^n -> I^k: the open box is the union of the graph of zeta with
C x I^k inside I^n x I^k.  A morphism of boxes is a cube map alpha paired
with an automorphism sigma of I^k such that the subobject pulls back along
alpha and xi = sigma . zeta . alpha; it induces alpha x sigma^{-1} between
the boxes, and chosen lifts must commute with these.

I^n x I^k is the representable I^(n+k), so by Yoneda a bottom or a lift is
one cell at level n+k, and a top is one cell of X per generator of the box.
Everything here is a bounded certificate at truncation D: lifting is decided
exhaustively, and uniformity is a finite constraint-satisfaction search over
per-square lift choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import cubes
from .cubes import (CubeMap, compose, cube_identity, enumerate_hom,
                    full_symmetric, make_cube_map, perm_cube_map)
from .presheaf import (BudgetExceeded, Cell, FinPresheaf, build_presheaf,
                       label_table, nondegenerate, product,
                       representable_cube, terminal_cube)


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


def vertex_cell(n: int, endpoint: int) -> CubeMap:
    """The all-0 or all-1 vertex of I^n (bot/top of the domain <0>)."""
    e = 0 if endpoint == 0 else 1
    return CubeMap(0, n, (0, *([e] * n), 1))


def sub_vertex(n: int, D: int, endpoint: int) -> dict[int, frozenset]:
    """The subpresheaf of I^n generated by the all-0 or all-1 vertex."""
    In = representable_cube(n, D)
    return close_cells(In, {0: {In.levels[0].index(vertex_cell(n, endpoint))}})


def sub_empty(n: int, D: int) -> dict[int, frozenset]:
    return {d: frozenset() for d in range(D + 1)}


def sub_full(n: int, D: int) -> dict[int, frozenset]:
    return {d: frozenset(range(len(enumerate_hom(d, n))))
            for d in range(D + 1)}


# ---------------------------------------------------------------------------
# open boxes

@dataclass(frozen=True)
class OpenBoxSpec:
    """n, k, a subobject C of I^n (the cells of I^n in it, per level), and
    zeta: I^n -> I^k."""
    n: int
    k: int
    C: tuple[tuple[int, tuple[Cell, ...]], ...]  # frozen per-level cell sets
    zeta: CubeMap

    @staticmethod
    def make(n: int, k: int, C: dict[int, frozenset], zeta: CubeMap) -> "OpenBoxSpec":
        if k < 1:
            raise ValueError("open boxes need k >= 1")
        if zeta.dom != n or zeta.cod != k:
            raise ValueError("zeta must map I^n to I^k")
        frozen = tuple((d, tuple(sorted(C[d]))) for d in sorted(C))
        return OpenBoxSpec(n, k, frozen, zeta)


def build_open_box(spec: OpenBoxSpec, D: int) -> tuple[FinPresheaf, FinPresheaf]:
    """The inclusion of the open box into I^n x I^k, as (domain, ambient).

    Domain labels at level d: pairs (a, zeta . a) for a in (I^n)_d, plus
    pairs (c, b) with c in C_d.  The inclusion is the identity on labels,
    hence levelwise injective.
    """
    if spec.n + spec.k > D:
        raise ValueError("n + k exceeds the truncation bound")
    In = representable_cube(spec.n, D)
    Ik = representable_cube(spec.k, D)
    amb = product(In, Ik)
    C = dict(spec.C)
    levels = {}
    for d in range(D + 1):
        cells = {(a, compose(spec.zeta, a)) for a in In.levels[d]}
        cells |= {(In.levels[d][c], b) for c in C[d] for b in Ik.levels[d]}
        levels[d] = tuple(sorted(cells))
    return build_presheaf(cubes, D, levels, label_table(
        levels, lambda f, c: (compose(c[0], f), compose(c[1], f)))), amb


def horn_box_domain(D: int) -> FinPresheaf:
    """The shipped non-fibration shape: the open box of (n=1, k=1,
    C = vertex 0, zeta = constant 0) as a subobject of I^2 = I^1 x I^1."""
    spec = OpenBoxSpec.make(
        1, 1, sub_vertex(1, D, 0),
        CubeMap(1, 1, (0, 0, 2)))  # constant 0 map I^1 -> I^1
    return build_open_box(spec, D)[0]


# ---------------------------------------------------------------------------
# natural transformations

@dataclass
class PresheafMap:
    src: FinPresheaf
    dst: FinPresheaf
    components: dict[int, dict[Cell, Cell]]

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
    maps_between = {(a, b): A.site.maps(a, b)
                    for a in range(A.D + 1) for b in range(A.D + 1)}
    out: list[PresheafMap] = []
    nodes = 0

    def ok(d: int, c: Cell, y: Cell) -> bool:
        # naturality against everything already assigned
        for a in range(A.D + 1):
            for f in maps_between[(a, d)]:
                img = assign.get((a, A.act(f, c)))
                if img is not None and img != B.act(f, y):
                    return False
            for f in maps_between[(d, a)]:
                for (a2, c2), y2 in assign.items():
                    if a2 == a and A.act(f, c2) == c and B.act(f, y2) != y:
                        return False
        return True

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
# equivariant lifting, by Yoneda

def _pair(u: CubeMap, v: CubeMap) -> CubeMap:
    """The map <u, v> : I^a -> I^n x I^k = I^(n+k)."""
    return make_cube_map(u.dom, u.cod + v.cod, u.table[1:-1] + v.table[1:-1])


def _product(u: CubeMap, v: CubeMap) -> CubeMap:
    """u x v = <u . p1, v . p2> : I^(a+b) -> I^(n+k), for u : I^a -> I^n
    and v : I^b -> I^k."""
    a, b = u.dom, v.dom
    p1 = make_cube_map(a + b, a, tuple(range(1, a + 1)))
    p2 = make_cube_map(a + b, b, tuple(range(a + 1, a + b + 1)))
    return _pair(compose(u, p1), compose(v, p2))


def _nondegenerate(c: CubeMap) -> bool:
    """A cell I^d -> I^n is nondegenerate iff its table hits every axis."""
    return set(range(1, c.dom + 1)) <= set(c.table)


@dataclass
class Box:
    """An open box as cells of I^(n+k): ``cells`` lists each box cell in
    sorted order as (cell, i, h) with cell = gens[i] . h, and ``relations[i]``
    holds each (h, j, h2) with gens[i] . h = gens[j] . h2 nondegenerate and
    j < i.  Every cell is e . t with e nondegenerate and t a split epi, and
    generators are monos, so agreeing at e means agreeing at e . t."""
    spec: OpenBoxSpec
    gens: list[CubeMap]
    cells: list[tuple[CubeMap, int, CubeMap]]
    relations: list[list[tuple[CubeMap, int, CubeMap]]]

    @staticmethod
    def make(spec: OpenBoxSpec, D: int) -> "Box":
        """Generators: the graph (id, zeta) of zeta, and c x id for each
        nondegenerate c in C, higher cells first so that relations pin the
        images of their faces."""
        gens = [_pair(cube_identity(spec.n), spec.zeta)]
        for d, cells in reversed(spec.C):
            level = enumerate_hom(d, spec.n)
            gens += [_product(level[c], cube_identity(spec.k)) for c in cells
                     if _nondegenerate(level[c])]
        first: dict[CubeMap, tuple[int, CubeMap]] = {}
        relations: list[list] = [[] for _ in gens]
        for i, g in enumerate(gens):
            for d in range(D + 1):
                for h in enumerate_hom(d, g.dom):
                    e = compose(g, h)
                    if e not in first:
                        first[e] = (i, h)
                    elif _nondegenerate(e):
                        relations[i].append((h, *first[e]))
        return Box(spec, gens,
                   [(e, i, h) for e, (i, h) in sorted(first.items())],
                   relations)

    def tops(self, X: FinPresheaf, spend) -> list[tuple]:
        """The natural maps from the box to X, as generator images that agree
        on every relation, in the order ``enumerate_natural_maps`` finds
        them.  ``spend(count)`` is charged for every candidate image."""
        tops = [()]
        for g, relations in zip(self.gens, self.relations):
            spend(len(tops) * len(X.levels[g.dom]))
            tops = [top + (x,) for top in tops for x in X.cells(g.dom)
                    if all(X.act(h, x) == X.act(h2, top[j])
                           for h, j, h2 in relations)]
        return _search_order(X, tops, lambda top: [
            (h, top[i]) for _, i, h in self.cells])

    def top_map(self, X: FinPresheaf, top: tuple) -> dict[int, dict]:
        """The components of a top on the cells of ``build_open_box``'s
        domain.  Its label (a, b) at level d is the cell <a, b> of I^(n+k),
        so the j-th box cell at level d, in sorted order, is its cell j."""
        components: dict[int, dict] = {d: {} for d in range(X.D + 1)}
        for e, i, h in self.cells:
            level = components[e.dom]
            level[len(level)] = X.act(h, top[i])
        return components


def _search_order(P: FinPresheaf, maps: list, images) -> list:
    """``maps`` into P in the order ``enumerate_natural_maps`` finds them:
    by the cells P.act(h, x), (h, x) in ``images(map)``."""
    return maps if len(maps) < 2 else sorted(maps, key=lambda m: tuple(
        P.act(h, x) for h, x in images(m)))


@dataclass
class LiftReport:
    passed: bool
    D: int
    bounds: dict
    boxes: int = 0
    squares: int = 0
    refutation: dict | None = None
    detail: str = ""

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
    boxes: list[Box] = []
    for n in range(n_top + 1):
        subs = enumerate_subpresheaves(representable_cube(n, D), spend)
        for k in range(1, min(k_max, D - n) + 1):
            for zeta in enumerate_hom(n, k):
                boxes += [Box.make(OpenBoxSpec.make(n, k, C, zeta), D)
                          for C in subs]
    report.boxes = len(boxes)

    # squares (box number b, top, y) and their lifts, in the order the
    # searches found them; x lifts the square square_of[b, x]
    squares: dict[tuple, list[Cell]] = {}
    square_of: dict[tuple[int, Cell], tuple] = {}
    for b, box in enumerate(boxes):
        N = box.spec.n + box.spec.k
        lifts: dict[tuple, list[Cell]] = {}
        for x in X.cells(N):
            key = square_of[b, x] = (
                b, tuple(X.act(g, x) for g in box.gens), f(N, x))
            lifts.setdefault(key, []).append(x)
        bottoms: dict[tuple, list[Cell]] = {}
        for y in Y.cells(N):
            bottoms.setdefault(tuple(Y.act(g, y) for g in box.gens),
                               []).append(y)
        for top in box.tops(X, spend):
            below = tuple(f(g.dom, x) for g, x in zip(box.gens, top))
            for y in _search_order(Y, bottoms.get(below, []), lambda y: [
                    (e, y) for d in range(D + 1) for e in enumerate_hom(d, N)]):
                if (b, top, y) not in lifts:
                    spec = box.spec
                    dom = build_open_box(spec, D)[0]
                    report.refutation = {
                        "n": spec.n, "k": spec.k,
                        "zeta": list(spec.zeta.table),
                        "C_sizes": [len(cs) for _, cs in spec.C],
                        "top": {str(d): {str(dom.levels[d][c]):
                                         str(X.levels[d][x])
                                         for c, x in t.items()}
                                for d, t in box.top_map(X, top).items()}}
                    report.detail = "no lift exists for this open box"
                    report.squares = len(squares) + 1
                    return report
                squares[b, top, y] = lifts[b, top, y]
    report.squares = len(squares)

    # box morphisms (alpha, sigma) into each box, as the number of their
    # domain box and the cube map alpha x sigma^{-1} : I^(m+k) -> I^(n+k)
    @cache
    def pullback(C: tuple, alpha: CubeMap) -> dict[int, frozenset]:
        labels = {d: {enumerate_hom(d, alpha.cod)[c] for c in cs}
                  for d, cs in C}
        return {d: frozenset(c for c, a in enumerate(enumerate_hom(
            d, alpha.dom)) if compose(alpha, a) in labels[d])
            for d in range(D + 1)}

    number = {box.spec: b for b, box in enumerate(boxes)}
    morphisms: list[list[tuple[int, CubeMap]]] = [[] for _ in boxes]
    for b, box in enumerate(boxes):
        spec, k = box.spec, box.spec.k
        for m in range(min(n_top, D - k) + 1):
            for alpha in enumerate_hom(m, spec.n):
                for p in full_symmetric(k).perms:
                    inverse = perm_cube_map(tuple(
                        sorted(range(1, k + 1), key=lambda j: p[j - 1])))
                    xi = compose(perm_cube_map(p), compose(spec.zeta, alpha))
                    morphisms[b].append((
                        number[OpenBoxSpec.make(m, k, pullback(spec.C, alpha),
                                                xi)],
                        _product(alpha, inverse)))

    # the CSP: one lift per square, such that a lift x of a square forces
    # the lift X.act(G, x) on its pullback along every box morphism G
    def forced_by(key: tuple, x: Cell) -> dict | None:
        spend()
        forced = {key: x}
        for small, G in morphisms[key[0]]:
            x2 = X.act(G, x)
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
