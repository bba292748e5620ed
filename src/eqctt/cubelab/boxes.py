"""Open boxes and bounded equivariant-lifting certificates.

A generating trivial cofibration is determined by a subobject C of I^n and a
point zeta : I^n -> I^k: the open box is the union of the graph of zeta with
C x I^k inside I^n x I^k.  A morphism of boxes is a cube map alpha paired
with an automorphism sigma of I^k such that the subobject pulls back along
alpha and xi = sigma . zeta . alpha; it induces alpha x sigma^{-1} between
the boxes, and chosen lifts must commute with these.

Everything here is a bounded certificate at truncation D: lifting is decided
exhaustively, and uniformity is a finite constraint-satisfaction search over
per-square lift choices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable

from . import cubes
from .cubes import (CubeMap, compose, enumerate_hom, full_symmetric,
                    perm_cube_map)
from .presheaf import (BudgetExceeded, FinPresheaf, build_presheaf, product,
                       representable_cube, terminal_cube)

Cell = Hashable


# ---------------------------------------------------------------------------
# subpresheaves of a representable

def close_cells(X: FinPresheaf, seed: dict[int, set]) -> dict[int, frozenset]:
    """Close a family of cell sets under the whole presheaf action."""
    cells = {d: set(seed.get(d, set())) for d in range(X.D + 1)}
    changed = True
    while changed:
        changed = False
        for b in range(X.D + 1):
            for a in range(X.D + 1):
                for f in X.site.maps(a, b):
                    for c in list(cells[b]):
                        img = X.act(f, c)
                        if img not in cells[a]:
                            cells[a].add(img)
                            changed = True
    return {d: frozenset(cells[d]) for d in range(X.D + 1)}


def enumerate_subpresheaves(X: FinPresheaf) -> list[dict[int, frozenset]]:
    """All subpresheaves of X, as closures of sets of nondegenerate cells."""
    from .presheaf import nondegenerate
    nondeg = [(d, c) for d in range(X.D + 1) for c in nondegenerate(X, d)]
    seen = {}
    for bits in itertools.product((False, True), repeat=len(nondeg)):
        seed: dict[int, set] = {}
        for (d, c), take in zip(nondeg, bits):
            if take:
                seed.setdefault(d, set()).add(c)
        sub = close_cells(X, seed)
        key = tuple(sorted((d, tuple(sorted(v))) for d, v in sub.items()))
        seen.setdefault(key, sub)
    return [seen[k] for k in sorted(seen)]


def vertex_cell(n: int, endpoint: int) -> CubeMap:
    """The all-0 or all-1 vertex of I^n (bot/top of the domain <0>)."""
    e = 0 if endpoint == 0 else 1
    return CubeMap(0, n, (0, *([e] * n), 1))


def sub_vertex(n: int, D: int, endpoint: int) -> dict[int, frozenset]:
    """The subpresheaf of I^n generated by the all-0 or all-1 vertex."""
    X = representable_cube(n, D)
    return close_cells(X, {0: {vertex_cell(n, endpoint)}})


def sub_empty(n: int, D: int) -> dict[int, frozenset]:
    return {d: frozenset() for d in range(D + 1)}


def sub_full(n: int, D: int) -> dict[int, frozenset]:
    X = representable_cube(n, D)
    return {d: frozenset(X.levels[d]) for d in range(D + 1)}


# ---------------------------------------------------------------------------
# open boxes

@dataclass(frozen=True)
class OpenBoxSpec:
    """n, k, a subobject C of I^n (cell sets per level), and zeta: I^n -> I^k."""
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

    def C_sets(self) -> dict[int, frozenset]:
        return {d: frozenset(cs) for d, cs in self.C}


def build_open_box(spec: OpenBoxSpec, D: int) -> tuple[FinPresheaf, FinPresheaf]:
    """The inclusion of the open box into I^n x I^k, as (domain, ambient).

    Domain cells at level d: pairs (a, zeta . a) for a in (I^n)_d, plus pairs
    (c, b) with c in C_d.  The inclusion is the identity on cells, hence
    levelwise injective.
    """
    if spec.n + spec.k > D:
        raise ValueError("n + k exceeds the truncation bound")
    In = representable_cube(spec.n, D)
    Ik = representable_cube(spec.k, D)
    amb = product(In, Ik)
    C = spec.C_sets()
    levels = {}
    for d in range(D + 1):
        cells = {(a, compose(spec.zeta, a)) for a in In.levels[d]}
        cells |= {(c, b) for c in C[d] for b in Ik.levels[d]}
        levels[d] = tuple(sorted(cells))
    dom = build_presheaf(cubes, D, levels,
                         lambda f, c: amb.act(f, c))
    for d in range(D + 1):
        assert set(dom.levels[d]) <= set(amb.levels[d])
    return dom, amb


def horn_box_domain(D: int) -> FinPresheaf:
    """The shipped non-fibration shape: the open box of (n=1, k=1,
    C = vertex 0, zeta = constant 0) as a subobject of I^2 = I^1 x I^1."""
    spec = OpenBoxSpec.make(
        1, 1, sub_vertex(1, D, 0),
        CubeMap(1, 1, (0, 0, 2)))  # constant 0 map I^1 -> I^1
    dom, _amb = build_open_box(spec, D)
    return dom


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
    comp = {d: {c: T.levels[d][0] for c in X.levels[d]}
            for d in range(X.D + 1)}
    return PresheafMap(X, T, comp)


def is_natural(A: FinPresheaf, B: FinPresheaf,
               components: dict[int, dict[Cell, Cell]]) -> bool:
    for a in range(A.D + 1):
        for b in range(A.D + 1):
            for f in A.site.maps(a, b):
                for c in A.levels[b]:
                    if components[a][A.act(f, c)] != B.act(f, components[b][c]):
                        return False
    return True


def enumerate_natural_maps(A: FinPresheaf, B: FinPresheaf,
                           seed: dict[int, dict[Cell, Cell]] | None = None,
                           constraint=None,
                           budget: int = 500_000) -> list[PresheafMap]:
    """All natural transformations A -> B by levelwise backtracking.

    ``seed`` pins images of some cells; ``constraint(d, cell, image)`` can
    reject candidate images (used to force commuting squares).
    """
    cells = [(d, c) for d in range(A.D + 1) for c in A.levels[d]]
    assign: dict[tuple[int, Cell], Cell] = {}
    if seed:
        for d, table in seed.items():
            for c, v in table.items():
                assign[(d, c)] = v
    maps_between = {(a, b): A.site.maps(a, b)
                    for a in range(A.D + 1) for b in range(A.D + 1)}
    out: list[PresheafMap] = []
    nodes = 0

    def ok(d: int, c: Cell, y: Cell) -> bool:
        if constraint is not None and not constraint(d, c, y):
            return False
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
        for y in B.levels[d]:
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
# equivariant lifting

@dataclass
class Square:
    """A commuting square from a box inclusion into f: top on the domain,
    bottom on the ambient cube product."""
    spec: OpenBoxSpec
    top: PresheafMap
    bot: PresheafMap

    def key(self):
        return (self.spec,
                tuple(sorted((d, c, v) for d, t in self.top.components.items()
                             for c, v in t.items())),
                tuple(sorted((d, c, v) for d, t in self.bot.components.items()
                             for c, v in t.items())))


@dataclass
class LiftReport:
    passed: bool
    D: int
    bounds: dict
    boxes: int = 0
    squares: int = 0
    refutation: dict | None = None
    detail: str = ""
    choice_sizes: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"passed": self.passed, "D": self.D, "bounds": self.bounds,
               "boxes": self.boxes, "squares": self.squares,
               "certificate": "bounded", "detail": self.detail}
        if self.refutation is not None:
            out["refutation"] = self.refutation
        return out


def _describe_square(sq: Square) -> dict:
    return {
        "n": sq.spec.n, "k": sq.spec.k,
        "zeta": list(sq.spec.zeta.table),
        "C_sizes": [len(cs) for _, cs in sq.spec.C],
        "top": {str(d): {str(c): str(v) for c, v in t.items()}
                for d, t in sq.top.components.items()},
    }


def check_equivariant_lifting(f: PresheafMap, n_max: int, k_max: int,
                              D: int, budget: int = 500_000) -> LiftReport:
    """Search for lifts against every open box within bounds, then for a
    uniform equivariant choice of lifts.

    Reports distinguish 'no lift exists' (with a refuting square) from
    'lifts exist but no uniform equivariant choice found within budget'.
    """
    X, Y = f.src, f.dst
    bounds = {"n_max": n_max, "k_max": k_max}
    report = LiftReport(False, D, bounds)

    specs: list[OpenBoxSpec] = []
    for n in range(n_max + 1):
        In = representable_cube(n, D)
        subs = enumerate_subpresheaves(In)
        for k in range(1, k_max + 1):
            if n + k > D:
                continue
            for zeta in enumerate_hom(n, k):
                for C in subs:
                    specs.append(OpenBoxSpec.make(n, k, C, zeta))
    report.boxes = len(specs)

    built = {spec: build_open_box(spec, D) for spec in specs}

    # enumerate commuting squares and their lift sets
    squares: dict[tuple, tuple[Square, list[PresheafMap]]] = {}
    for spec in specs:
        dom, amb = built[spec]
        tops = enumerate_natural_maps(dom, X, budget=budget)
        for top in tops:
            bot_seed = {d: {c: f(d, top(d, c)) for c in dom.levels[d]}
                        for d in range(D + 1)}
            bots = enumerate_natural_maps(amb, Y, seed=bot_seed, budget=budget)
            for bot in bots:
                sq = Square(spec, top, bot)
                lift_seed = {d: dict(top.components[d]) for d in range(D + 1)}

                def lift_constraint(d, c, y, _bot=bot):
                    return f(d, y) == _bot(d, c)

                lifts = enumerate_natural_maps(
                    amb, X, seed=lift_seed, constraint=lift_constraint,
                    budget=budget)
                if not lifts:
                    report.refutation = _describe_square(sq)
                    report.detail = "no lift exists for this open box"
                    report.squares = len(squares) + 1
                    return report
                squares[sq.key()] = (sq, lifts)
    report.squares = len(squares)
    report.choice_sizes = [len(l) for _, l in squares.values()]

    # uniformity constraints from box morphisms (alpha, sigma)
    constraints = []  # (small_key, big_key, cellwise composition map)
    for spec in specs:
        C = spec.C_sets()
        dom, amb = built[spec]
        for m in range(n_max + 1):
            for alpha in enumerate_hom(m, spec.n):
                Im = representable_cube(m, D)
                D_sub = {d: frozenset(c for c in Im.levels[d]
                                      if compose(alpha, c) in C[d])
                         for d in range(D + 1)}
                for perm in full_symmetric(spec.k).perms:
                    sigma = perm_cube_map(perm)
                    inv = perm_cube_map(tuple(
                        sorted(range(1, spec.k + 1), key=lambda j: perm[j - 1])))
                    xi = compose(sigma, compose(spec.zeta, alpha))
                    small = OpenBoxSpec.make(m, spec.k, D_sub, xi)
                    if small not in built:
                        continue
                    # the induced map alpha x sigma^{-1} on ambient cells
                    def g(cell, _a=alpha, _s=inv):
                        return (compose(_a, cell[0]), compose(_s, cell[1]))
                    constraints.append((small, spec, g))

    # the CSP: pick one lift per square so every constraint commutes
    keys = list(squares)
    choice: dict[tuple, PresheafMap] = {}

    def composed_square(small: OpenBoxSpec, big_sq: Square, g) -> tuple | None:
        dom_s, amb_s = built[small]
        top_c = {d: {c: big_sq.top(d, g(c)) for c in dom_s.levels[d]}
                 for d in range(D + 1)}
        bot_c = {d: {c: big_sq.bot(d, g(c)) for c in amb_s.levels[d]}
                 for d in range(D + 1)}
        sq = Square(small, PresheafMap(dom_s, X, top_c),
                    PresheafMap(amb_s, Y, bot_c))
        return sq.key() if sq.key() in squares else None

    # propagate: assignments on big squares force assignments on pulled-back ones
    def solve(i: int, nodes: list[int]) -> bool:
        if i == len(keys):
            return True
        key = keys[i]
        if key in choice:
            return solve(i + 1, nodes)
        sq, lifts = squares[key]
        for lift in lifts:
            nodes[0] += 1
            if nodes[0] > budget:
                raise BudgetExceeded(f"uniformity search exceeded {budget}")
            forced: dict[tuple, PresheafMap] = {}
            ok = True
            for small, big, g in constraints:
                if big != sq.spec:
                    continue
                skey = composed_square(small, sq, g)
                if skey is None:
                    continue
                dom_s, amb_s = built[small]
                comp_map = {d: {c: lift(d, g(c)) for c in amb_s.levels[d]}
                            for d in range(D + 1)}
                forced_lift = PresheafMap(amb_s, X, comp_map)
                prev = choice.get(skey, forced.get(skey))
                if prev is not None and prev.components != comp_map:
                    ok = False
                    break
                if any(l.components == comp_map for l in squares[skey][1]):
                    forced[skey] = forced_lift
                else:
                    ok = False
                    break
            if not ok:
                continue
            choice[key] = lift
            added = []
            for skey, flift in forced.items():
                if skey not in choice:
                    choice[skey] = flift
                    added.append(skey)
                elif choice[skey].components != flift.components:
                    ok = False
                    break
            if ok and solve(i + 1, nodes):
                return True
            for skey in added:
                del choice[skey]
            del choice[key]
        return False

    try:
        if solve(0, [0]):
            report.passed = True
            report.detail = (f"uniform equivariant lifts chosen for "
                             f"{len(squares)} squares against {len(specs)} boxes")
            return report
        report.detail = ("lifts exist but no uniform equivariant choice "
                         "found within budget")
        return report
    except BudgetExceeded:
        report.detail = "combinatorial budget exceeded"
        raise
