"""References that only tests use: brute-force checks, and the routes the
program took on ``CubeMap`` labels before site maps and cells were numbers.
Each one is kept to check the closed form or the integer route that
replaced it."""

from __future__ import annotations

from dataclasses import dataclass

from eqctt import cof
from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.boxes import build_open_box
from eqctt.cubelab.cubes import (CubeMap, compose, cube_identity,
                                 enumerate_hom, make_cube_map)
from eqctt.cubelab.presheaf import FinPresheaf
from eqctt.cubelab.simplicial import SimplexMap, dual_middles


# ---------------------------------------------------------------------------
# cofibrations

def satisfiable(phi: cof.Cof) -> bool:
    return cof.to_dnf(phi) != ()


def equivalent(hyps, phi: cof.Cof, psi: cof.Cof) -> bool:
    """Cofibration extensionality: equality as logical equivalence."""
    return (cof.entails(list(hyps) + [phi], psi)
            and cof.entails(list(hyps) + [psi], phi))


# ---------------------------------------------------------------------------
# cube maps

def face(n: int, axis: int, endpoint: int) -> CubeMap:
    """The inclusion I^(n-1) -> I^n fixing ``axis`` (1-based) at 0 or 1."""
    mids = []
    shift = 0
    for j in range(1, n + 1):
        if j == axis:
            mids.append(0 if endpoint == 0 else n)  # bot or top of <n-1>
            shift = 1
        else:
            mids.append(j - shift)
    return make_cube_map(n - 1, n, tuple(mids))


def degeneracy(n: int, axis: int) -> CubeMap:
    """The projection I^n -> I^(n-1) dropping ``axis`` (1-based)."""
    mids = tuple(j if j < axis else j + 1 for j in range(1, n))
    return make_cube_map(n, n - 1, mids)


def perm_cube_map(perm: tuple[int, ...]) -> CubeMap:
    """The automorphism of I^n permuting axes; perm maps axis j to perm[j-1]."""
    n = len(perm)
    mids = [0] * n
    for j in range(1, n + 1):
        mids[perm[j - 1] - 1] = j
    return make_cube_map(n, n, tuple(mids))


def invertible_endos(n: int) -> list[CubeMap]:
    """Invertible endo cube maps of I^n, by exhaustive two-sided inverse
    search: the assumption-free reference for ``automorphisms`` and
    ``is_iso``."""
    homs = enumerate_hom(n, n)
    ident = cube_identity(n)
    return [f for f in homs if any(
        compose(f, g) == ident and compose(g, f) == ident for g in homs)]


def is_mono_by_probes(m: CubeMap, probe_max: int = 3) -> bool:
    """Monomorphism check by hom enumeration: distinct precompositions of
    probes up to dimension ``probe_max`` stay distinct."""
    for x in range(probe_max + 1):
        seen = {}
        for a in enumerate_hom(x, m.dom):
            ma = compose(m, a)
            if ma in seen and seen[ma] != a:
                return False
            seen[ma] = a
    return True


def vertex_cell(n: int, endpoint: int) -> CubeMap:
    """The all-0 or all-1 vertex of I^n (bot/top of the domain <0>)."""
    e = 0 if endpoint == 0 else 1
    return CubeMap(0, n, (0, *([e] * n), 1))


def simplex_identity(n: int) -> SimplexMap:
    return SimplexMap(n, n, tuple(range(n + 1)))


def dualize_simplex_map(f: SimplexMap) -> CubeMap:
    """The cube map of a monotone map, with bot = 0 and top = dom + 1;
    contravariantly functorial."""
    return make_cube_map(f.dom, f.cod, dual_middles(f))


# ---------------------------------------------------------------------------
# site maps as labels

def site_maps(site, a: int, b: int) -> list:
    """The maps a -> b of a site as labels, in number order."""
    return (enumerate_hom(a, b) if site is cubes
            else simplicial.enumerate_monotone(a, b))


def number(f) -> int:
    """The number of a cube or simplex map, which keys action tables."""
    if isinstance(f, CubeMap):
        return cubes.maps(f.dom, f.cod)[cubes.index(f)]
    return simplicial.maps(f.dom, f.cod)[
        simplicial.enumerate_monotone(f.dom, f.cod).index(f)]


def label_table(levels: dict, maps, fn):
    """``tables`` for ``build_presheaf`` from an action ``fn`` on labels and
    the maps a -> b as labels, ``maps(a, b)``: the position of ``fn(f, c)``
    for each label c at level b (-1 outside level a, which is rejected)."""
    index = {d: {c: i for i, c in enumerate(cells)}
             for d, cells in levels.items()}
    return lambda a, b: [tuple(index[a].get(fn(f, c), -1) for c in levels[b])
                         for f in maps(a, b)]


def check_functorial(X: FinPresheaf) -> bool:
    """Identity and composition laws, exhaustively over the truncation, with
    composites taken on labels."""
    s = X.site
    compose_labels = compose if s is cubes else simplicial.simplex_compose
    identity = cube_identity if s is cubes else simplex_identity
    labels = {(a, b): site_maps(s, a, b)
              for a in range(X.D + 1) for b in range(X.D + 1)}
    numbers = {f: i for (a, b), fs in labels.items()
               for f, i in zip(fs, s.maps(a, b))}
    act = {f: X.action[i] for f, i in numbers.items()}
    for n in range(X.D + 1):
        if act[identity(n)] != tuple(X.cells(n)):
            return False
    for (a, b), fs in labels.items():
        for c in range(X.D + 1):
            for f in fs:
                for g in labels[b, c]:
                    gf, ft = act[compose_labels(g, f)], act[f]
                    if gf != tuple(ft[x] for x in act[g]):
                        return False
    return True


# ---------------------------------------------------------------------------
# open boxes on cube maps

@dataclass(frozen=True)
class OpenBoxSpec:
    """n, k, a subobject C of I^n (the cells of I^n in it, per level), and
    zeta: I^n -> I^k."""
    n: int
    k: int
    C: tuple[tuple[int, tuple[int, ...]], ...]  # frozen per-level cell sets
    zeta: CubeMap

    @staticmethod
    def make(n: int, k: int, C: dict[int, frozenset],
             zeta: CubeMap) -> "OpenBoxSpec":
        assert k >= 1 and (zeta.dom, zeta.cod) == (n, k)
        return OpenBoxSpec(n, k, tuple((d, tuple(sorted(C[d])))
                                       for d in sorted(C)), zeta)

    def build(self, D: int):
        """``build_open_box`` of this box: (domain, ambient)."""
        return build_open_box(self.n, self.k, dict(self.C),
                              cubes.index(self.zeta), D)


def pair(u: CubeMap, v: CubeMap) -> CubeMap:
    """The map <u, v> : I^a -> I^n x I^k = I^(n+k)."""
    return make_cube_map(u.dom, u.cod + v.cod, u.table[1:-1] + v.table[1:-1])


def product(u: CubeMap, v: CubeMap) -> CubeMap:
    """u x v = <u . p1, v . p2> : I^(a+b) -> I^(n+k), for u : I^a -> I^n
    and v : I^b -> I^k."""
    a, b = u.dom, v.dom
    p1 = make_cube_map(a + b, a, tuple(range(1, a + 1)))
    p2 = make_cube_map(a + b, b, tuple(range(a + 1, a + b + 1)))
    return pair(compose(u, p1), compose(v, p2))


def nondegenerate_map(c: CubeMap) -> bool:
    """A cell I^d -> I^n is nondegenerate iff its table hits every axis."""
    return set(range(1, c.dom + 1)) <= set(c.table)


@dataclass
class LabelBox:
    """An open box as cube maps into I^(n+k): ``cells`` lists every box cell
    in sorted order as (cell, i, h) with cell = gens[i] . h, and
    ``relations[i]`` holds each (h, j, h2) with gens[i] . h = gens[j] . h2
    nondegenerate and j < i."""
    spec: OpenBoxSpec
    gens: list[CubeMap]
    cells: list[tuple[CubeMap, int, CubeMap]]
    relations: list[list[tuple[CubeMap, int, CubeMap]]]

    @staticmethod
    def make(spec: OpenBoxSpec, D: int) -> "LabelBox":
        gens = [pair(cube_identity(spec.n), spec.zeta)]
        for d, cells in reversed(spec.C):
            level = enumerate_hom(d, spec.n)
            gens += [product(level[c], cube_identity(spec.k)) for c in cells
                     if nondegenerate_map(level[c])]
        first: dict[CubeMap, tuple[int, CubeMap]] = {}
        relations: list[list] = [[] for _ in gens]
        for i, g in enumerate(gens):
            for d in range(D + 1):
                for h in enumerate_hom(d, g.dom):
                    e = compose(g, h)
                    if e not in first:
                        first[e] = (i, h)
                    elif nondegenerate_map(e):
                        relations[i].append((h, *first[e]))
        return LabelBox(spec, gens,
                        [(e, i, h) for e, (i, h) in sorted(first.items())],
                        relations)
