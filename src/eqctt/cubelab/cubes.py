"""The cartesian cube category as bipointed-set function tables.

A morphism I^m -> I^n is, contravariantly, a function <n> -> <m> between the
bipointed sets <k> = {bot, 1..k, top}, encoded as integers 0, 1..k, k+1.
Tables compose in the opposite order of the maps they present.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class CubeMap:
    dom: int                 # m, the domain cube I^m
    cod: int                 # n, the codomain cube I^n
    table: tuple[int, ...]   # <cod> -> <dom>, length cod + 2

    def __post_init__(self):
        assert len(self.table) == self.cod + 2
        assert self.table[0] == 0 and self.table[-1] == self.dom + 1
        assert all(0 <= v <= self.dom + 1 for v in self.table)

    def __call__(self, j: int) -> int:
        return self.table[j]

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


def enumerate_hom(m: int, n: int, bound: int = 16) -> list[CubeMap]:
    """All bipointed functions <n> -> <m>; there are (m+2)^n of them."""
    if m > bound or n > bound:
        raise ValueError(f"hom enumeration bound {bound} exceeded")
    out = []
    for mids in itertools.product(range(m + 2), repeat=n):
        out.append(make_cube_map(m, n, mids))
    return out


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


@dataclass(frozen=True)
class GroupAction:
    """A subgroup of Sigma_n given by its permutations of {1..n}."""
    n: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ident = tuple(range(1, self.n + 1))
        assert ident in self.perms
        for p in self.perms:
            inv = tuple(sorted(range(1, self.n + 1), key=lambda j: p[j - 1]))
            assert inv in self.perms
            for q in self.perms:
                assert tuple(p[q[j - 1] - 1] for j in range(1, self.n + 1)) \
                    in self.perms

    def cube_maps(self) -> list[CubeMap]:
        return [perm_cube_map(p) for p in self.perms]


def full_symmetric(n: int) -> GroupAction:
    return GroupAction(n, tuple(itertools.permutations(range(1, n + 1))))


def automorphisms(n: int) -> GroupAction:
    """All invertible endomorphisms of I^n: exactly the n! axis permutations,
    since an invertible table must be a bijection of the middles.  Tests
    check this against the exhaustive ``invertible_endos``."""
    return full_symmetric(n)


def invertible_endos(n: int) -> list[CubeMap]:
    """Invertible endo cube maps of I^n, by exhaustive two-sided inverse
    search: the assumption-free reference for ``automorphisms`` and
    ``is_iso``."""
    homs = enumerate_hom(n, n)
    ident = cube_identity(n)
    out = []
    for f in homs:
        if any(compose(f, g) == ident and compose(g, f) == ident
               for g in homs):
            out.append(f)
    return out


def is_iso(f: CubeMap) -> bool:
    """Isos are the axis permutations: their middles permute 1..n."""
    mids = f.table[1:-1]
    return f.dom == f.cod and sorted(mids) == list(range(1, f.cod + 1))


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
    # epi e: I^m -> I^d, dual to the inclusion <d> -> <m>
    e = make_cube_map(f.dom, d, tuple(image_mids))
    # mono m: I^d -> I^n, dual to the corestriction <n> -> <d>
    index = {v: i + 1 for i, v in enumerate(image_mids)}
    mono_mids = []
    for j in range(1, f.cod + 1):
        v = f.table[j]
        if v == 0:
            mono_mids.append(0)
        elif v == f.dom + 1:
            mono_mids.append(d + 1)
        else:
            mono_mids.append(index[v])
    m = make_cube_map(d, f.cod, tuple(mono_mids))
    return e, m


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


def split_epis(d: int) -> list[CubeMap]:
    """The non-invertible split epis out of I^d: by ``find_section``, the
    maps to a lower dimension whose middles are distinct axes of <d>."""
    return [make_cube_map(d, d2, mids) for d2 in range(d)
            for mids in itertools.permutations(range(1, d + 1), d2)]


def is_mono(m: CubeMap, probe_max: int = 3) -> bool:
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


# This module is the cube site of ``presheaf.FinPresheaf``.  Presheaves look
# these names up on the module at each call, so a function replaced on the
# module (as the per-layer tracer in perfbench does) is seen everywhere.
maps = enumerate_hom
identity = cube_identity
