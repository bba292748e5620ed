import math

import pytest

from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.cubes import (CubeMap, automorphisms, compose,
                                 cube_identity, degeneracy, enumerate_hom,
                                 ez_factor, face, find_section,
                                 invertible_endos, is_iso, is_mono,
                                 make_cube_map, perm_cube_map)


def test_hom_counts():
    assert len(enumerate_hom(1, 1)) == 3
    for m in range(4):
        for n in range(4):
            assert len(enumerate_hom(m, n)) == (m + 2) ** n


def test_points_of_cube():
    # (0, n): 2^n points, each middle to bot or top
    assert len(enumerate_hom(0, 3)) == 8
    # (m, 0): the terminal object
    for m in range(4):
        assert len(enumerate_hom(m, 0)) == 1


def test_identity_neutral():
    for m in range(3):
        for n in range(3):
            for f in enumerate_hom(m, n):
                assert compose(cube_identity(n), f) == f
                assert compose(f, cube_identity(m)) == f


def test_associativity_exhaustive_dim2():
    dims = range(3)
    for a in dims:
        for b in dims:
            for c in dims:
                for d in dims:
                    for f in enumerate_hom(a, b):
                        for g in enumerate_hom(b, c):
                            for h in enumerate_hom(c, d):
                                assert compose(h, compose(g, f)) == \
                                    compose(compose(h, g), f)


def test_faces_compose_to_codim2():
    f1 = face(2, 1, 0)       # I^1 -> I^2 fixing axis 1 at 0
    f2 = face(1, 1, 1)       # I^0 -> I^1 fixing axis 1 at 1
    c = compose(f1, f2)      # a vertex of I^2
    assert c.dom == 0 and c.cod == 2


def test_degeneracy_section():
    for n in (1, 2, 3):
        for ax in range(1, n + 1):
            d = degeneracy(n, ax)
            s = find_section(d)
            assert s is not None
            assert compose(d, s) == cube_identity(n - 1)


def test_automorphism_counts():
    for n in range(1, 5):
        g = automorphisms(n)
        assert len(g.perms) == math.factorial(n)
        for p in g.perms:
            cm = perm_cube_map(p)
            mids = cm.table[1:-1]
            assert sorted(mids) == list(range(1, n + 1))


def test_automorphisms_match_bruteforce():
    # the pre-filtered search agrees with the assumption-free one
    for n in (1, 2, 3):
        fast = {perm_cube_map(p) for p in automorphisms(n).perms}
        slow = set(invertible_endos(n))
        assert fast == slow


def test_is_iso_matches_bruteforce():
    endos = {n: set(invertible_endos(n)) for n in range(4)}
    for m in range(4):
        for n in range(4):
            for f in enumerate_hom(m, n):
                assert is_iso(f) == (f in endos[f.dom]), f


def test_find_section_matches_bruteforce():
    # the closed form returns the first section in hom-set order
    for m in range(4):
        for n in range(4):
            ident = cube_identity(n)
            for e in enumerate_hom(m, n):
                first = next((s for s in enumerate_hom(n, m)
                              if compose(e, s) == ident), None)
                assert find_section(e) == first, e


@pytest.mark.parametrize("site", [cubes, simplicial], ids=["cube", "simplex"])
def test_split_epis_match_bruteforce(site):
    # non-invertible split epis: maps to a lower level with a section
    for d in range(4):
        slow = {e for d2 in range(d) for e in site.maps(d, d2)
                if any(site.compose(e, s) == site.identity(d2)
                       for s in site.maps(d2, d))}
        assert set(site.split_epis(d)) == slow, d


def test_ez_identity():
    ident = cube_identity(2)
    e, m = ez_factor(ident)
    assert e == ident and m == ident


def test_ez_iso_convention():
    swap = perm_cube_map((2, 1))
    e, m = ez_factor(swap)
    assert e == swap
    assert m == cube_identity(2)


def test_ez_exhaustive_small():
    for a in range(3):
        for b in range(3):
            for f in enumerate_hom(a, b):
                e, m = ez_factor(f)
                assert compose(m, e) == f
                assert find_section(e) is not None
                assert is_mono(m, probe_max=2)
                # degree clauses
                if not is_iso(e):
                    assert e.cod < e.dom
                if not is_iso(m):
                    assert m.dom < m.cod
                assert e.cod <= e.dom
