import itertools
import math
import random

import pytest

from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.cubes import (CubeMap, GroupAction, HomSet,
                                 automorphisms, compose, composites,
                                 cube_identity, cube_map, enumerate_hom,
                                 ez_factor, find_section, index, is_iso,
                                 is_mono, map_of, middles)
from eqctt.cubelab.simplicial import SimplexMap, enumerate_monotone
from reference import (degeneracy, face, invertible_endos,
                       is_mono_by_probes, perm_cube_map,
                       simplex_compose, simplex_identity, site_maps)


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


def test_group_action_must_be_closed():
    # the cyclic group of order 3 is a subgroup of Sigma_3; the identity
    # and two transpositions hold inverses but not their composite
    GroupAction(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    with pytest.raises(ValueError, match="not a group"):
        GroupAction(3, ((1, 2, 3), (2, 1, 3), (1, 3, 2)))
    with pytest.raises(ValueError, match="not a group"):
        GroupAction(2, ((2, 1),))


def test_maps_compare_hash_and_sort_by_their_fields():
    cube_maps = [f for m in range(3) for n in range(3)
                 for f in enumerate_hom(m, n)]
    simplex_maps = [f for m in range(3) for n in range(3)
                    for f in enumerate_monotone(m, n)]
    for maps in (cube_maps, simplex_maps):
        for f in maps:
            assert hash(f) == hash((f.dom, f.cod, f.table))
        shuffled = random.Random(0).sample(maps, len(maps))
        assert sorted(shuffled) == sorted(
            shuffled, key=lambda f: (f.dom, f.cod, f.table)) == maps
    # a cube map and a simplex map with equal fields are not equal
    assert CubeMap(0, 0, (0, 1)) != SimplexMap(0, 0, (0,))
    assert CubeMap(1, 0, (0, 2)) != SimplexMap(1, 0, (0, 0))


@pytest.mark.parametrize("make", [
    lambda: CubeMap(1, 1, (0, 1)), lambda: CubeMap(1, 1, (0, 1, 1)),
    lambda: CubeMap(1, 1, (0, 3, 2)), lambda: SimplexMap(1, 1, (0,)),
    lambda: SimplexMap(1, 1, (1, 0)), lambda: SimplexMap(1, 1, (0, 2))])
def test_bad_tables_are_refused(make):
    with pytest.raises(AssertionError):
        make()


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
def test_generators_match_bruteforce(site):
    # lowering maps are monos d-1 -> d and raising maps split epis
    # d -> d-1; every mono into d and every split epi out of d, from or to
    # a lower level, factors through one, and the symmetries generate the
    # automorphisms of d
    comp, ident = ((compose, cube_identity) if site is cubes else
                   (simplex_compose, simplex_identity))

    def homs(a, b):
        return site_maps(site, a, b)

    def label(f):
        i, a, b = map_of(f)
        return homs(a, b)[i]

    def mono(f):
        return all(len({comp(f, g) for g in homs(x, f.dom)})
                   == site.count(x, f.dom) for x in range(4))

    def split_epi(e):
        return any(comp(e, s) == ident(e.cod) for s in homs(e.cod, e.dom))

    for d in range(4):
        lowering, raising, symmetries = (
            [label(f) for f in gens] for gens in site.generators(d))
        assert all((g.dom, g.cod) == (d - 1, d) and mono(g) for g in lowering)
        assert all((p.dom, p.cod) == (d, d - 1) and split_epi(p)
                   for p in raising)
        for a in range(d):
            for m in filter(mono, homs(a, d)):
                assert any(comp(g, h) == m for g in lowering
                           for h in homs(a, d - 1)), m
            for e in filter(split_epi, homs(d, a)):
                assert any(comp(h, p) == e for p in raising
                           for h in homs(d - 1, a)), e
        autos = {f for f in homs(d, d) if any(
            comp(f, g) == ident(d) == comp(g, f) for g in homs(d, d))}
        group = {ident(d)}
        while more := {comp(s, f) for s in symmetries for f in group} - group:
            group |= more
        assert set(symmetries) <= autos and group == autos, d


# ---------------------------------------------------------------------------
# maps as numbers

def test_index_is_the_position_in_enumerate_hom():
    # the middles (v1..vb) of a map I^a -> I^b, read in base a + 2 with v1
    # most significant, are its position in the hom-set
    for a in range(4):
        for b in range(4):
            homs = enumerate_hom(a, b)
            assert list(HomSet(a, b)) == homs and len(HomSet(a, b)) == len(homs)
            for i, f in enumerate(homs):
                assert index(f) == i
                assert sum(v * (a + 2) ** (b - j)
                           for j, v in enumerate(f.table[1:-1], 1)) == i
                assert cube_map(a, b, i) == f
                assert middles(a, b, i) == f.table[1:-1]


@pytest.mark.parametrize("site", [cubes, simplicial], ids=["cube", "simplex"])
def test_map_numbers_are_distinct(site):
    # every map a -> b up to the bound has its own number, in hom-set order
    seen = set()
    for a in range(17):
        for b in range(17):
            numbers = site.maps(a, b)
            assert (numbers.stop - numbers.start) // numbers.step == \
                site.count(a, b)
            assert list(numbers[:50]) == sorted(numbers[:50])
            seen |= set(numbers[:50])
            if a + b <= 5:
                assert len(numbers) == len(site_maps(site, a, b))
    assert len(seen) == sum(min(50, site.count(a, b))
                            for a in range(17) for b in range(17))
    with pytest.raises(ValueError, match="bound"):
        site.maps(17, 0)


def test_composites_are_compositions():
    # composites(N, m, g, d) lists g . h for the maps h : I^d -> I^m
    for N in range(4):
        for m in range(4):
            for d in range(4):
                hs = enumerate_hom(d, m)
                for g, G in enumerate(enumerate_hom(m, N)):
                    assert composites(N, m, g, d) == \
                        [index(compose(G, h)) for h in hs], (G, d)


def test_is_mono_matches_probes():
    # the closed form against distinct precompositions of probes
    for a in range(4):
        for b in range(4):
            for f in enumerate_hom(a, b):
                assert is_mono(f.dom, f.table) == is_mono_by_probes(f), f


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
                assert is_mono(m.dom, m.table)
                assert is_mono_by_probes(m, probe_max=2)
                # degree clauses
                if not is_iso(e):
                    assert e.cod < e.dom
                if not is_iso(m):
                    assert m.dom < m.cod
                assert e.cod <= e.dom


def test_a_member_that_is_no_permutation_is_refused():
    with pytest.raises(ValueError):
        GroupAction(2, ((1, 2), (1, 3)))
    with pytest.raises(ValueError):
        GroupAction(2, ((1, 2), (1,)))


def test_all_of_sigma_n_is_accepted_as_a_group():
    # n! distinct permutations are the symmetric group, in any order
    perms = tuple(itertools.permutations(range(1, 5)))[::-1]
    assert GroupAction(4, perms).perms == perms
    with pytest.raises(ValueError):
        GroupAction(4, perms[1:])
