import argparse
import math
import random

import pytest
from conftest import cell

from eqctt.cli import Settings, UsageError, parse_lab_object
from eqctt.cubelab.cubes import compose, enumerate_hom, full_symmetric, index
from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.presheaf import (build_presheaf, iso_search, nondegenerate,
                                    product, quotient_by_group,
                                    representable_cube,
                                    symmetric_level_action, table_size,
                                    terminal_cube)
from eqctt.cubelab.boxes import close_cells, sub_vertex
from reference import (check_functorial, equivariant_on_all_maps,
                       iso_search_all_maps, label_table, number,
                       perm_cube_map, vertex_cell)


def test_representable_zero_is_terminal():
    X = representable_cube(0, 3)
    assert X.level_sizes() == [1, 1, 1, 1]


def test_representable_levels_match_hom_enumeration():
    for n in (1, 2):
        X = representable_cube(n, 2)
        for d in range(3):
            assert len(X.levels[d]) == len(enumerate_hom(d, n))
            # a cell's position is its place in sorted label order
            assert list(X.levels[d]) == sorted(enumerate_hom(d, n))


@pytest.mark.parametrize("n", range(4))
def test_representable_tables_match_composition(n):
    # the product-of-tables construction against composition of cube maps
    X = representable_cube(n, 3)
    by_compose = label_table(X.levels, enumerate_hom,
                             lambda f, c: compose(c, f))
    for a in range(4):
        for b in range(4):
            assert [X.action[f] for f in cubes.maps(a, b)] == by_compose(a, b)
            # by Yoneda, h acts on the cell g as g . h
            for f, h in zip(cubes.maps(a, b), enumerate_hom(a, b)):
                assert all(X.action[f][index(g)] == index(compose(g, h))
                           for g in enumerate_hom(b, n)), h
    for D in range(3):
        Y = representable_cube(n, D)
        assert all(Y.action[f] == X.action[f] for a in range(D + 1)
                   for b in range(D + 1) for f in cubes.maps(a, b))
        # no map out of or into a level above D has a table
        for f in (cubes.maps(D + 1, 0)[0], cubes.maps(0, D + 1)[0]):
            with pytest.raises(KeyError):
                Y.action[f]


@pytest.mark.parametrize("site", [cubes, simplicial], ids=lambda s: s.__name__)
def test_table_size_counts_the_action_entries(site):
    X = (representable_cube(2, 3) if site is cubes
         else simplicial.delta(2, 3))
    assert all(site.count(a, b) == len(site.maps(a, b))
               for a in range(5) for b in range(5))
    assert table_size(site, X.level_sizes()) == sum(
        len(X.action[f]) for a in range(4) for b in range(4)
        for f in site.maps(a, b))


def test_tables_are_built_when_first_read():
    # T(I^3) acts by I^3's tables of the duals of monotone maps, and its
    # nondegenerate cells need only the 1 + 2 + 3 raising maps of levels 1..3
    X = representable_cube(3, 3)
    T = simplicial.triangulate(X)
    assert len(X.action) == len(T.action) == 0
    for d in range(4):
        nondegenerate(T, d)
    assert set(T.action) == {e for d in range(4)
                             for e in simplicial.generators(d)[1]}
    assert len(X.action) == 6
    assert sum(len(cubes.maps(a, b)) for a in range(4) for b in range(4)) \
        == 296


def test_quotient_reads_only_the_generators():
    # at D = 3, I^2 has 296 tables; the equivariance check reads the 2 + 5
    # + 9 lowering maps, the 1 + 2 + 3 raising maps and the 1 + 2 swaps, and
    # no induced table is built before it is read
    X = representable_cube(2, 3)
    Q = quotient_by_group(X, full_symmetric(2))
    assert set(X.action) == {f for d in range(4)
                             for gens in cubes.generators(d) for f in gens}
    assert len(X.action) == 25 and len(Q.action) == 0
    Q.action[cubes.maps(1, 3)[7]]
    assert len(Q.action) == 1


def test_iso_reads_only_the_generators():
    # T(I1*I1) and T(I2) have 94 tables a -> b with a <= b each at D = 3,
    # which the search read when it read every map into a level from below
    # and every endo; it reads the 2 + 3 + 4 faces and 1 + 2 + 3
    # degeneracies of each side
    X, Y = (simplicial.triangulate(P) for P in (
        product(representable_cube(1, 3), representable_cube(1, 3)),
        representable_cube(2, 3)))
    assert iso_search(X, Y).found
    assert set(X.action) == set(Y.action) == {
        f for d in range(4) for gens in simplicial.generators(d)
        for f in gens}
    assert len(X.action) == 15
    assert sum(len(simplicial.maps(a, b))
               for b in range(4) for a in range(b + 1)) == 94


def test_a_table_is_built_once():
    X = representable_cube(2, 3)
    T = simplicial.triangulate(X)
    f, g = cubes.maps(3, 1)[4], simplicial.maps(2, 1)[1]
    assert X.action[f] is X.action[f]
    assert T.action[g] is T.action[g]


def test_a_table_leaving_the_level_sets_fails_when_read():
    # the table of the i-th map a -> b is (a + b + i, ...): in range only
    # for the identity of level 0
    X = build_presheaf(cubes, 1, {0: (0,), 1: (0, 1)},
                       lambda a, b, i: (a + b + i,) * (b + 1))
    assert X.action[cubes.maps(0, 0)[0]] == (0,)
    with pytest.raises(ValueError, match="leaves the level sets"):
        X.action[cubes.maps(1, 1)[0]]


def test_representable_functorial_dim2():
    for n in (0, 1, 2):
        assert check_functorial(representable_cube(n, 2))


def test_product_with_terminal_is_identity():
    X = representable_cube(1, 2)
    P = product(X, terminal_cube(2))
    assert iso_search(P, X).found


def test_product_level0_size():
    P = product(representable_cube(1, 2), representable_cube(1, 2))
    assert len(P.levels[0]) == 4


def test_product_functorial_dim2():
    P = product(representable_cube(1, 2), representable_cube(1, 2))
    assert check_functorial(P)


def test_quotient_by_trivial_group_is_isomorphic():
    X = representable_cube(2, 2)
    from eqctt.cubelab.cubes import GroupAction
    Q = quotient_by_group(X, GroupAction(2, ((1, 2),)))
    assert iso_search(Q, X).found


def test_quotient_orbits_level0():
    # the two mixed corners of the square collapse under the swap
    Q = quotient_by_group(representable_cube(2, 3), full_symmetric(2))
    assert len(Q.levels[0]) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_quotient_level_sizes(n):
    # an orbit of maps I^d -> I^n under permuting the n axes is a multiset
    # of n of the d + 2 table entries
    Q = quotient_by_group(representable_cube(n, 3), full_symmetric(n))
    assert Q.level_sizes() == [math.comb(d + n + 1, n) for d in range(4)]


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_action_matches_orbits_by_brute_force(n):
    # the action of f on an orbit, computed on labels: restrict every member
    # along f and take the least member of the image's orbit
    D, group = 3, full_symmetric(n)
    Q = quotient_by_group(representable_cube(n, D), group)

    orbit = {c: min(compose(perm_cube_map(p), c) for p in group.perms)
             for d in range(D + 1) for c in enumerate_hom(d, n)}
    for a in range(D + 1):
        for b in range(D + 1):
            for f in enumerate_hom(a, b):
                images = {}
                for c in enumerate_hom(b, n):
                    images.setdefault(orbit[c], set()).add(
                        orbit[compose(c, f)])
                assert all(len(image) == 1 for image in images.values())
                assert {Q.levels[b][q]: Q.levels[a][Q.act(number(f), q)]
                        for q in Q.cells(b)} == \
                    {c: image.pop() for c, image in images.items()}


def test_quotient_functorial():
    Q = quotient_by_group(representable_cube(2, 3), full_symmetric(2))
    assert check_functorial(Q)


def test_quotient_rejects_non_equivariant_action():
    X = representable_cube(2, 2)

    def bogus(perm, d):
        cells = tuple(X.cells(d))
        if perm == (2, 1) and d == 1:
            return cells[1:] + cells[:1]  # each cell to the next one
        return cells

    with pytest.raises(ValueError, match="not equivariant"):
        quotient_by_group(X, full_symmetric(2), bogus)


@pytest.mark.parametrize("n", [2, 3])
def test_equivariance_check_matches_the_all_maps_check(n):
    # the axis permutations of I^n, and the same tables twisted at one level
    # by a permutation tau of its cells, an axis permutation's or a random
    # one: the check on the generators refuses exactly the actions that some
    # site map refuses
    X, group = representable_cube(n, 2), full_symmetric(n)
    axes, rng = symmetric_level_action(X, n), random.Random(n)
    verdicts = []
    for level in range(3):
        for tau in [list(axes(q, level)) for q in group.perms] + [
                rng.sample(X.cells(level), len(X.levels[level]))
                for _ in range(4)]:
            back = {c: i for i, c in enumerate(tau)}

            def twisted(p, d):
                t = axes(p, d)
                return (t if d != level else
                        tuple(tau[t[back[c]]] for c in X.cells(d)))
            perm = {d: [twisted(p, d) for p in group.perms]
                    for d in range(3)}
            try:
                quotient_by_group(X, group, twisted)
                refused = False
            except ValueError as e:
                assert "not equivariant" in str(e)
                refused = True
            assert refused != equivariant_on_all_maps(X, perm), (level, tau)
            verdicts.append(refused)
    assert any(verdicts) and not all(verdicts)


def test_vertex_inclusion_commutes_with_quotient():
    # the quotient of the image of the initial (or final) vertex inclusion
    # equals the image of the vertex inclusion into the quotient, levelwise
    for n in (1, 2, 3):
        for endpoint in (0, 1):
            X = representable_cube(n, 3)
            H = full_symmetric(n)
            Q = quotient_by_group(X, H)
            sub = sub_vertex(n, 3, endpoint)
            # push the subobject through the quotient map (orbit reps)
            reps = {}
            for d in range(4):
                out = set()
                for c in sub[d]:
                    orbit = sorted(compose(perm_cube_map(p), X.levels[d][c])
                                   for p in H.perms)
                    out.add(orbit[0])
                reps[d] = frozenset(out)
            # the vertex of the quotient generates the same cells
            vtx = vertex_cell(n, endpoint)
            vtx_orbit = sorted(compose(perm_cube_map(p), vtx)
                               for p in H.perms)
            qsub = close_cells(Q, {0: {cell(Q, 0, vtx_orbit[0])}})
            assert {d: frozenset(Q.levels[d][q] for q in qsub[d])
                    for d in qsub} == reps, (n, endpoint)


def test_nondegenerate_counts_interval():
    X = representable_cube(1, 3)
    assert len(nondegenerate(X, 0)) == 2   # two endpoints
    assert len(nondegenerate(X, 1)) == 1   # the identity edge
    assert len(nondegenerate(X, 2)) == 0


def test_iso_search_refutes_on_size():
    from eqctt.cubelab.simplicial import delta
    r = iso_search(delta(1, 2), delta(2, 2))
    assert not r.found
    assert "level-size mismatch" in r.reason


def test_iso_search_self():
    X = product(representable_cube(1, 2), representable_cube(1, 2))
    r = iso_search(X, X)
    assert r.found


# lab object expressions on both sites; horn needs D >= 2
LAB_OBJECTS = (
    "1", "I1", "I2", "I3", "horn", "I1*I1", "I1*I2", "I2*I1", "1*I1",
    "horn*1", "I1/S1", "I2/S2", "I3/S3", "I2/S2*I1", "I1*I2/S2",
    "Delta0", "Delta1", "Delta2", "Delta3", "T(1)", "T(I1)", "T(I2)",
    "T(I3)", "T(I1*I1)", "T(I2/S2)", "T(I3/S3)", "T(horn)",
    "Delta1*Delta1", "T(I1)*Delta1", "T(I2/S2*I1)", "Delta2*Delta1")


def lab_objects(D: int) -> dict:
    s = Settings(argparse.Namespace(json="0", k_max=None, dim=str(D),
                                    budget="500000"))
    out = {}
    for expr in LAB_OBJECTS:
        try:
            out[expr] = parse_lab_object(expr, s)
        except UsageError:
            assert "horn" in expr and D < 2
    return out


def loop_and_point(X):
    """X is Delta1 or I1, whose level d has d + 2 cells, the degeneracies
    of its two vertices first and last: X with its two vertices glued into
    one, and one more vertex beside it, whose cell at each level is last."""
    def table(a, b, i):
        t = X.action[X.site.maps(a, b)[i]]
        return tuple(0 if c == len(X.levels[a]) - 1 else c
                     for c in t[:-1]) + (len(X.levels[a]) - 1,)
    return build_presheaf(X.site, X.D, {d: range(len(X.levels[d]))
                                        for d in range(X.D + 1)}, table)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_iso_search_matches_the_all_maps_search(D):
    objects = lab_objects(D)
    pairs = [(X, Y) for X in objects.values() for Y in objects.values()]
    # equal level sizes but no isomorphism: an edge against a loop
    for X in (simplicial.delta(1, D), representable_cube(1, D)):
        pairs += [(X, loop_and_point(X)), (loop_and_point(X), X)]
    found = refuted = 0
    for X, Y in pairs:
        r, oracle = iso_search(X, Y), iso_search_all_maps(X, Y)
        assert (r.found, r.witness, r.reason) == \
            (oracle.found, oracle.witness, oracle.reason)
        found += r.found
        refuted += r.reason == "exhausted all level bijections"
    assert found >= len(objects) and refuted >= 4


def test_an_edge_is_not_a_loop():
    for X in (simplicial.delta(1, 2), representable_cube(1, 2)):
        Y = loop_and_point(X)
        assert check_functorial(Y)
        assert Y.level_sizes() == X.level_sizes()
        assert iso_search(X, Y).reason == "exhausted all level bijections"
