import math

import pytest

from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.cubes import full_symmetric
from eqctt.cubelab.presheaf import (iso_search, nondegenerate, product,
                                    quotient_by_group, representable_cube)
from eqctt.cubelab.simplicial import (SimplexMap, delta, enumerate_monotone,
                                      triangulate)
from conftest import run_cli
from reference import dualize_simplex_map, simplex_compose, simplex_identity


def test_dualize_identity():
    for n in range(4):
        d = dualize_simplex_map(simplex_identity(n))
        assert d.table == tuple(range(n + 2))


def test_dualize_contravariant_functorial():
    for m in range(3):
        for n in range(3):
            for p in range(3):
                for f in enumerate_monotone(m, n):
                    for g in enumerate_monotone(n, p):
                        lhs = dualize_simplex_map(simplex_compose(g, f))
                        rhs_g = dualize_simplex_map(g)
                        rhs_f = dualize_simplex_map(f)
                        # (g . f)^ = f^ . g^ as tables; as cube maps this is
                        # the composite i(f) then i(g)
                        from eqctt.cubelab.cubes import compose
                        assert lhs == compose(rhs_g, rhs_f)


def test_dualize_endpoint_preserving():
    for f in enumerate_monotone(2, 2):
        d = dualize_simplex_map(f)
        assert d.table[0] == 0 and d.table[-1] == f.dom + 1


def test_triangulate_point():
    assert iso_search(triangulate(representable_cube(0, 3)), delta(0, 3)).found


def test_triangulate_interval():
    assert iso_search(triangulate(representable_cube(1, 3)), delta(1, 3)).found


def test_interval_fully_faithful_on_delta1():
    # the induced simplicial set of the representable 1-cube is Delta^1:
    # levelwise the cells are exactly the monotone maps
    T = triangulate(representable_cube(1, 3))
    for d in range(4):
        assert len(T.levels[d]) == len(enumerate_monotone(d, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_triangulated_cube_is_simplex_power(n):
    T = triangulate(representable_cube(n, 3))
    P = delta(1, 3)
    for _ in range(n - 1):
        P = product(P, delta(1, 3))
    assert iso_search(T, P).found
    assert len(nondegenerate(T, n)) == math.factorial(n)


def test_triangulated_symmetric_quotient_of_cube3_is_simplex():
    # criterion 7 at n = 3: T(I^3 / Sigma_3) is Delta^3
    Q = quotient_by_group(representable_cube(3, 3), full_symmetric(3))
    assert iso_search(triangulate(Q), delta(3, 3)).found


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2)])
def test_triangulation_preserves_products(m, n):
    lhs = triangulate(product(representable_cube(m, 3),
                              representable_cube(n, 3)))
    rhs = product(triangulate(representable_cube(m, 3)),
                  triangulate(representable_cube(n, 3)))
    assert iso_search(lhs, rhs).found


def test_quotient_triangulate_commutes_for_sigma2():
    # triangulating the quotient gives the same level sets as quotienting
    # the triangulation by the induced action (orbit counts agree levelwise)
    X = representable_cube(2, 3)
    Q = quotient_by_group(X, full_symmetric(2))
    TQ = triangulate(Q)
    TX = triangulate(X)
    from eqctt.cubelab.cubes import compose
    from reference import perm_cube_map
    for d in range(4):
        orbits = set()
        for c in TX.levels[d]:
            orbit = tuple(sorted(
                compose(perm_cube_map(p), c) for p in full_symmetric(2).perms))
            orbits.add(orbit)
        assert len(orbits) == len(TQ.levels[d])


def test_simplicial_identities_hold_after_triangulation():
    from reference import check_functorial
    assert check_functorial(triangulate(representable_cube(2, 2)))


def test_triangulate_dualizes_only_the_maps_it_reads(monkeypatch):
    dualized = []

    def recorded(f):
        dualized.append(f)
        return dual_middles(f)
    dual_middles = simplicial.dual_middles
    monkeypatch.setattr(simplicial, "dual_middles", recorded)
    T = triangulate(representable_cube(2, 3))
    for i in (4, 1, 4):
        T.action[simplicial.maps(1, 2)[i]]
    assert dualized == [SimplexMap(1, 2, (1, 2)), SimplexMap(1, 2, (0, 1))]


def test_triangulating_a_product_builds_no_label(monkeypatch):
    built = []

    def recorded(*args):
        built.append(args)
        return cube_map(*args)
    cube_map = cubes.cube_map
    monkeypatch.setattr(cubes, "cube_map", recorded)
    r = run_cli("--dim", "3", "lab", "triangulate", "I1*I1")
    assert r.exit_code == 0, r.output
    assert built == []
    P = product(representable_cube(1, 3), representable_cube(1, 3))
    assert P.levels[1][5] == (cube_map(1, 1, 1), cube_map(1, 1, 2))
    assert len(built) == 2
