import pytest
from conftest import cell, run_cli

from eqctt.cubelab.boxes import (PresheafMap, _product, _xi,
                                 check_equivariant_lifting,
                                 close_cells, enumerate_natural_maps,
                                 enumerate_subpresheaves, horn_box_domain,
                                 open_boxes, presheaf_map_to_terminal,
                                 sub_empty, sub_full, sub_vertex)
from eqctt.cubelab.cubes import (CubeMap, compose, cube_map, enumerate_hom,
                                 full_symmetric, index, make_cube_map)
from eqctt.cubelab.presheaf import (iso_search, nondegenerate,
                                    quotient_by_group, representable_cube,
                                    terminal_cube)
from reference import (LabelBox, OpenBoxSpec, check_functorial,
                       nondegenerate_map, number, pair, perm_cube_map,
                       product)


def test_subpresheaves_of_interval():
    subs = enumerate_subpresheaves(representable_cube(1, 3))
    assert len(subs) == 5  # empty, v0, v1, both endpoints, everything


def test_subobject_enumeration_is_charged():
    # one unit per union of each step, which the lift check's budget covers
    charged = []
    subs = enumerate_subpresheaves(representable_cube(2, 3), charged.append)
    assert (len(subs), sum(charged)) == (73, 306)


def test_endpoint_inclusion_box():
    # C = empty, n = 0, k = 1, zeta = 0: the endpoint inclusion 1 -> I^1
    spec = OpenBoxSpec.make(0, 1, sub_empty(0, 3),
                            CubeMap(0, 1, (0, 0, 1)))
    dom, amb = spec.build(3)
    assert dom.level_sizes() == [1, 1, 1, 1]
    assert amb.level_sizes() == [(d + 2) for d in range(4)]
    assert check_functorial(dom)


def test_full_subobject_box_is_iso():
    spec = OpenBoxSpec.make(1, 1, sub_full(1, 3),
                            make_cube_map(1, 1, (1,)))
    dom, amb = spec.build(3)
    assert dom.level_sizes() == amb.level_sizes()
    assert iso_search(dom, amb).found


def test_box_domain_is_levelwise_included():
    spec = OpenBoxSpec.make(1, 1, sub_vertex(1, 3, 0),
                            make_cube_map(1, 1, (1,)))
    dom, amb = spec.build(3)
    for d in range(4):
        assert set(dom.levels[d]) <= set(amb.levels[d])
        assert len(dom.levels[d]) <= len(amb.levels[d])


def test_horn_shape():
    H = horn_box_domain(3)
    assert H.level_sizes() == [3, 5, 7, 9]
    assert check_functorial(H)


def test_natural_maps_by_yoneda():
    # natural maps I^1 -> I^1 are the three cells of level 1
    X = representable_cube(1, 2)
    maps = enumerate_natural_maps(X, X)
    assert len(maps) == 3


def test_identity_map_passes_lifting():
    X = representable_cube(1, 2)
    ident = PresheafMap(X, X, {d: {c: c for c in X.cells(d)}
                               for d in range(3)})
    rep = check_equivariant_lifting(ident, n_max=0, k_max=1, D=2)
    assert rep.passed


def test_terminal_identity_passes_uniformity_k2():
    T = terminal_cube(2)
    ident = PresheafMap(T, T, {d: {c: c for c in T.cells(d)}
                               for d in range(3)})
    rep = check_equivariant_lifting(ident, n_max=0, k_max=2, D=2)
    assert rep.passed


def test_vertex_boxes_lift_against_interval():
    # the n = 0 boxes (vertex inclusions into I^k) lift against I^1 -> 1
    X = representable_cube(1, 3)
    f = presheaf_map_to_terminal(X)
    rep = check_equivariant_lifting(f, n_max=0, k_max=1, D=3)
    assert rep.passed, rep.detail


def test_horn_to_terminal_fails_with_refuting_box():
    H = horn_box_domain(3)
    f = presheaf_map_to_terminal(H)
    rep = check_equivariant_lifting(f, n_max=1, k_max=1, D=3)
    assert not rep.passed
    assert rep.refutation is not None
    assert rep.detail == "no lift exists for this open box"


def test_interval_to_terminal_is_refuted_by_connection_square():
    # the cartesian cube category has no connections, so the horn box with
    # both edges mapped identically cannot be filled: representable(1) -> 1
    # is not an equivariant fibration
    X = representable_cube(1, 3)
    f = presheaf_map_to_terminal(X)
    rep = check_equivariant_lifting(f, n_max=1, k_max=1, D=3)
    assert not rep.passed
    assert rep.refutation is not None
    assert rep.refutation["n"] == 1 and rep.refutation["k"] == 1


# ---------------------------------------------------------------------------
# the cell-based check against the natural-map search it replaced

def _identity(X):
    return PresheafMap(X, X, {d: {c: c for c in X.cells(d)}
                              for d in range(X.D + 1)})


ORACLE_MAPS = {
    "I1->1": lambda D: presheaf_map_to_terminal(representable_cube(1, D)),
    "horn->1": lambda D: presheaf_map_to_terminal(horn_box_domain(D)),
    "id(I1)": lambda D: _identity(representable_cube(1, D)),
}


def _specs(n_max, k_max, D):
    return [OpenBoxSpec.make(n, k, C, zeta)
            for n in range(n_max + 1)
            for C in enumerate_subpresheaves(representable_cube(n, D))
            for k in range(1, k_max + 1) if n + k <= D
            for zeta in enumerate_hom(n, k)]


def _generic_cell(n, k):
    """The cell of I^n x I^k at level n+k that is the identity of I^(n+k):
    the pair of its projections."""
    return (make_cube_map(n + k, n, tuple(range(1, n + 1))),
            make_cube_map(n + k, k, tuple(range(n + 1, n + k + 1))))


def _in_ambient(dom, amb, components):
    """Components on the cells of a box domain, keyed instead by the cells
    of the ambient I^n x I^k with the same labels."""
    return {d: {cell(amb, d, dom.levels[d][c]): x for c, x in t.items()}
            for d, t in components.items()}


def _no_budget(count=1):
    pass


def _spec(box):
    """The box as an ``OpenBoxSpec``, with zeta a cube map."""
    return OpenBoxSpec.make(box.n, box.k, box.C,
                            cube_map(box.n, box.k, box.zeta))


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_yoneda_squares_match_natural_map_search(name):
    D = 2
    f = ORACLE_MAPS[name](D)
    X, Y = f.src, f.dst
    boxes = open_boxes(1, 1, D, _no_budget)[0]
    specs = [_spec(box) for box in boxes]
    assert len(specs) == len(set(specs)) and set(specs) == set(_specs(1, 1, D))
    for box in boxes:
        dom, amb = _spec(box).build(D)
        tops = box.tops(X, _no_budget)
        # the tops, built from generator images, are the natural maps from
        # the box domain, in the order the search finds them; a box cell
        # is keyed by its index in Hom(I^d, I^(n+k)), its ambient cell
        assert [_in_ambient(dom, amb, m.components)
                for m in enumerate_natural_maps(dom, X)] == \
            [box.top_map(X, top) for top in tops]
        N = box.n + box.k
        generic = cell(amb, N, _generic_cell(box.n, box.k))
        for top in tops:
            top_map = box.top_map(X, top)
            below = {d: {c: f(d, x) for c, x in t.items()}
                     for d, t in top_map.items()}
            bottoms = [b(N, generic) for b in
                       enumerate_natural_maps(amb, Y, seed=below)]
            assert set(bottoms) == {
                y for y in Y.cells(N)
                if all(Y.act(g, y) == f(m, x)
                       for (m, g), x in zip(box.gens, top))}
            searched = [m(N, generic) for m in
                        enumerate_natural_maps(amb, X, seed=top_map)]
            for y in bottoms:
                # a lift is a cell x at level n+k over y restricting to top
                lifts = {x for x in X.cells(N) if f(N, x) == y
                         and tuple(X.act(g, x) for _, g in box.gens) == top}
                assert lifts == {x for x in searched if f(N, x) == y}


def test_integer_boxes_match_label_boxes():
    # every box at --dim 3 --nmax 1 --kmax 2 against the box built by
    # composing cube maps: the same generators and relations, and the same
    # cells, nondegenerate ones with the same first representation
    D = 3
    boxes = open_boxes(1, 2, D, _no_budget)[0]
    assert len(boxes) == 72
    for box in boxes:
        oracle = LabelBox.make(_spec(box), D)
        assert box.gens == [(g.dom, number(g)) for g in oracle.gens]
        assert box.relations == [[(number(h), j, number(h2))
                                  for h, j, h2 in rel]
                                 for rel in oracle.relations]
        assert box.cells == [(i, number(h)) for e, i, h in oracle.cells
                             if nondegenerate_map(e)]
        # the top that sends each generator to itself in I^(n+k) maps every
        # box cell to itself
        N = box.n + box.k
        ambient = representable_cube(N, D)
        gens = tuple(ambient.site.maps(m, N).index(g) for m, g in box.gens)
        assert box.top_map(ambient, gens) == {
            d: {index(e): index(e) for e, _, _ in oracle.cells if e.dom == d}
            for d in range(D + 1)}


def test_box_digit_arithmetic_matches_composition():
    # <u, v>, u x sigma and sigma . zeta . alpha for all dimensions <= 3
    for a in range(4):
        for n in range(4):
            homs = enumerate_hom(a, n)
            for k in range(4):
                for u in homs:
                    for v in enumerate_hom(a, k):
                        assert index(u) * (a + 2) ** k + index(v) == \
                            index(pair(u, v))
                    for p in full_symmetric(k).perms:
                        assert _product(a, u.table[1:-1], k, p) == \
                            index(product(u, make_cube_map(k, k, p)))
                        inverse = tuple(sorted(range(1, k + 1),
                                               key=lambda j: p[j - 1]))
                        assert perm_cube_map(inverse).table[1:-1] == p
    for m in range(4):
        for n in range(4):
            for k in range(1, 4):
                for p in full_symmetric(k).perms:
                    sigma = perm_cube_map(p)
                    for zeta in enumerate_hom(n, k):
                        for alpha in enumerate_hom(m, n):
                            assert _xi(m, alpha.table, zeta.table[1:-1], p) \
                                == index(compose(sigma, compose(zeta, alpha)))


def test_budget_bound_for_subobjects_of_cube3():
    # at --dim 4, I^3 has 19 nondegenerate 1-cells; each generates a
    # subobject whose only nondegenerate 1-cell it is, so every set of them
    # with the 8 vertices is a distinct subobject: 2^19 > the default budget
    X = representable_cube(3, 4)
    edges = nondegenerate(X, 1)
    assert len(edges) == 19 and len(nondegenerate(X, 0)) == 8
    for c in edges:
        assert set(close_cells(X, {1: {c}})[1]) & set(edges) == {c}
    assert 2 ** 19 > 500_000
    r = run_cli("--json", "--dim", "4", "lab", "lift-check", "--map", "1->1",
                "--nmax", "3", "--kmax", "1")
    assert r.exit_code == 3 and "budget" in r.stdout


def test_interval_refutation_rechecked_by_search():
    # criterion 8a's refuting square, found again by the natural-map search,
    # has no lift by that search either
    D = 3
    X = representable_cube(1, D)
    f = presheaf_map_to_terminal(X)
    ref = check_equivariant_lifting(f, n_max=1, k_max=1, D=D).refutation
    matches = []
    for spec in _specs(1, 1, D):
        if (spec.n, spec.k, list(spec.zeta.table),
                [len(cs) for _, cs in spec.C]) != \
                (ref["n"], ref["k"], ref["zeta"], ref["C_sizes"]):
            continue
        dom, amb = spec.build(D)
        matches += [(amb, _in_ambient(dom, amb, top.components))
                    for top in enumerate_natural_maps(dom, X)
                    if {str(d): {str(dom.levels[d][c]): str(X.levels[d][x])
                                 for c, x in t.items()}
                        for d, t in top.components.items()} == ref["top"]]
    assert len(matches) == 1
    amb, top = matches[0]
    below = {d: {c: f(d, x) for c, x in t.items()} for d, t in top.items()}
    assert len(enumerate_natural_maps(amb, f.dst, seed=below)) == 1
    assert enumerate_natural_maps(amb, X, seed=top) == []


def _subpresheaves_by_fixpoint(X):
    """Every subpresheaf, by closing under the action until nothing changes,
    starting from each set reachable by adding one cell at a time."""
    def close(cells):
        while True:
            more = {(a, X.act(f, c)) for b, c in cells
                    for a in range(X.D + 1) for f in X.site.maps(a, b)}
            if more <= cells:
                return frozenset(cells)
            cells = cells | more

    found, todo = {frozenset()}, [frozenset()]
    while todo:
        sub = todo.pop()
        for d in range(X.D + 1):
            for c in X.cells(d):
                bigger = close(sub | {(d, c)})
                if bigger not in found:
                    found.add(bigger)
                    todo.append(bigger)
    return found


@pytest.mark.parametrize("n, D", [(n, D) for n in range(3)
                                  for D in range(1, 3)])
def test_subpresheaves_match_fixpoint_closure(n, D):
    X = representable_cube(n, D)
    subs = enumerate_subpresheaves(X)
    as_sets = [frozenset((d, c) for d, cells in sub.items() for c in cells)
               for sub in subs]
    assert len(set(as_sets)) == len(subs)
    assert set(as_sets) == _subpresheaves_by_fixpoint(X)
    assert all(sorted(sub) == list(range(D + 1)) for sub in subs)


@pytest.mark.parametrize("name", ["1->1", "id(I1)"])
def test_sigma2_acts_on_boxes_with_n1(name):
    # at k = 2 a nontrivial sigma in Sigma_2 acts on the boxes, also on those
    # with n = 1; a box is (n, k, C, zeta) with C a subobject of I^n and
    # zeta one of the (n+2)^k maps I^n -> I^k
    D, n_max, k_max = 3, 1, 2
    boxes = [(n, k) for n in range(n_max + 1) for k in range(1, k_max + 1)
             if n + k <= D for _ in range(
                 len(_subpresheaves_by_fixpoint(representable_cube(n, D)))
                 * (n + 2) ** k)]
    assert len(boxes) == 72
    # by Yoneda a square into id(I1) is its bottom, one of the n+k+2 cells
    # of I1 at level n+k; into 1 -> 1 there is one square per box
    if name == "1->1":
        f, squares = presheaf_map_to_terminal(terminal_cube(D)), len(boxes)
    else:
        f = _identity(representable_cube(1, D))
        squares = sum(n + k + 2 for n, k in boxes)
    rep = check_equivariant_lifting(f, n_max=n_max, k_max=k_max, D=D)
    assert rep.passed, rep.detail
    assert (rep.boxes, rep.squares) == (len(boxes), squares)


def test_quotient_map_has_lifts_but_no_equivariant_choice():
    # f : I^2 -> I^2/Sigma_2.  Against the box (n=0, k=2, C empty, zeta the
    # vertex (0,0)) the square whose bottom is the orbit of the identity
    # 2-cell has the lifts id and swap; the box morphism (id, swap) maps that
    # square to itself and the chosen lift x to x . swap, so no lift is fixed
    D = 2
    X = representable_cube(2, D)
    group = full_symmetric(2)
    Q = quotient_by_group(X, group)
    f = PresheafMap(X, Q, {d: {c: cell(Q, d, min(
        compose(perm_cube_map(p), label) for p in group.perms))
        for c, label in enumerate(X.levels[d])} for d in range(D + 1)})
    rep = check_equivariant_lifting(f, n_max=0, k_max=2, D=D)
    assert not rep.passed and rep.refutation is None
    assert rep.detail == ("lifts exist but no uniform equivariant choice "
                          "exists within the bounds")
    # without Sigma_2 acting (k = 1) a uniform choice exists
    assert check_equivariant_lifting(f, n_max=0, k_max=1, D=D).passed
