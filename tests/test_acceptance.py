"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated runtime bound.

Criterion 8a (representable(1) -> terminal passes the lifting check) is an
intentional red: the cartesian cube category has no connections, so the horn
box with both edges mapped identically is unfillable; the stated expectation
is mathematically unattainable and the check reports the refuting square
instead of being weakened.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from eqctt import cof
from eqctt.parser import parse_module
from eqctt.semantics import VU, convert, eval_term, quote, quote_type
from eqctt.syntax import (BOT, Branch, CEq, Comp, Cof, COr, I0, I1, IVar,
                          PLam, Var, alpha_eq)
from eqctt.typecheck import Checker, check_module

from conftest import CORPUS, module_context
from reference import cof_and, substitute


def _timed(criterion: str, limit: float, started: float, ok: bool,
           detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {criterion}: {status} "
          f"({elapsed:.2f}s / limit {limit:.0f}s){' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s"


# ---------------------------------------------------------------------------
# criterion 1: comp equation suite

def _corpus_comps():
    mod = check_module(parse_module((CORPUS / "comps.ectt").read_text()))
    assert mod.report.ok
    out = []
    for decl in parse_module((CORPUS / "comps.ectt").read_text()):
        if not hasattr(decl, "body"):
            continue
        sc = module_context(mod)
        body = decl.body
        while isinstance(body, PLam):
            sc, _ = sc.bind_ivars((body.binder,))
            body = body.body
        if isinstance(body, Comp):
            out.append((decl.name, sc, body))
    return mod, out


def _sigma_transform_ast(c: Comp, perm: tuple[int, ...]) -> Comp:
    k = len(c.dirs)
    names = tuple(f"zz{m}" for m in range(k))
    inv = [0] * k
    for idx, p in enumerate(perm):
        inv[p] = idx
    line = substitute(c.line, ivars={
        c.dirs[m]: IVar(names[perm[m]]) for m in range(k)})
    tube = tuple(
        Branch(br.guard, names,
               substitute(br.body, ivars={
                   br.dirs[m]: IVar(names[perm[m]]) for m in range(k)}))
        for br in c.tube)
    src = tuple(c.source[inv[m]] for m in range(k))
    tgt = tuple(c.target[inv[m]] for m in range(k))
    return Comp(names, line, src, tgt, tube, c.cap)


def test_criterion_1_comp_equations():
    t0 = time.time()
    mod, comps = _corpus_comps()
    assert len(comps) >= 10
    ks = {len(c.dirs) for _, _, c in comps}
    assert {1, 2, 3} <= ks
    checked = 0
    for name, sc, c in comps:
        ch = Checker()
        ty = ch.check_comp_term(sc, c)
        v = eval_term(sc.env, c)
        from eqctt.semantics import eval_cof, eval_interval

        tgt_sem = tuple(eval_interval(sc.env, r) for r in c.target)

        # (a) restriction by each tube guard selects that branch at target
        for br in c.tube:
            g = eval_cof(sc.env, br.guard)
            rc = sc.restrict(g)
            branch_at_t = eval_term(
                sc.env.bind_ivars(br.dirs, tgt_sem), br.body)
            assert convert(rc, ty, v, branch_at_t), (name, "guard")

        # (b) substituting target := source yields the cap
        c_src = Comp(c.dirs, c.line, c.source, c.source, c.tube, c.cap)
        ty_src = Checker().check_comp_term(sc, c_src)
        v_src = eval_term(sc.env, c_src)
        cap_v = eval_term(sc.env, c.cap)
        assert convert(sc, ty_src, v_src, cap_v), (name, "cap")

        # (c) every sigma-transform converts with the original
        for perm in itertools.permutations(range(len(c.dirs))):
            c2 = _sigma_transform_ast(c, perm)
            Checker().check_comp_term(sc, c2)
            v2 = eval_term(sc.env, c2)
            assert convert(sc, ty, v, v2), (name, "sigma", perm)
        checked += 1
    _timed("1 (comp equation suite)", 10.0, t0, checked >= 10,
           f"{checked} comps, k in {sorted(ks)}")


# ---------------------------------------------------------------------------
# criterion 2: corpus derivations

def test_criterion_2_corpus_derivations():
    t0 = time.time()
    ok = True
    names = []
    for fname in ("funext.ectt", "contract.ectt", "j.ectt"):
        mod = check_module(parse_module((CORPUS / fname).read_text()))
        ok = ok and mod.report.ok
        names += [d.name for d in mod.report.decls]
    assert {"funext", "contract", "J", "Jbeta"} <= set(names)
    _timed("2 (funext, contractibility, J with propositional beta)", 10.0,
           t0, ok)


# ---------------------------------------------------------------------------
# criterion 3: solver vs congruence-enumeration oracle, exhaustive

def _partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield [{first}] + part


def test_criterion_3_cof_solver_vs_oracle():
    t0 = time.time()
    names = ["i", "j", "k", "l"]
    elems = ["0", "1"] + names
    ivs = {"0": I0, "1": I1, **{n: IVar(n) for n in names}}
    atoms = list(itertools.combinations(elems, 2))  # 15 unordered pairs

    # oracle: separating partitions as satisfied-atom bitmasks
    masks = []
    for part in _partitions(elems):
        if any("0" in b and "1" in b for b in part):
            continue
        mask = 0
        for bit, (x, y) in enumerate(atoms):
            if any(x in b and y in b for b in part):
                mask |= 1 << bit
        masks.append(mask)
    assert len(masks) == 151

    sides = []
    for r in range(4):  # 0..3 atoms per side
        sides.extend(itertools.combinations(range(len(atoms)), r))

    def atom_cof(idx):
        x, y = atoms[idx]
        return CEq(ivs[x], ivs[y])

    hyp_cofs = {s: cof_and(*(atom_cof(i) for i in s)) for s in sides}
    goal_cofs = {}
    for s in sides:
        g: Cof = BOT
        for i in s:
            g = atom_cof(i) if isinstance(g, type(BOT)) else COr(g, atom_cof(i))
        goal_cofs[s] = g

    checked = 0
    for hs in sides:
        hbits = sum(1 << i for i in hs)
        models = [m for m in masks if (m & hbits) == hbits]
        hyp = hyp_cofs[hs]
        for gs in sides:
            gbits = sum(1 << i for i in gs)
            solver = cof.entails([hyp], goal_cofs[gs])
            oracle = all(m & gbits for m in models)
            assert solver == oracle, (hs, gs)
            checked += 1
    _timed("3 (cofibration solver vs enumeration oracle)", 60.0, t0,
           checked == len(sides) ** 2, f"{checked} instances")


# ---------------------------------------------------------------------------
# criterion 4: hom counts and automorphisms

def test_criterion_4_hom_counts_and_automorphisms():
    t0 = time.time()
    from eqctt.cubelab.cubes import automorphisms, enumerate_hom
    from reference import perm_cube_map
    ok = True
    for m in range(4):
        for n in range(4):
            ok = ok and len(enumerate_hom(m, n)) == (m + 2) ** n
    for n in range(1, 5):
        g = automorphisms(n)
        ok = ok and len(g.perms) == math.factorial(n)
        for p in g.perms:
            mids = perm_cube_map(p).table[1:-1]
            ok = ok and sorted(mids) == list(range(1, n + 1))
    _timed("4 (hom counts (m+2)^n; automorphisms = axis permutations)",
           5.0, t0, ok)


# ---------------------------------------------------------------------------
# criterion 5: EZ factorization, exhaustive for m, n <= 3

def test_criterion_5_ez_factorization():
    t0 = time.time()
    from eqctt.cubelab.cubes import (compose, enumerate_hom, ez_factor,
                                     find_section, is_iso, is_mono)
    from reference import is_mono_by_probes
    total = 0
    for a in range(4):
        for b in range(4):
            for f in enumerate_hom(a, b):
                e, m = ez_factor(f)
                assert compose(m, e) == f, f
                assert find_section(e) is not None, f
                assert is_mono(m.dom, m.table), f
                assert is_mono_by_probes(m, probe_max=3), f
                if is_iso(f):
                    assert e == f and m.dom == m.cod
                if not is_iso(e):
                    assert e.cod < e.dom, f
                if not is_iso(m):
                    assert m.dom < m.cod, f
                total += 1
    _timed("5 (EZ factorization on all maps m,n <= 3)", 30.0, t0,
           total == sum((m + 2) ** n for m in range(4) for n in range(4)),
           f"{total} maps")


# ---------------------------------------------------------------------------
# criteria 6 and 7: triangulation

def test_criterion_6_triangulation_of_cubes():
    t0 = time.time()
    from eqctt.cubelab.presheaf import (iso_search, nondegenerate, product,
                                        representable_cube)
    from eqctt.cubelab.simplicial import delta, triangulate
    ok = iso_search(triangulate(representable_cube(0, 3)), delta(0, 3)).found
    ok = ok and iso_search(triangulate(representable_cube(1, 3)),
                           delta(1, 3)).found
    for n in (2, 3):
        T = triangulate(representable_cube(n, 3))
        P = delta(1, 3)
        for _ in range(n - 1):
            P = product(P, delta(1, 3))
        ok = ok and iso_search(T, P).found
        ok = ok and len(nondegenerate(T, n)) == math.factorial(n)
    _timed("6 (T(I^n) = (Delta^1)^n with n! nondegenerate n-simplices)",
           60.0, t0, ok)


def test_criterion_7_quotient_triangulation():
    t0 = time.time()
    from eqctt.cubelab.cubes import full_symmetric
    from eqctt.cubelab.presheaf import (iso_search, quotient_by_group,
                                        representable_cube)
    from eqctt.cubelab.simplicial import delta, triangulate
    Q = quotient_by_group(representable_cube(2, 3), full_symmetric(2))
    r = iso_search(triangulate(Q), delta(2, 3))
    _timed("7 (T(I^2/Sigma_2) isomorphic to Delta^2)", 60.0, t0, r.found)


# ---------------------------------------------------------------------------
# criterion 8: the lifting lab

def test_criterion_8a_interval_to_terminal_lifting():
    """Intentional red: the connection square refutes the expectation.

    The open box (n=1, k=1, C = vertex 0, zeta = const 0) with both edges of
    the horn sent to the identity edge would need a binary connection
    I^2 -> I^1 to fill; the cartesian cube category has none (the only maps
    I^2 -> I^1 are two projections and two constants), so the interval is
    not fibrant and representable(1) -> terminal cannot pass.
    """
    t0 = time.time()
    from eqctt.cubelab.boxes import (check_equivariant_lifting,
                                     presheaf_map_to_terminal)
    from eqctt.cubelab.presheaf import representable_cube
    X = representable_cube(1, 3)
    rep = check_equivariant_lifting(presheaf_map_to_terminal(X),
                                    n_max=1, k_max=1, D=3)
    _timed("8a (representable(1) -> terminal passes lifting; unattainable, "
           "intentional red)", 120.0, t0, rep.passed,
           rep.detail + (" refuting box: n=1,k=1,zeta=const0"
                         if rep.refutation else ""))


def test_criterion_8b_horn_non_example_fails():
    t0 = time.time()
    from eqctt.cubelab.boxes import (check_equivariant_lifting,
                                     horn_box_domain,
                                     presheaf_map_to_terminal)
    H = horn_box_domain(3)
    rep = check_equivariant_lifting(presheaf_map_to_terminal(H),
                                    n_max=1, k_max=1, D=3)
    ok = (not rep.passed) and rep.refutation is not None
    _timed("8b (horn non-example fails with explicit refuting box)", 120.0,
           t0, ok, rep.detail)


# ---------------------------------------------------------------------------
# criterion 9: NbE properties on random well-typed terms

SIG9 = """
postulate A : U0
postulate C : U0
postulate a : A
postulate a2 : A
postulate c0 : C
postulate f : (x : A) -> C
postulate g : (x : A) -> A
postulate pp : Path (i. A) a a2
postulate L : Path (i. U0) A A
postulate q : Path (i. L @ i) a a2
"""


def _gen_candidates(scope, rng: random.Random, count: int):
    from eqctt.semantics import VPathT, VPi, VSigma
    from eqctt.syntax import (App, Fst, Lam, PApp, Pair, PathT, Pi, Sigma,
                              Snd, TOP)
    pool = [(Var(n), scope.env.sig[n][1]) for n in
            ("a", "a2", "c0", "f", "g", "pp", "q")]
    out = []
    tries = 0
    while len(out) < count and tries < count * 30:
        tries += 1
        op = rng.randrange(8)
        try:
            if op == 0:  # application
                fns = [(t, ty) for t, ty in pool if isinstance(ty, VPi)]
                t1, ty1 = rng.choice(fns)
                args = [(t, ty) for t, ty in pool
                        if convert(scope, VU(0), ty, ty1.dom)]
                if not args:
                    continue
                t2, _ = rng.choice(args)
                cand = App(t1, t2)
            elif op == 1:  # pair
                (t1, ty1), (t2, ty2) = rng.choice(pool), rng.choice(pool)
                cand = Pair(t1, t2)
                # needs an annotation: synthesize the non-dependent Sigma
                sig_ast = Sigma("_", quote_type(ty1), quote_type(ty2))
                ch = Checker()
                ty = eval_term(scope.env, sig_ast)
                ch.check(scope, cand, ty)
                out.append((cand, ty))
                continue
            elif op == 2:  # projection
                prs = [(t, ty) for t, ty in pool if isinstance(ty, VSigma)]
                if not prs:
                    continue
                t1, _ = rng.choice(prs)
                cand = Fst(t1) if rng.random() < 0.5 else Snd(t1)
            elif op == 3:  # constant path lambda
                t1, ty1 = rng.choice(pool)
                i = f"i{rng.randrange(1000)}"
                cand = PLam(i, t1)
                ty = eval_term(scope.env,
                               PathT(i, quote_type(ty1), t1, t1))
                Checker().check(scope, cand, ty)
                out.append((cand, ty))
                continue
            elif op == 4:  # path application at an endpoint
                ps = [(t, ty) for t, ty in pool if isinstance(ty, VPathT)]
                t1, _ = rng.choice(ps)
                cand = PApp(t1, I0 if rng.random() < 0.5 else I1)
            elif op == 5:  # lambda (identity or constant), checked at a Pi
                dom = rng.choice(["A", "C"])
                if rng.random() < 0.5:
                    cand = Lam("x", Var("x"))
                    ty_ast = Pi("x", Var(dom), Var(dom))
                else:
                    t1, ty1 = rng.choice(
                        [(t, ty) for t, ty in pool
                         if not isinstance(ty, (VPi, VSigma, VPathT))])
                    cand = Lam("x", t1)
                    ty_ast = Pi("x", Var(dom), quote_type(ty1))
                ty = eval_term(scope.env, ty_ast)
                Checker().check(scope, cand, ty)
                out.append((cand, ty))
                continue
            elif op == 6:  # comp over a constant or varying neutral line
                k = rng.choice((1, 2))
                dirs = tuple(f"d{m}" for m in range(k))
                line = rng.choice(
                    [Var("A"), Var("C"), PApp(Var("L"), IVar(dirs[0]))])
                if isinstance(line, PApp) or alpha_eq(line, Var("A")):
                    caps = [(t, ty) for t, ty in pool
                            if convert(scope, VU(0), ty,
                                       scope.env.sig["a"][1])]
                else:
                    caps = [(t, ty) for t, ty in pool
                            if convert(scope, VU(0), ty,
                                       scope.env.sig["c0"][1])]
                if not caps:
                    continue
                t1, _ = rng.choice(caps)
                src = tuple(rng.choice((I0, I1)) for _ in range(k))
                tgt = tuple(rng.choice((I0, I1)) for _ in range(k))
                tube = ()
                if rng.random() < 0.4:
                    tube = (Branch(TOP, dirs, t1),)
                cand = Comp(dirs, line, src, tgt, tube, t1)
            else:  # reuse and wrap: fst of a fresh pair
                (t1, ty1), (t2, ty2) = rng.choice(pool), rng.choice(pool)
                sig_ast = Sigma("_", quote_type(ty1), quote_type(ty2))
                ty = eval_term(scope.env, sig_ast)
                Checker().check(scope, Pair(t1, t2), ty)
                cand = Fst(Pair(t1, t2))
                out.append((cand, ty1))
                continue
            ty = Checker().infer(scope, cand)
            out.append((cand, ty))
            if len(pool) < 120 and rng.random() < 0.5:
                pool.append((cand, ty))
        except Exception:
            continue
    return out


def test_criterion_9_nbe_properties():
    t0 = time.time()
    mod = check_module(parse_module(SIG9))
    assert mod.report.ok
    scope = module_context(mod)
    rng = random.Random(20260811)
    terms = _gen_candidates(scope, rng, 1000)
    assert len(terms) >= 1000
    violations = 0
    sub_env = scope.env.bind_term("a", scope.env.sig["a2"][0])
    for t, ty in terms:
        v = eval_term(scope.env, t)
        n1 = quote(ty, v)
        v2 = eval_term(scope.env, n1)
        n2 = quote(ty, v2)
        if not alpha_eq(n1, n2):  # normalization idempotence
            violations += 1
            continue
        # conversion is an equivalence relation (refl, sym, trans sample)
        v3 = eval_term(scope.env, n2)
        if not (convert(scope, ty, v, v) and
                convert(scope, ty, v, v2) and
                convert(scope, ty, v2, v) and
                convert(scope, ty, v, v3)):
            violations += 1
            continue
        # substitution commutes with evaluation
        t_sub = substitute(t, {"a": Var("a2")})
        ty_sub = eval_term(sub_env, quote_type(ty))
        lhs = eval_term(scope.env, t_sub)
        rhs = eval_term(sub_env, t)
        if not convert(scope, ty_sub, lhs, rhs):
            violations += 1
    _timed("9 (NbE properties over >= 1000 random well-typed terms)", 120.0,
           t0, violations == 0, f"{len(terms)} terms, {violations} violations")
