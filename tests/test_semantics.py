import itertools
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from eqctt import semantics, typecheck
from eqctt.parser import Parser, parse_module, parse_term
from eqctt.printer import print_term
from eqctt.semantics import (NComp, PermutationBoundExceeded, VNe, VU,
                             canonicalize_stuck_comp, convert, eval_term,
                             quote, quote_type, sigma_transform)
from eqctt.syntax import (App, Branch, CEq, Comp, Def, I0, I1, IVar, PApp, Pi,
                          PLam, Var, alpha_eq, term_key)
from eqctt.typecheck import Checker, check_module

import reference
from reference import cof_and, cof_or
from conftest import CORPUS, corpus_files, run_cli
from test_acceptance import _corpus_comps, _sigma_transform_ast


SIG = """
postulate A : U0
postulate B : (x : A) -> U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b
postulate f : (x : A) -> A
"""


@pytest.fixture(scope="module")
def sig():
    mod = check_module(parse_module(SIG))
    assert mod.report.ok
    return mod.scope


def norm(scope, src: str, ty_src: str) -> str:
    ch = Checker()
    t = Parser(src).parse_term()
    ty = eval_term(scope.env, Parser(ty_src).parse_term())
    ch.check(scope, t, ty)
    return print_term(quote(ty, eval_term(scope.env, t)))


def test_beta(sig):
    # beta is an evaluation law; a bare redex does not synthesize a type
    v = eval_term(sig.env, Parser(r"(\x. x) a").parse_term())
    assert v is sig.env.terms["a"]
    assert norm(sig, r"let id : (x : A) -> A = \x. x in id a", "A") == "a"


def test_eta_pi(sig):
    # a neutral at a function type reads back eta-long
    assert norm(sig, "f", "(x : A) -> A") == r"\x. f x"


def test_eta_path(sig):
    assert norm(sig, "p", "Path (i. A) a b") == "<i> p @ i"


def test_path_endpoints_reduce(sig):
    assert norm(sig, "p @ 0", "A") == "a"
    assert norm(sig, "p @ 1", "A") == "b"


def test_convert_reflexive(sig):
    ty = sig.types["a"]
    v = sig.env.terms["a"]
    assert convert(sig.ctx, ty, v, v)


def test_convert_distinct_neutrals(sig):
    ty = sig.types["a"]
    assert not convert(sig.ctx, ty, sig.env.terms["a"], sig.env.terms["b"])


def test_lambda_bodies_differ(sig):
    ty = eval_term(sig.env, parse_term("(x : A) -> A"))
    v1 = eval_term(sig.env, Parser(r"\x. x").parse_term())
    v2 = eval_term(sig.env, Parser(r"\x. a").parse_term())
    assert not convert(sig.ctx, ty, v1, v2)


def test_convert_under_false_restriction(sig):
    ctx = sig.ctx.restrict(CEq(I0, I1))
    ty = sig.types["a"]
    assert convert(ctx, ty, sig.env.terms["a"], sig.env.terms["b"])


def test_convert_under_interval_restriction(sig):
    # under i = 0 the neutral path application reduces to its endpoint
    sc, iv = sig.bind_ivar("i")
    ty = sig.types["a"]
    v1 = eval_term(sc.env, Parser("p @ i").parse_term())
    v2 = sc.env.terms["a"]
    assert not convert(sc.ctx, ty, v1, v2)
    rc = sc.restrict(CEq(iv, I0))
    assert convert(rc.ctx, ty, v1, v2)


def comp_value(scope, src: str):
    t = Parser(src).parse_term()
    Checker().check_comp_term(scope, t)
    return eval_term(scope.env, t)


def test_stuck_comp_sigma_orbit_identical(sig):
    va = comp_value(sig, "comp^2 (i j. A) [] a : (0,1) ~> (1,0)")
    vb = comp_value(sig, "comp^2 (i j. A) [] a : (1,0) ~> (0,1)")
    assert isinstance(va, VNe) and isinstance(va.ne, NComp)
    assert isinstance(vb, VNe) and isinstance(vb.ne, NComp)
    ka = term_key(va.ne.term)
    kb = term_key(vb.ne.term)
    assert ka == kb  # canonical representatives coincide


def test_canonicalize_k1_unchanged(sig):
    v = comp_value(sig, "comp^1 (i. A) [] a : 0 ~> 1")
    c = v.ne.term
    assert canonicalize_stuck_comp(c) is c


def test_canonicalize_idempotent(sig):
    v = comp_value(sig, "comp^2 (i j. A) [] a : (0,1) ~> (1,0)")
    c = v.ne.term
    again = canonicalize_stuck_comp(c)
    assert term_key(c) == term_key(again)


COMP5 = "comp^5 (i j k l m. A) [] a : (0,0,0,0,0) ~> (1,1,1,1,1)"


def test_permutation_bound(sig):
    # the bound is the checked module's: 4 by default
    with pytest.raises(PermutationBoundExceeded):
        comp_value(sig, COMP5)
    wide = check_module(parse_module(SIG), k_max=5).scope
    assert isinstance(comp_value(wide, COMP5), VNe)
    with pytest.raises(PermutationBoundExceeded):
        comp_value(check_module(parse_module(SIG), k_max=2).scope,
                   "comp^3 (i j k. A) [] a : (0,0,0) ~> (1,1,1)")


def _least_in_orbit(c: Comp) -> Comp:
    """The test oracle: the least of all k! readbacks of the comp."""
    return min((sigma_transform(c, perm)
                for perm in itertools.permutations(range(len(c.dirs)))),
               key=term_key)


_OUTER = ("m", "n")


def _intervals(names):
    return st.sampled_from([I0, I1, *(IVar(x) for x in names)])


def _terms(dirs):
    """Terms over A, f, a and x, with paths applied at the given directions,
    the outer variables m and n, a path binder i and the endpoints."""
    return st.recursive(
        st.sampled_from(["A", "f", "a", "x"]).map(Var),
        lambda inner: st.one_of(
            st.builds(App, inner, inner),
            st.builds(Pi, st.just("x"), inner, inner),
            st.builds(PLam, st.just("i"), inner),
            st.builds(PApp, inner, _intervals((*dirs, *_OUTER, "i")))),
        max_leaves=8)


def _nested_comp(dirs):
    """A comp^1 whose guards and tuples mention the outer comp's
    directions."""
    inner = (*dirs, "z")
    guards = st.builds(CEq, st.sampled_from([IVar(d) for d in dirs]),
                       st.sampled_from([I0, I1]))
    return st.builds(
        Comp, st.just(("z",)), _terms(inner),
        st.tuples(_intervals(dirs)), st.tuples(_intervals(dirs)),
        st.lists(st.builds(Branch, guards, st.just(("z",)), _terms(inner)),
                 min_size=1, max_size=2).map(tuple),
        _terms(dirs))


@st.composite
def _stuck_comps(draw, nested: bool):
    """comp^k with k = 2..5, tuples of 0, 1, m and n, and up to three
    branches on m and n whose bodies use the branch's directions."""
    k = draw(st.integers(2, 5))
    dirs = tuple(f"d{j}" for j in range(k))
    line = draw(_terms(dirs))
    if nested:
        line = App(line, draw(_nested_comp(dirs)))
    ends = st.tuples(*[_intervals(_OUTER)] * k)
    bdirs = tuple(f"e{j}" for j in range(k))
    guards = st.builds(CEq, st.sampled_from([IVar(x) for x in _OUTER]),
                       st.sampled_from([I0, I1]))
    tube = draw(st.lists(st.builds(Branch, guards, st.just(bdirs),
                                   _terms(bdirs)), max_size=3))
    return Comp(dirs, line, draw(ends), draw(ends), tuple(tube), Var("a"))


@settings(max_examples=150, deadline=None)
@given(_stuck_comps(nested=False))
def test_canonical_form_is_the_least_readback(c):
    # no cofibration in the line mentions a direction: the signature order
    # finds the least of the k! readbacks
    assert (term_key(canonicalize_stuck_comp(c))
            == term_key(_least_in_orbit(c)))


@settings(max_examples=40, deadline=None)
@given(_stuck_comps(nested=True))
def test_canonical_form_is_an_orbit_invariant(c):
    key = term_key(canonicalize_stuck_comp(c))
    orbit = [sigma_transform(c, perm)
             for perm in itertools.permutations(range(len(c.dirs)))]
    assert key in {term_key(d) for d in orbit}
    assert all(term_key(canonicalize_stuck_comp(d)) == key for d in orbit)
    assert term_key(canonicalize_stuck_comp(
        canonicalize_stuck_comp(c))) == key


@pytest.mark.parametrize("ends", [("0,0,0,0,0,0,0", "1,1,1,1,1,1,1"),
                                  ("0,1,0,1,0,1,0", "1,0,1,0,1,0,1")],
                         ids=["all-equal", "alternating"])
def test_comp7_builds_at_most_seven_candidates(tmp_path, monkeypatch, ends):
    built = []

    def counted(c, perm):
        built.append(perm)
        return sigma_transform(c, perm)

    monkeypatch.setattr(semantics, "sigma_transform", counted)
    p = tmp_path / "comp7.ectt"
    p.write_text("postulate A : U0\npostulate a : A\n"
                 "def c : A = comp^7 (d1 d2 d3 d4 d5 d6 d7. A) [] a"
                 f" : ({ends[0]}) ~> ({ends[1]})\n")
    # checking never reads the comp back; normalizing it does
    r = run_cli("--kmax", "7", "normalize", str(p), "--def", "c")
    assert r.exit_code == 0, r.output
    assert 0 < len(built) <= 7


def test_equivariance_all_sigma_k3(sig):
    # every sigma-transform of a stuck k=3 comp converts with the original
    base = "comp^3 (i j k. A) [] a : (0,0,1) ~> (1,0,0)"
    t = Parser(base).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    from eqctt.syntax import Comp, IVar as IV

    def transform(c, perm):
        kk = len(c.dirs)
        names = tuple(f"z{m}" for m in range(kk))
        inv = [0] * kk
        for idx, pp in enumerate(perm):
            inv[pp] = idx
        line = reference.substitute(c.line, ivars={
            c.dirs[m]: IV(names[perm[m]]) for m in range(kk)})
        src = tuple(c.source[inv[m]] for m in range(kk))
        tgt = tuple(c.target[inv[m]] for m in range(kk))
        return Comp(names, line, src, tgt, (), c.cap)

    for perm in itertools.permutations(range(3)):
        t2 = transform(t, perm)
        ty2 = Checker().check_comp_term(sig, t2)
        v2 = eval_term(sig.env, t2)
        assert convert(sig.ctx, ty, v, v2), perm


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_normalization_idempotence_corpus(path):
    mod = check_module(parse_module(path.read_text()))
    assert mod.report.ok
    for name, v in mod.values.items():
        ty = mod.types[name]
        n1 = quote(ty, v)
        v2 = eval_term(mod.scope.env, n1)
        n2 = quote(ty, v2)
        assert alpha_eq(n1, n2), name


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_conversion_equivalence_on_corpus(path):
    mod = check_module(parse_module(path.read_text()))
    names = list(mod.values)
    for name in names:
        ty, v = mod.types[name], mod.values[name]
        v2 = eval_term(mod.scope.env, quote(ty, v))
        assert convert(mod.scope.ctx, ty, v, v2)
        assert convert(mod.scope.ctx, ty, v2, v)  # symmetry
        v3 = eval_term(mod.scope.env, quote(ty, v2))
        assert convert(mod.scope.ctx, ty, v, v3)  # transitivity sample


def test_sigma_transform_of_corpus_comps_has_the_same_key():
    # the substitution-based transform of the acceptance suite is the oracle
    _, comps = _corpus_comps()
    stuck = 0
    for name, sc, c in comps:
        v = eval_term(sc.env, c)
        if not isinstance(v, VNe):
            continue
        assert isinstance(v.ne, NComp), name
        stuck += 1
        for perm in itertools.permutations(range(len(c.dirs))):
            v2 = eval_term(sc.env, _sigma_transform_ast(c, perm))
            assert isinstance(v2, VNe) and isinstance(v2.ne, NComp)
            assert term_key(v2.ne.term) == term_key(v.ne.term), (name, perm)
    assert stuck >= 8


# ---------------------------------------------------------------------------
# systems are partial elements on the union of their guards

SWAP = """
postulate A : U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b

def s1 : Path (k. A) b a
  = <k> comp^1 (i. A) [ k = 0 -> i. p @ i | k = 1 -> i. a ] a : 0 ~> 1

def s2 : Path (k. A) b a
  = <k> comp^1 (i. A) [ k = 1 -> i. a | k = 0 -> i. p @ i ] a : 0 ~> 1

def s12 : Path (n. Path (k. A) b a) s1 s2 = <n> s1
"""

SPLIT_GUARD = r"""
postulate A : U0
postulate a : A

def s1 : Path (k. A) a a
  = <k> comp^1 (i. A) [ k = 0 \/ k = 1 -> i. a ] a : 0 ~> 1

def s2 : Path (k. A) a a
  = <k> comp^1 (i. A) [ k = 0 -> i. a | k = 1 -> i. a ] a : 0 ~> 1

def s12 : Path (n. Path (k. A) a a) s1 s2 = <n> s1
"""

REORDERED_COMP2 = """
postulate A : U0
postulate a : A
postulate p : Path (i. A) a a

def s1 : Path (k. A) a a
  = <k> comp^2 (i j. A) [ k = 0 -> i j. p @ i | k = 1 -> i j. p @ j ] a
        : (0,0) ~> (1,1)

def s2 : Path (k. A) a a
  = <k> comp^2 (i j. A) [ k = 1 -> i j. p @ j | k = 0 -> i j. p @ i ] a
        : (0,0) ~> (1,1)

def s12 : Path (n. Path (k. A) a a) s1 s2 = <n> s1
"""


@pytest.mark.parametrize("src", [SWAP, SPLIT_GUARD, REORDERED_COMP2],
                         ids=["swap", "split-guard", "comp2-reordered"])
def test_reordered_and_split_systems_convert(src):
    mod = check_module(parse_module(src))
    assert mod.report.ok, mod.report.to_json()


def _comps_convert(scope, src1: str, src2: str) -> bool:
    """Do two comps, over the interval variables m and n, convert?"""
    sc, _ = scope.bind_ivar("m")
    sc, _ = sc.bind_ivar("n")
    t1, t2 = parse_term(src1), parse_term(src2)
    ty = Checker().check_comp_term(sc, t1)
    Checker().check_comp_term(sc, t2)
    return convert(sc.ctx, ty, eval_term(sc.env, t1), eval_term(sc.env, t2))


def _comp_src(k: int, branches) -> str:
    dirs = " ".join("ij"[:k])
    tube = " | ".join(f"{g} -> {dirs}. {body}" for g, body in branches)
    src, tgt = ("0", "1") if k == 1 else ("(0,0)", "(1,1)")
    return f"comp^{k} ({dirs}. A) [{tube}] a : {src} ~> {tgt}"


# every disjunct fixes m, so overlapping branches share m's value, and the
# body is chosen by that value: the systems are compatible by construction
_FIXES = ["", r" /\ n = 0", r" /\ n = 1", r" /\ n = m"]


@st.composite
def _systems(draw):
    k = draw(st.sampled_from([1, 2]))
    bodies = ["a"] + [f"p @ {d}" for d in "ij"[:k]]
    body = [draw(st.sampled_from(bodies)) for _ in (0, 1)]
    branches = draw(st.lists(
        st.tuples(st.sampled_from([0, 1]),
                  st.lists(st.sampled_from(_FIXES), min_size=1, max_size=2,
                           unique=True)),
        min_size=1, max_size=4))
    return k, [([f"m = {e}{fix}" for fix in fixes], body[e])
               for e, fixes in branches]


@settings(max_examples=100, deadline=None)
@given(_systems(), st.sampled_from(["permute", "duplicate", "split"]),
       st.randoms(use_true_random=False))
def test_system_rewrites_convert(sig, system, rewrite, rng):
    k, branches = system
    tube = [(r" \/ ".join(ds), body) for ds, body in branches]
    if rewrite == "permute":
        other = rng.sample(tube, len(tube))
    elif rewrite == "duplicate":
        other = list(tube)
        other.insert(rng.randrange(len(tube) + 1), rng.choice(tube))
    else:
        splittable = [n for n, (ds, _) in enumerate(branches) if len(ds) == 2]
        assume(splittable)
        n = rng.choice(splittable)
        ds, body = branches[n]
        other = tube[:n] + [(d, body) for d in ds] + tube[n + 1:]
    assert _comps_convert(sig, _comp_src(k, tube), _comp_src(k, other))


@pytest.mark.parametrize("k,base,other", [
    (1, [("m = 0", "a")], [("m = 0", "p @ i")]),
    (1, [("m = 0", "a")], [(r"m = 0 \/ n = 0", "a")]),
    (1, [("m = 0", "a")], [(r"m = 0 /\ n = 0", "a")]),
    (1, [("m = 0", "a"), ("m = 1", "a")], [("m = 1", "p @ i"), ("m = 0", "a")]),
    # no permutation of the directions sends one system to the other
    (2, [("m = 0", "p @ i"), ("m = 1", "p @ i")],
     [("m = 0", "p @ i"), ("m = 1", "p @ j")]),
    (2, [(r"m = 0 \/ n = 1", "p @ i")], [("m = 0", "p @ i")]),
], ids=["body", "larger-union", "smaller-union", "reordered-body",
        "k2-body", "k2-smaller-union"])
def test_systems_that_differ_do_not_convert(sig, k, base, other):
    base, other = _comp_src(k, base), _comp_src(k, other)
    assert not _comps_convert(sig, base, other)
    assert not _comps_convert(sig, other, base)


SPLIT_COMP2 = (
    r"comp^2 (i j. A) [m = 0 \/ (m = 0 /\ n = 1) -> i j. p @ i"
    r" | m = 1 -> i j. p @ j] a : (0,0) ~> (1,1)",
    r"comp^2 (i j. A) [m = 0 -> i j. p @ i | m = 0 /\ n = 1 -> i j. p @ i"
    r" | m = 1 -> i j. p @ j] a : (0,0) ~> (1,1)")

# the inner guard's m = 1 is dead under the outer guard m = 0
NESTED_DEAD = (
    r"comp^1 (i. A) [m = 0 -> i. comp^1 (j. A) [m = 1 \/ n = 0 -> j. p @ j]"
    r" a : 0 ~> i] a : 0 ~> 1",
    r"comp^1 (i. A) [m = 0 -> i. comp^1 (j. A) [n = 0 -> j. p @ j]"
    r" a : 0 ~> i] a : 0 ~> 1")


@pytest.mark.parametrize("pair", [SPLIT_COMP2, SPLIT_COMP2[::-1],
                                  NESTED_DEAD, NESTED_DEAD[::-1]],
                         ids=["comp2-split", "comp2-merged", "nested-dead",
                              "nested-live"])
def test_equal_partial_elements_convert(sig, pair):
    assert _comps_convert(sig, *pair)


_GUARD_ATOMS = st.builds(CEq, st.sampled_from([IVar("m"), IVar("n")]),
                         st.sampled_from([I0, I1, IVar("n")]))


@st.composite
def _split_guards(draw):
    """A stuck comp^k, k = 2 or 3, whose first branch has a guard of two
    disjuncts, and the same comp with that branch split in two."""
    k = draw(st.integers(2, 3))
    dirs = tuple(f"d{j}" for j in range(k))
    bdirs = tuple(f"e{j}" for j in range(k))
    ends = st.tuples(*[_intervals(_OUTER)] * k)
    conjs = st.lists(_GUARD_ATOMS, min_size=1, max_size=2).map(
        lambda cs: cof_and(*cs))
    disjuncts = draw(st.lists(st.lists(conjs, min_size=1, max_size=2),
                              min_size=1, max_size=3))
    disjuncts[0] = draw(st.lists(conjs, min_size=2, max_size=2))
    bodies = [draw(_terms(bdirs)) for _ in disjuncts]
    line, source, target = draw(_terms(dirs)), draw(ends), draw(ends)

    def comp(tube):
        return Comp(dirs, line, source, target,
                    tuple(Branch(g, bdirs, u) for g, u in tube), Var("a"))
    tube = [(cof_or(*ds), u) for ds, u in zip(disjuncts, bodies)]
    split = [(d, bodies[0]) for d in disjuncts[0]] + tube[1:]
    return comp(tube), comp(split)


@settings(max_examples=50, deadline=None)
@given(_split_guards())
def test_split_guard_keeps_the_canonical_form(pair):
    c, split = pair
    assert (term_key(canonicalize_stuck_comp(c))
            == term_key(canonicalize_stuck_comp(split)))


# ---------------------------------------------------------------------------
# conversion's shortcuts: reflexivity, and reindexing only the moved suffix

@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_nbe_is_idempotent_on_corpus_defs(path):
    # what conversion keeps instead of rebuilding reads back the same as its
    # rebuilt copy: a definition's value, and its type
    decls = parse_module(path.read_text())
    mod = check_module(decls)
    assert mod.report.ok
    env = mod.scope.env
    for name in (d.name for d in decls if isinstance(d, Def)):
        ty, v = mod.types[name], mod.values[name]
        n1 = quote(ty, v)
        assert term_key(quote(ty, eval_term(env, n1))) == term_key(n1), name
        t1 = quote_type(ty)
        assert term_key(quote_type(eval_term(env, t1))) == term_key(t1), name


TELESCOPE = """
postulate X : U0
postulate Y : U0
"""


def _telescope():
    """A : U0, L : Path (i. U0) X Y, m : I, x : L @ m after two postulates."""
    mod = check_module(parse_module(TELESCOPE))
    sc = mod.scope
    sc, _ = sc.bind_term("A", VU(0))
    sc, lv = sc.bind_term("L", eval_term(sc.env, parse_term(
        "Path (i. U0) X Y", known={"X", "Y"})))
    sc, m = sc.bind_ivar("m")
    sc, _ = sc.bind_term("x", semantics.do_papp(lv, m))
    return sc.ctx, m


def test_context_env_reindexes_only_after_the_moved_variable():
    ctx, m = _telescope()
    names = [e.name for e in ctx.entries]
    assert names.index(m.name) == 4
    env = ctx.env({m.name: I0})
    assert env.ivals[m.name] == I0
    for e in ctx.entries[:4]:
        assert env.terms[e.name].ty is e.ty
    x = ctx.entries[5]
    assert x.ty is not env.terms[x.name].ty
    assert term_key(quote_type(env.terms[x.name].ty)) == term_key(Var("X"))


def test_context_env_keeps_every_type_when_nothing_moves():
    ctx, m = _telescope()
    for assign in ({m.name: IVar(m.name)}, {}, {"unbound": I1}):
        env = ctx.env(assign)
        for e in ctx.entries:
            if isinstance(e, semantics.TermBind):
                assert env.terms[e.name].ty is e.ty


def test_a_value_converts_with_itself_without_evaluating(sig, monkeypatch):
    sc, iv = sig.bind_ivar("i")
    rc = sc.restrict(cof_or(CEq(iv, I0), CEq(iv, I1)))
    v = eval_term(sc.env, Parser("p @ i").parse_term())
    ty = sig.types["a"]

    def no_eval(env, t):
        raise AssertionError("conversion evaluated a term")
    monkeypatch.setattr(semantics, "eval_term", no_eval)
    assert convert(rc.ctx, ty, v, v)


def _corpus_conversions(path, monkeypatch) -> list:
    """Every conversion checking the file makes, with its verdict."""
    seen = []

    def recording(ctx, ty, v1, v2):
        out = convert(ctx, ty, v1, v2)
        seen.append((ctx, ty, v1, v2, out))
        return out
    monkeypatch.setattr(typecheck, "convert", recording)
    check_module(parse_module(path.read_text()))
    monkeypatch.undo()
    assert seen
    return seen


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.ectt")),
                         ids=lambda p: p.name)
def test_convert_agrees_with_reevaluation_on_the_corpus(path, monkeypatch):
    for ctx, ty, v1, v2, out in _corpus_conversions(path, monkeypatch):
        assert reference.convert_by_reevaluation(ctx, ty, v1, v2) == out


# ---------------------------------------------------------------------------
# conversion on values, against both readbacks keyed; stuck comps read back
# only when something reads them

@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.ectt")),
                         ids=lambda p: p.name)
def test_convert_agrees_with_readback_on_the_corpus(path, monkeypatch):
    for ctx, ty, v1, v2, out in _corpus_conversions(path, monkeypatch):
        assert reference.convert_by_readback(ctx, ty, v1, v2) == out


# the signature, then an interval i and a variable x : A in scope
VALUE_SIG = SIG + "postulate q : (y : A) * A\n"

_TYPES = ["A", "(y : A) -> A", "(y : A) * A", "Path (j. A) a b", "U0"]
_ENDS = st.sampled_from(["0", "1", "i"])


def _at_a(names: tuple[str, ...], depth: int):
    """Sources of terms of type A over ``names``: neutrals, redexes and
    stuck comps, each comp with its directions in either order."""
    leaves = st.sampled_from(["a", "b", "p @ i", "p @ 0", "q.1", "q.2",
                              *names])
    if depth == 0:
        return leaves
    sub = _at_a(names, depth - 1)
    comp2 = st.builds(
        lambda s, t1, t2, swap: (
            f"comp^2 (v u. A) [ i = 0 -> v u. p @ u ] a : ({s}, 0) ~> "
            f"({t2}, {t1})" if swap else
            f"comp^2 (u v. A) [ i = 0 -> u v. p @ u ] a : (0, {s}) ~> "
            f"({t1}, {t2})"), _ENDS, _ENDS, _ENDS, st.booleans())
    comp1 = st.builds(
        lambda t, e: f"comp^1 (u. A) [ i = 1 -> u. {t} ] ({t}) : 0 ~> {e}",
        sub, _ENDS)
    return st.one_of(
        leaves, comp2, comp1,
        sub.map(lambda t: f"f ({t})"),
        st.tuples(sub, sub).map(
            lambda ts: f"(let r : (y : A) * A = ({ts[0]} , {ts[1]}) in r).2"),
        sub.map(lambda t: f"let z : A = a in {t}"))


def _at(ty: str, depth: int = 2):
    names = ("x",)
    match ty:
        case "A":
            return _at_a(names, depth)
        case "(y : A) -> A":
            return st.one_of(st.just("f"), _at_a(names + ("y",), depth).map(
                lambda t: f"\\y. {t}"))
        case "(y : A) * A":
            return st.one_of(st.just("q"), st.tuples(
                _at_a(names, depth), _at_a(names, depth)).map(
                lambda ts: f"({ts[0]} , {ts[1]})"))
        case "Path (j. A) a b":
            return st.sampled_from(["p", "<j> p @ j"])
        case "U0":
            return st.one_of(
                st.sampled_from(["A", "(y : A) -> A", "(y : A) * A"]),
                _at_a(names, depth - 1).map(lambda t: f"B ({t})"),
                st.tuples(_at_a(names, depth - 1), _at_a(names, depth - 1)).map(
                    lambda ts: f"Path (j. A) ({ts[0]}) ({ts[1]})"))
    raise ValueError(ty)


_COMP2 = re.compile(r"comp\^2 \(u v\. A\) \[ i = 0 -> u v\. p @ u \] a : "
                    r"\(0, (\w)\) ~> \((\w), (\w)\)")


def _variant(ty: str, t: str) -> list[str]:
    """Sources equal to ``t`` by beta or eta at ``ty``, or with the
    directions of its comp^2s exchanged (equivariance)."""
    ann = f"(let w : {ty} = {t} in w)"
    out = [t, ann, _COMP2.sub(r"comp^2 (v u. A) [ i = 0 -> v u. p @ u ] a : "
                              r"(\1, 0) ~> (\3, \2)", t)]
    match ty:
        case "(y : A) -> A":
            out.append(f"\\z. {ann} z")
        case "(y : A) * A":
            out.append(f"({ann}.1 , {ann}.2)")
        case "Path (j. A) a b":
            out.append(f"<k> {ann} @ k")
    return out


@st.composite
def _value_pairs(draw):
    """A type and two sources at it: equal by construction, or drawn
    apart."""
    ty = draw(st.sampled_from(_TYPES))
    t1 = draw(_at(ty))
    t2 = draw(st.one_of(st.sampled_from(_variant(ty, t1)), _at(ty)))
    return ty, t1, t2


@pytest.fixture(scope="module")
def value_scope():
    mod = check_module(parse_module(VALUE_SIG))
    assert mod.report.ok
    sc, _ = mod.scope.bind_ivar("i")
    sc, _ = sc.bind_term("x", mod.types["a"])
    return sc


@settings(max_examples=200, deadline=None)
@given(pair=_value_pairs())
def test_convert_agrees_with_readback_on_values(value_scope, pair):
    ty_src, t1, t2 = pair
    sc = value_scope
    ty = eval_term(sc.env, Parser(ty_src).parse_term())
    vs = []
    for src in (t1, t2):
        t = Parser(src).parse_term()
        Checker().check(sc, t, ty)
        vs.append(eval_term(sc.env, t))
    assert convert(sc.ctx, ty, *vs) == reference.convert_by_readback(
        sc.ctx, ty, *vs)


UNREAD_COMP = """postulate A : U0
postulate a : A
def c : A = comp^3 (d1 d2 d3. A) [] a : (1,0,0) ~> (0,1,1)
"""


def test_a_stuck_comp_no_conversion_reads_is_not_canonicalized(
        tmp_path, monkeypatch):
    built = []

    def counted(c, perm):
        built.append(perm)
        return sigma_transform(c, perm)
    monkeypatch.setattr(semantics, "sigma_transform", counted)
    mod = check_module(parse_module(UNREAD_COMP))
    assert mod.report.ok
    v = mod.values["c"]
    assert isinstance(v, VNe) and isinstance(v.ne, NComp)
    assert built == []
    monkeypatch.undo()
    p = tmp_path / "c.ectt"
    p.write_text(UNREAD_COMP)
    r = run_cli("--kmax", "4", "normalize", str(p), "--def", "c")
    assert r.exit_code == 0, r.output
    assert r.output == "comp^3 (d2 d3 d1. A) [] a : (0, 0, 1) ~> (1, 1, 0)\n"
