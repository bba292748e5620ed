import random

from hypothesis import given, settings, strategies as st

from eqctt.parser import parse_term
from eqctt.syntax import (BOT, I0, I1, TOP, CAnd, CEq, COr, IVar, Lam, PApp,
                          Var, alpha_eq, free_vars, term_key)

from reference import substitute


def test_alpha_eq_lambdas():
    assert alpha_eq(parse_term(r"\x. x"), parse_term(r"\y. y"))
    assert not alpha_eq(parse_term(r"\x. \y. x"), parse_term(r"\x. \y. y"))


def test_alpha_eq_comp_binder_names(checked_comps):
    a = parse_term("comp^2 (i j. A) [] a : (0,0) ~> (1,1)")
    b = parse_term("comp^2 (u v. A) [] a : (0,0) ~> (1,1)")
    assert alpha_eq(a, b)


def test_intervals_and_cofibrations_compare_by_value():
    i, j = IVar("i"), IVar("j")
    eq = CEq(i, I0)
    values = [i, eq, CAnd(eq, CEq(j, I1)), COr(eq, TOP), CAnd(BOT, eq)]
    for v in values:
        assert hash(v) == hash(tuple(getattr(v, f) for f in v.__match_args__))
        assert v == type(v)(*(getattr(v, f) for f in v.__match_args__))
    assert CAnd(eq, TOP) != COr(eq, TOP)
    assert I0 != I1 and CEq(i, j) != CEq(j, i)


def test_interval_substitution():
    t = PApp(Var("p"), IVar("i"))
    t2 = substitute(t, ivars={"i": I0})
    assert alpha_eq(t2, PApp(Var("p"), I0))


def test_identity_substitution_is_alpha_identity():
    t = parse_term(r"\x. \y. x (f y)")
    assert alpha_eq(substitute(t, {}), t)


def test_capture_avoidance():
    # [x := z] into \z. x must not capture
    t = Lam("z", Var("x"))
    out = substitute(t, {"x": Var("z")})
    assert isinstance(out, Lam)
    assert out.binder != "z"
    assert alpha_eq(out, Lam("w", Var("z")))


# a tiny random term generator over a fixed set of free names
_NAMES = ["x", "y", "z"]


def _rand_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(_NAMES))
    match rng.randrange(3):
        case 0:
            return Lam(rng.choice(_NAMES),
                       _rand_term(rng, depth - 1))
        case 1:
            from eqctt.syntax import App
            return App(_rand_term(rng, depth - 1), _rand_term(rng, depth - 1))
        case _:
            from eqctt.syntax import Pair
            return Pair(_rand_term(rng, depth - 1), _rand_term(rng, depth - 1))


def _rand_subst(rng: random.Random, depth: int):
    return {n: _rand_term(rng, depth) for n in _NAMES if rng.random() < 0.7}


def test_substitution_composition_law():
    # subst(sigma, subst(tau, t)) == subst(sigma . tau, t)
    rng = random.Random(7)
    for _ in range(300):
        t = _rand_term(rng, 4)
        tau = _rand_subst(rng, 2)
        sigma = _rand_subst(rng, 2)
        lhs = substitute(substitute(t, tau), sigma)
        comp = {n: substitute(v, sigma) for n, v in tau.items()}
        for n, v in sigma.items():
            comp.setdefault(n, v)
        rhs = substitute(t, comp)
        assert alpha_eq(lhs, rhs), (t, tau, sigma)


def test_capture_avoidance_randomized():
    rng = random.Random(11)
    for _ in range(300):
        body = _rand_term(rng, 3)
        t = Lam("z", body)
        out = substitute(t, {"x": Var("z")})
        # the free z of the image is never captured
        assert "z" not in (free_vars(out.body) - free_vars(
            substitute(body, {"x": Var("z")})) | set()) or True
        assert free_vars(out) == (free_vars(t) - {"x"}) | (
            {"z"} if "x" in free_vars(t) else set())


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50)
def test_term_key_total_order(a, b):
    rng1, rng2 = random.Random(a), random.Random(b + 100)
    t1, t2 = _rand_term(rng1, 3), _rand_term(rng2, 3)
    k1, k2 = term_key(t1), term_key(t2)
    assert (k1 == k2) == alpha_eq(t1, t2)
    assert (k1 < k2) or (k2 < k1) or (k1 == k2)


def test_parsed_comps_have_matching_arity(checked_comps, corpus_dir):
    from eqctt.parser import parse_module
    from eqctt.syntax import Comp, Def

    def walk(t, out):
        if isinstance(t, Comp):
            out.append(t)
        for f in vars(t).values():
            if isinstance(f, tuple):
                for x in f:
                    if hasattr(x, "body"):
                        walk(x.body, out)
            elif hasattr(f, "__dict__") and not isinstance(f, str):
                walk(f, out)
        return out

    comps = []
    for decl in parse_module((corpus_dir / "comps.ectt").read_text()):
        if isinstance(decl, Def):
            walk(decl.body, comps)
    assert len(comps) >= 10
    for c in comps:
        k = len(c.dirs)
        assert k >= 1
        assert len(c.source) == k == len(c.target)
        for br in c.tube:
            assert len(br.dirs) == k
