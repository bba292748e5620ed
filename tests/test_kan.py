"""The comp operator's equations, rule by rule."""

import pytest

from eqctt.kan import CompProblem, comp_eval, transport
from eqctt.parser import Parser, parse_module
from eqctt.semantics import (Env, NComp, VNe, VPair, VPLam, convert, do_app,
                             do_fst, do_papp, eval_term)
from eqctt.syntax import CEq, I0, I1, TOP, fresh
from eqctt.typecheck import Checker, check_module

from reference import fill_derive

SIG = """
postulate A : U0
postulate B : (x : A) -> U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b
"""


@pytest.fixture(scope="module")
def sig():
    mod = check_module(parse_module(SIG))
    assert mod.report.ok
    return mod.scope


def _line_const(scope, name):
    ty = scope.types[name] if name in scope.types else None
    v = scope.env.terms[name]
    return lambda *ivs: v


def _problem(scope, line, src, tgt, tube, cap):
    return CompProblem(tuple(fresh("i") for _ in src), line, src, tgt, tube,
                       cap)


def test_guard_top_returns_branch_at_target(sig):
    A = sig.env.terms["A"]
    branch_val = sig.env.terms["b"]
    p = _problem(sig, lambda *ivs: A, (I0,), (I1,),
                 ((TOP, lambda *ivs: branch_val),), sig.env.terms["a"])
    assert comp_eval(p, Env()) is branch_val


def test_source_equals_target_returns_cap(sig):
    A = sig.env.terms["A"]
    cap = sig.env.terms["a"]
    p = _problem(sig, lambda *ivs: A, (I0,), (I0,),
                 ((CEq(I0, I1), lambda *ivs: sig.env.terms["b"]),), cap)
    assert comp_eval(p, Env()) is cap


def test_degenerate_under_hypotheses(sig):
    # source (i) and target (j) coincide under the restriction i = j
    sc, iv = sig.bind_ivar("i")
    sc, jv = sc.bind_ivar("j")
    A = sig.env.terms["A"]
    cap = sig.env.terms["a"]
    p = _problem(sig, lambda *ivs: A, (iv,), (jv,), (), cap)
    assert isinstance(comp_eval(p, Env()), VNe)
    assert comp_eval(p, Env(hyps=(CEq(iv, jv),))) is cap


def test_neutral_line_sticks(sig):
    A = sig.env.terms["A"]
    v = comp_eval(_problem(sig, lambda *ivs: A, (I0,), (I1,), (),
                           sig.env.terms["a"]), Env())
    assert isinstance(v, VNe) and isinstance(v.ne, NComp)


def test_transport_is_comp_with_empty_tube(sig):
    A = sig.env.terms["A"]
    cap = sig.env.terms["a"]
    # constant line, equal endpoints: transport returns the cap
    assert transport(("i",), lambda *ivs: A, (I0,), (I0,), cap, Env()) is cap
    # neutral line: stuck
    v = transport(("i",), lambda *ivs: A, (I0,), (I1,), cap, Env())
    assert isinstance(v, VNe)


def test_fill_then_substitute_source_gives_cap(sig):
    A = sig.env.terms["A"]
    cap = sig.env.terms["a"]
    p = _problem(sig, lambda *ivs: A, (I0,), (I1,), (), cap)
    j = fresh("j")
    filler = fill_derive(p, (j,))
    assert isinstance(filler, VNe)
    # the filler at j := source is the cap: rebuild with target = source
    at_src = comp_eval(CompProblem(p.dirs, p.line, p.source, p.source,
                                   p.tube, p.cap), Env())
    assert at_src is cap


def test_fill_under_guard_is_branch(sig):
    A = sig.env.terms["A"]
    bval = sig.env.terms["b"]
    p = _problem(sig, lambda *ivs: A, (I0,), (I1,),
                 ((TOP, lambda *ivs: bval),), sig.env.terms["a"])
    j = fresh("j")
    assert fill_derive(p, (j,)) is bval


def test_comp_pi_rule_applies_tube_pointwise(sig):
    # guard TOP: the Frobenius output applied to an argument converts with
    # the tube applied to that argument at the target
    src = r"comp^1 (i. (x : A) -> A) [ j = 0 -> i. \x. x ] (\x. x) : 0 ~> 1"
    sc, jv = sig.bind_ivar("j")
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sc, t)
    v = eval_term(sc.env, t)
    rc = sc.restrict(CEq(jv, I0))
    ident = eval_term(sc.env, Parser(r"\x. x").parse_term())
    assert convert(rc.ctx, ty, v, ident)
    # and pointwise at an argument
    got = do_app(v, sc.env.terms["a"])
    assert convert(rc.ctx, sc.types["A"], got, sc.env.terms["a"])


def test_comp_pi_degenerate_is_cap_up_to_eta(sig):
    src = r"comp^1 (i. (x : A) -> A) [] (\x. x) : 0 ~> 0"
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    ident = eval_term(sig.env, Parser(r"\x. x").parse_term())
    assert convert(sig.ctx, ty, v, ident)


def test_comp_sigma_first_component_is_transport(sig):
    # with an empty tube, the first projection of a Sigma comp is the
    # transport of the first projection of the cap
    src = r"comp^1 (i. (y : A) * A) [] (a , b) : 0 ~> 1"
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    assert isinstance(v, VPair)
    A = sig.env.terms["A"]
    tr = transport(("i",), lambda *ivs: A, (I0,), (I1,), sig.env.terms["a"],
                   Env())
    assert convert(sig.ctx, sig.types["A"], do_fst(v), tr)


def test_comp_sigma_guard_top(sig):
    src = r"comp^1 (i. (y : A) * A) [ j = 0 -> i. (a , b) ] (a , b) : 0 ~> 1"
    sc, jv = sig.bind_ivar("j")
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sc, t)
    v = eval_term(sc.env, t)
    rc = sc.restrict(CEq(jv, I0))
    want = eval_term(sc.env, Parser("(a , b)").parse_term())
    assert convert(rc.ctx, ty, v, want)


def test_comp_path_endpoints(sig):
    src = "comp^1 (i. Path (j. A) a b) [] p : 0 ~> 1"
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    assert isinstance(v, VPLam)
    left = do_papp(v, I0)
    assert convert(sig.ctx, sig.types["A"], left, sig.env.terms["a"])
    right = do_papp(v, I1)
    assert convert(sig.ctx, sig.types["A"], right, sig.env.terms["b"])


def test_comp_path_degenerate_is_cap_up_to_eta(sig):
    src = "comp^1 (i. Path (j. A) a b) [] p : 0 ~> 0"
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    assert convert(sig.ctx, ty, v, sig.env.terms["p"])


def test_no_regularity(sig):
    # transport along a degenerate-but-neutral line does not reduce to the cap
    src = "comp^1 (i. A) [] a : 0 ~> 1"
    t = Parser(src).parse_term()
    ty = Checker().check_comp_term(sig, t)
    v = eval_term(sig.env, t)
    assert isinstance(v, VNe)
    assert not convert(sig.ctx, ty, v, sig.env.terms["a"])
