import pytest

from eqctt.parser import Parser, parse_module
from eqctt.printer import print_term
from eqctt.semantics import VU, convert, eval_term, quote, quote_type
from eqctt.typecheck import (ARITY, BOUNDARY, GUARD_NEVER, INCOMPATIBLE,
                             MISMATCH, PERM_BOUND, UNBOUND, CheckError,
                             Checker, check_module)

from conftest import corpus_files


def check_src(src: str):
    return check_module(parse_module(src))


SIG = """
postulate A : U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b
"""


@pytest.fixture()
def sig():
    mod = check_src(SIG)
    assert mod.report.ok
    return mod.scope


def test_infer_universe(sig):
    ty = Checker().infer(sig, Parser("U0").parse_term())
    assert isinstance(ty, VU) and ty.level == 1


def test_infer_path_application_endpoint(sig):
    ch = Checker()
    t = Parser("p @ 0").parse_term()
    ty = ch.infer(sig, t)
    # the type is A and the value converts to the left endpoint
    assert print_term(quote_type(ty)) == "A"
    v = eval_term(sig.env, t)
    assert convert(sig.ctx, ty, v, sig.env.terms["a"])


def test_infer_unbound(sig):
    with pytest.raises(CheckError) as e:
        Checker().infer(sig, Parser("zz").parse_term())
    assert e.value.diag.code == UNBOUND


def test_check_constant_path(sig):
    ch = Checker()
    ty = eval_term(sig.env, Parser("Path (i. A) a a").parse_term())
    ch.check(sig, Parser("<i> a").parse_term(), ty)


def test_check_wrong_endpoint_is_boundary_mismatch(sig):
    ch = Checker()
    ty = eval_term(sig.env, Parser("Path (i. A) a b").parse_term())
    with pytest.raises(CheckError) as e:
        ch.check(sig, Parser("<i> a").parse_term(), ty)
    assert e.value.diag.code == BOUNDARY


def test_lambda_against_non_function(sig):
    ch = Checker()
    with pytest.raises(CheckError) as e:
        ch.check(sig, Parser(r"\x. x").parse_term(), sig.types["a"])
    assert e.value.diag.code == MISMATCH


def test_comp_synthesizes_line_at_target(sig):
    ch = Checker()
    t = Parser("comp^1 (i. A) [] a : 0 ~> 1").parse_term()
    ty = ch.check_comp_term(sig, t)
    assert print_term(quote_type(ty)) == "A"


def test_comp_guard_must_live_in_outer_context(sig):
    ch = Checker()
    t = Parser("comp^1 (i. A) [ i = 0 -> i. a ] a : 0 ~> 1").parse_term()
    with pytest.raises(CheckError) as e:
        ch.check_comp_term(sig, t)
    assert e.value.diag.code == ARITY


def test_comp_cap_tube_disagreement(sig):
    sc, _ = sig.bind_ivar("m")
    ch = Checker()
    t = Parser("comp^1 (i. A) [ m = 0 -> i. b ] a : 0 ~> 1").parse_term()
    with pytest.raises(CheckError) as e:
        ch.check_comp_term(sc, t)
    assert e.value.diag.code == BOUNDARY


def test_vacuous_overlap_is_fine(sig):
    sc, _ = sig.bind_ivar("m")
    ch = Checker()
    t = Parser(
        "comp^1 (i. A) [ m = 0 -> i. a | m = 1 -> i. p @ i ] a : 0 ~> 1"
    ).parse_term()
    ch.check_comp_term(sc, t)  # overlap m=0 /\ m=1 is unsatisfiable


def test_incompatible_system(sig):
    sc, _ = sig.bind_ivar("m")
    ch = Checker()
    t = Parser(
        "comp^1 (i. A) [ m = 0 -> i. a | m = 0 -> i. b ] a : 0 ~> 1"
    ).parse_term()
    with pytest.raises(CheckError) as e:
        ch.check_comp_term(sc, t)
    assert e.value.diag.code == INCOMPATIBLE


def test_guard_never_holds_is_warning(sig):
    ch = Checker()
    t = Parser("comp^1 (i. A) [ 0 = 1 -> i. b ] a : 0 ~> 1").parse_term()
    ch.check_comp_term(sig, t)  # no error
    assert any(w.code == GUARD_NEVER for w in ch.warnings)


def test_permutation_bound_diagnostic():
    src = SIG + """
def big : A = comp^5 (i j k l m. A) [] a : (0,0,0,0,0) ~> (1,1,1,1,1)
"""
    mod = check_src(src)
    decl = {d.name: d for d in mod.report.decls}["big"]
    assert decl.status == "error"
    assert decl.diagnostics[0].code == PERM_BOUND


def test_check_module_empty():
    mod = check_src("")
    assert mod.report.ok
    assert mod.report.decls == []


def test_check_module_continues_after_error():
    src = SIG + """
def good1 : A = a
def bad : A = b b
def good2 : A = good1
"""
    mod = check_src(src)
    st = {d.name: d.status for d in mod.report.decls}
    assert st["good1"] == "ok"
    assert st["bad"] == "error"
    assert st["good2"] == "ok"
    assert not mod.report.ok


def test_duplicate_declaration():
    mod = check_src("postulate A : U0\npostulate A : U0")
    assert mod.report.decls[1].status == "error"


def test_non_cumulative_universes():
    mod = check_src("def t : U1 = U0")
    assert mod.report.ok
    mod = check_src("def t : U2 = U0")
    assert not mod.report.ok


def test_let_infers(sig):
    ch = Checker()
    t = Parser(r"let y : A = a in p @ 0").parse_term()
    ty = ch.infer(sig, t)
    assert print_term(quote_type(ty)) == "A"


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_checks(path):
    mod = check_module(parse_module(path.read_text()))
    assert mod.report.ok, [
        str(d) for dr in mod.report.decls for d in dr.diagnostics]


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_subject_reduction_on_corpus(path):
    # if check succeeds, the readback of the value rechecks at the same type
    mod = check_module(parse_module(path.read_text()))
    assert mod.report.ok
    base = check_module(parse_module(path.read_text())).scope
    for name, v in mod.values.items():
        ty = mod.types[name]
        nf = quote(ty, v)
        ch = Checker()
        ch.check(mod.scope, nf, ty)


def test_diagnostics_totality():
    # the checker never aborts without a diagnostic on malformed input
    bad_bodies = [
        "zz", "a a", "U0 a", "p @ 0 @ 1", r"(\x. x)",
        "comp^1 (i. a) [] a : 0 ~> 1",
        "comp^1 (i. A) [ 0 = z -> i. a ] a : 0 ~> 1",
        "(a , b)",
    ]
    for body in bad_bodies:
        mod = check_src(SIG + f"\ndef t : A = {body}\n")
        decl = {d.name: d for d in mod.report.decls}["t"]
        assert decl.status == "error", body
        assert decl.diagnostics, body
        assert decl.diagnostics[0].code, body
