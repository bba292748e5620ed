import pytest
from hypothesis import given, strategies as st

from eqctt.parser import (Parser, SyntaxError_, parse_cof, parse_module,
                          parse_term, tokenize)
from eqctt.printer import print_cof, print_term
from eqctt.syntax import (CAnd, CEq, COr, Comp, Pi, U, alpha_eq)

import reference
from conftest import CORPUS, corpus_files


def test_pi_over_universe():
    t = parse_term("(A : U0) -> A")
    assert isinstance(t, Pi)
    assert isinstance(t.dom, U) and t.dom.level == 0


def test_comp_k1_shape():
    # the guard is an honest cofibration formula (the grammar has no
    # cofibration variables)
    t = Parser("comp^1 (i. A) [j = 0 -> i. u] a0 : r ~> s").parse_term()
    assert isinstance(t, Comp)
    assert len(t.dirs) == 1
    assert len(t.tube) == 1


def test_unbound_rejected_against_signature():
    with pytest.raises(SyntaxError_):
        parse_term(r"\x. y", known=set())
    parse_term(r"\x. y", known={"y"})


def test_comp_k0_rejected():
    with pytest.raises(SyntaxError_):
        parse_term("comp^0 (i. A) [] a : 0 ~> 1")


def test_comp_arity_mismatch_rejected():
    with pytest.raises(SyntaxError_):
        Parser("comp^2 (i. A) [] a : (0,0) ~> (1,1)").parse_comp()
    with pytest.raises(SyntaxError_):
        Parser("comp^2 (i j. A) [] a : 0 ~> 1").parse_comp()


def test_comp_k2_prints_binders_in_order():
    t = Parser("comp^2 (i j. A) [] a : (0,1) ~> (1,0)").parse_term()
    s = print_term(t)
    assert s.startswith("comp^2 (i j. ")
    assert "(0, 1) ~> (1, 0)" in s


def test_unbound_identifier_reported_by_checker():
    from eqctt.typecheck import check_module
    mod = check_module(parse_module("def t : U0 = y"))
    assert not mod.report.ok
    assert mod.report.decls[0].diagnostics[0].code == "UnboundVariable"


def test_position_reported():
    try:
        parse_module("def t : U0 = =")
    except SyntaxError_ as e:
        assert e.pos[0] == 1
    else:
        pytest.fail("expected a syntax error")


def test_pairs_projections_paths():
    t = parse_term(r"\p. (p.2 , p.1)")
    assert "p.2" in print_term(t)
    t = parse_term(r"\q. <i> q @ i")
    assert print_term(t) == r"\q. <i> q @ i"


def test_cof_parsing_printing():
    c = parse_cof(r"i = 0 /\ (j = 1 \/ j = i)")
    assert isinstance(c, CAnd)
    assert isinstance(c.rhs, COr)
    assert parse_cof(print_cof(c)) == c
    assert parse_cof("tt") is not None
    assert isinstance(parse_cof("0 = 1"), CEq)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_roundtrip_corpus(path):
    # parse . print is the identity up to alpha on every corpus declaration
    for decl in parse_module(path.read_text()):
        ty2 = parse_term(print_term(decl.ty)) if not _has_free(decl.ty) else None
        if ty2 is not None:
            assert alpha_eq(ty2, decl.ty)


def _has_free(t):
    from eqctt.syntax import free_ivars, free_vars
    return bool(free_vars(t) or free_ivars(t))


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_roundtrip_via_reprint(path):
    # stronger: reprint every declaration body in a module and reparse the
    # whole module; the reparse must agree term by term
    decls = parse_module(path.read_text())
    lines = []
    for d in decls:
        if hasattr(d, "body"):
            lines.append(f"def {d.name} : {print_term(d.ty)} = {print_term(d.body)}")
        else:
            lines.append(f"postulate {d.name} : {print_term(d.ty)}")
    decls2 = parse_module("\n".join(lines))
    assert len(decls2) == len(decls)
    for d1, d2 in zip(decls, decls2):
        assert alpha_eq(d1.ty, d2.ty)
        if hasattr(d1, "body"):
            assert alpha_eq(d1.body, d2.body)


# ---------------------------------------------------------------------------
# the one-pass lexer against the anchored match per token

def _lexed(lex, src: str):
    try:
        return lex(src)
    except SyntaxError_ as e:
        return (e.message, e.pos)


# one declaration of each shape the kernel benchmark generates: the five line
# heads, k = 1..3, nested path lambdas, let, and pair projections
GENERATED_SHAPES = [
    "def d0 : A = comp^1 (u. A) [ m = 0 -> u. p @ u | 1 = 1 -> u. "
    "(let y : A = a in y) ] (q @ 0) : 0 ~> 1",
    "def d1 : (x : A) -> A = comp^2 (u v. (x : A) -> A) [ (0 = 0 \\/ 1 = 1)"
    " -> u v. (\\x. let y : A = x in y) ] (\\z. z) : (1,0) ~> (1,1)",
    "def d2 : Path (r. (y : A) * A) (comp^3 (u v w. (y : A) * A) "
    "[ 0 = 0 -> u v w. (a , (q @ 0)) ] ((p @ 0) , a) : (0,1,1) ~> (0,0,0))\n"
    "  (comp^3 (u v w. (y : A) * A) [] (a , a) : (0,1,1) ~> (1,1,1))\n"
    "  = <r> comp^3 (u v w. (y : A) * A) [ r = r -> u v w. (a , (q @ 0)) ] "
    "((p @ 0) , a) : (0,1,1) ~> (r,r,r)",
    "def d3 : Path (mm. Path (nn. Path (j. A) a b) x y)\n"
    "    (<nn> comp^2 (u v. Path (j. A) a b) [ (1 = nn /\\ nn = 1) -> u v. "
    "(<h> p @ h) ] (comp^1 (e. Path (j. A) a b) [] (<j> p @ j) : nn ~> nn) "
    ": (nn,0) ~> (0,1))\n  = <mm> <nn> comp^2 (u v. Path (j. A) a b) [] p "
    ": (nn,mm) ~> (mm,1)",
    "def d4 : L @ 1 = comp^1 (u. L @ u) [ i1 = 0 -> u. q @ u | i2 = 1 -> u. "
    "q2 @ u ] a : 0 ~> 1",
    "def d5 : A = (\\s. s.1) (a , b)\ndef d6 : A = (a , (b , a)).2.2",
]

EDGE_CASES = [
    "", "\n", "\t", "def\tx :\tU0\t=\tU0", "postulate A : U0\r\n\r\ndef a : A",
    "\r", "postulate A : U0 -- a comment at the end", "-- only a comment\n",
    "postulate é : U0", "postulate A : U0\n-- two\n-- three\n$",
    "postulate A : U0\n\n-- on line 3 \n  $", "postulate A : U0\n\t-- x\n\t$",
    "~~", "a ~> b ~", "\\x. x", "a /\\ b \\/ c", "x' _y0 U12 def_ 007",
]


@pytest.mark.parametrize("src", [p.read_text() for p in
                                 sorted(CORPUS.glob("*.ectt"))]
                         + GENERATED_SHAPES + EDGE_CASES)
def test_tokenize_matches_anchored_lexer(src):
    assert _lexed(tokenize, src) == _lexed(reference.tokenize, src)


@given(st.text(alphabet="ab01 \t\r\n-~>/\\()[]<>.,:=*@|^$é_'", max_size=40))
def test_tokenize_matches_anchored_lexer_on_any_text(src):
    assert _lexed(tokenize, src) == _lexed(reference.tokenize, src)


def test_unexpected_character_position():
    # a tab is one column, and a comment moves no position
    assert _lexed(tokenize, "postulate A : U0\n-- c $\n\t$") == (
        "unexpected character '$'", (3, 2))
