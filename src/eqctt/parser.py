"""Lexer and recursive-descent parser for ``.ectt`` sources.

Surface grammar:

    decl      ::= 'def' x ':' term '=' term | 'postulate' x ':' term
    term      ::= '\\' x+ '.' term | '<' i+ '>' term
                | 'let' x ':' term '=' term 'in' term | comp | arrow
    arrow     ::= '(' x+ ':' term ')' ('->' | '*') ...  | sigma ('->' term)?
    sigma     ::= spine ('*' sigma)?
    spine     ::= atom (atom | '@' interval | '.1' | '.2')*
    atom      ::= x | 'U' n | '(' term (',' term)? ')' | 'Path' '(' i '.' term ')' atom atom
    comp      ::= 'comp' '^' k '(' i1..ik '.' term ')' '[' system ']' spine
                  ':' ituple '~>' ituple
    system    ::= branch ('|' branch)*  |  (empty)
    branch    ::= cof '->' i1..ik '.' term
    cof       ::= cand ('\\/' cand)* ; cand ::= catom ('/\\' catom)*
    catom     ::= 'tt' | 'ff' | '(' cof ')' | interval '=' interval
    interval  ::= '0' | '1' | i

Comments run from ``--`` to end of line.
"""

from __future__ import annotations

import re

from . import syntax as S
from .syntax import (Branch, CAnd, CEq, COr, Comp, Def, Fst, I0, I1, IVar,
                     Interval, Lam, Let, Pair, PApp, PathT, Pi, PLam,
                     Postulate, Sigma, Snd, Term, U, Var, App, BOT, TOP)


class SyntaxError_(Exception):
    code = "SyntaxError"

    def __init__(self, message: str, pos: tuple[int, int]):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


class DepthLimit(SyntaxError_):
    """Terms nested deeper than ``MAX_DEPTH``, a little short of where the
    recursion of the parser, checker or evaluator would overflow."""
    code = "DepthLimit"


MAX_DEPTH = 160


# a token is a tuple (kind, text, (line, column))
Token = tuple[str, str, tuple[int, int]]

# comments are cut off each line before it is lexed; whitespace matches no
# alternative, so ``finditer`` steps over it
_TOKEN_RE = re.compile(r"->|~>|/\\|\\/|\\|[A-Za-z_][A-Za-z0-9_']*|[0-9]+"
                       r"|[()\[\]<>.,:=*@|^]|\S")

# the kind of every token spelt one way; any other token is an identifier
# or a number by its first character, or a bad character
_KINDS = {"->": "arrow", "~>": "squig", "/\\": "and", "\\/": "or",
          "\\": "lam", **dict.fromkeys("()[]<>.,:=*@|^", "sym"),
          **{w: w for w in ("def", "postulate", "Path", "comp", "let", "in",
                            "tt", "ff")}}
_FIRST = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
                        "ident")
          | dict.fromkeys("0123456789", "number"))


def tokenize(src: str) -> list[Token]:
    """Each line lexed with one ``finditer``; only a newline moves the line,
    and a column is counted from the start of its line."""
    toks: list[Token] = []
    kinds, first = _KINDS, _FIRST
    lines = src.split("\n")
    for n, line in enumerate(lines, 1):
        cut = line.find("--")
        for m in _TOKEN_RE.finditer(line if cut < 0 else line[:cut]):
            text = m.group()
            kind = kinds.get(text) or first.get(text[0])
            if kind is None:
                raise SyntaxError_(f"unexpected character {text!r}",
                                   (n, m.start() + 1))
            toks.append((kind, text, (n, m.start() + 1)))
    toks.append(("eof", "", (len(lines), len(lines[-1]) + 1)))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0

    def deeper(self, levels: int) -> None:
        """Move ``levels`` down the term being built (up, if negative).  A
        failed parse is abandoned, so only a success moves back up."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise DepthLimit(f"terms nest deeper than {MAX_DEPTH} levels",
                             self.peek()[2])

    def nested(self, parse):
        self.deeper(1)
        out = parse()
        self.deeper(-1)
        return out

    # -- token plumbing ----------------------------------------------------

    def peek(self, off: int = 0) -> Token:
        # the list ends in eof and next() never moves past it
        if off == 0:
            return self.toks[self.i]
        return self.toks[min(self.i + off, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t[0] != kind or (text is not None and t[1] != text):
            want = text or kind
            raise SyntaxError_(f"expected {want!r}, found {t[1]!r}", t[2])
        return self.next()

    def expect_sym(self, text: str) -> Token:
        t = self.peek()
        if t[1] != text:
            raise SyntaxError_(f"expected {text!r}, found {t[1]!r}", t[2])
        return self.next()

    def idents(self) -> list[str]:
        """One identifier or more, as binders are written."""
        names = [self.expect("ident")[1]]
        while self.peek()[0] == "ident":
            names.append(self.next()[1])
        return names

    def at_sym(self, text: str) -> bool:
        return self.peek()[1] == text and self.peek()[0] in ("sym", "arrow", "squig")

    # -- intervals and cofibrations ----------------------------------------

    def parse_interval(self) -> Interval:
        t = self.next()
        if t[0] == "number":
            if t[1] == "0":
                return I0
            if t[1] == "1":
                return I1
            raise SyntaxError_(f"interval literal must be 0 or 1, found {t[1]}", t[2])
        if t[0] == "ident":
            return IVar(t[1])
        raise SyntaxError_(f"expected interval expression, found {t[1]!r}", t[2])

    def parse_cof(self) -> S.Cof:
        return self.parse_chain("or", COr, self.parse_cof_and)

    def parse_chain(self, kind: str, node, operand) -> S.Cof:
        """A left-nested chain of ``operand``s joined by ``kind``."""
        base, out = self.depth, operand()
        while self.peek()[0] == kind:
            self.next()
            self.deeper(1)  # each operand nests the chain one level deeper
            out = node(out, operand())
        self.depth = base
        return out

    def parse_cof_and(self) -> S.Cof:
        return self.parse_chain("and", CAnd, self.parse_cof_atom)

    def parse_cof_atom(self) -> S.Cof:
        t = self.peek()
        if t[0] == "tt":
            self.next()
            return TOP
        if t[0] == "ff":
            self.next()
            return BOT
        if t[1] == "(":
            self.next()
            c = self.nested(self.parse_cof)
            self.expect_sym(")")
            return c
        l = self.parse_interval()
        self.expect_sym("=")
        r = self.parse_interval()
        return CEq(l, r)

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        self.deeper(1)  # as ``nested`` would, with one stack frame less
        t = self.peek()
        if t[0] == "lam":
            out = self.parse_binders(Lam, ".")
        elif t[1] == "<":
            out = self.parse_binders(PLam, ">")
        elif t[0] == "let":
            out = self.parse_let()
        elif t[0] == "comp":
            out = self.parse_comp()
        else:
            out = self.parse_arrow()
        self.deeper(-1)
        return out

    def parse_binders(self, node, close: str) -> Term:
        """``\\x y. t`` or ``<i j> t``: one ``node`` per name, the first
        outermost; the opening token is the current one."""
        pos = self.next()[2]
        names = self.idents()
        self.expect_sym(close)
        body = self.parse_term()
        for x in reversed(names):
            body = node(x, body).at(pos)
        return body

    def parse_let(self) -> Term:
        pos = self.expect("let")[2]
        x = self.expect("ident")[1]
        self.expect_sym(":")
        ann = self.parse_term()
        self.expect_sym("=")
        bound = self.parse_term()
        self.expect("in")
        body = self.parse_term()
        return Let(x, ann, bound, body).at(pos)

    def parse_comp(self) -> Term:
        pos = self.expect("comp")[2]
        self.expect_sym("^")
        ktok = self.expect("number")
        k = int(ktok[1])
        if k < 1:
            raise SyntaxError_("comp requires at least one direction (k >= 1)",
                               ktok[2])
        self.expect_sym("(")
        dirs = self.idents()
        if len(dirs) != k:
            raise SyntaxError_(f"comp^{k} binds {k} directions, found {len(dirs)}",
                               ktok[2])
        self.expect_sym(".")
        line = self.parse_term()
        self.expect_sym(")")
        self.expect_sym("[")
        tube: list[Branch] = []
        if not self.at_sym("]"):
            tube.append(self.parse_branch(k))
            while self.at_sym("|"):
                self.next()
                tube.append(self.parse_branch(k))
        self.expect_sym("]")
        cap = self.parse_spine()
        self.expect_sym(":")
        source = self.parse_ituple(k, ktok[2])
        self.expect("squig")
        target = self.parse_ituple(k, ktok[2])
        return Comp(tuple(dirs), line, source, target, tuple(tube), cap).at(pos)

    def parse_branch(self, k: int) -> Branch:
        guard = self.parse_cof()
        self.expect("arrow")
        pos = self.peek()[2]
        dirs = self.idents()
        if len(dirs) != k:
            raise SyntaxError_(f"tube branch must bind {k} directions, found {len(dirs)}",
                               pos)
        self.expect_sym(".")
        body = self.parse_term()
        return Branch(guard, tuple(dirs), body)

    def parse_ituple(self, k: int, pos) -> tuple[Interval, ...]:
        if self.at_sym("("):
            self.next()
            out = [self.parse_interval()]
            while self.at_sym(","):
                self.next()
                out.append(self.parse_interval())
            self.expect_sym(")")
        else:
            out = [self.parse_interval()]
        if len(out) != k:
            raise SyntaxError_(f"expected {k} interval components, found {len(out)}", pos)
        return tuple(out)

    def _binder_group_ahead(self) -> bool:
        if not self.at_sym("("):
            return False
        j = 1
        while self.peek(j)[0] == "ident":
            j += 1
        return j > 1 and self.peek(j)[1] == ":"

    def parse_arrow(self) -> Term:
        if self._binder_group_ahead():
            pos = self.expect_sym("(")[2]
            names = self.idents()
            self.expect_sym(":")
            dom = self.parse_term()
            self.expect_sym(")")
            if self.peek()[0] == "arrow":
                self.next()
                body = self.parse_term()
                for x in reversed(names):
                    body = Pi(x, dom, body).at(pos)
                return body
            self.expect_sym("*")
            body = self.nested(self.parse_sigma)
            for x in reversed(names):
                body = Sigma(x, dom, body).at(pos)
            if self.peek()[0] == "arrow":
                self.next()
                return Pi("_", body, self.parse_term()).at(pos)
            return body
        t = self.parse_sigma()
        if self.peek()[0] == "arrow":
            pos = self.next()[2]
            return Pi("_", t, self.parse_term()).at(pos)
        return t

    def parse_sigma(self) -> Term:
        if self._binder_group_ahead():
            return self.parse_arrow()
        t = self.parse_spine()
        if self.at_sym("*"):
            pos = self.next()[2]
            return Sigma("_", t, self.nested(self.parse_sigma)).at(pos)
        return t

    def parse_spine(self) -> Term:
        t = self.parse_atom()
        base = self.depth
        while True:
            nxt = self.peek()
            if nxt[1] == "@" and nxt[0] == "sym":
                self.next()
                t = PApp(t, self.parse_interval()).at(nxt[2])
            elif nxt[1] == "." and self.peek(1)[0] == "number":
                self.next()
                n = self.next()
                if n[1] == "1":
                    t = Fst(t).at(nxt[2])
                elif n[1] == "2":
                    t = Snd(t).at(nxt[2])
                else:
                    raise SyntaxError_("projection must be .1 or .2", n[2])
            elif self._starts_atom(nxt):
                t = App(t, self.parse_atom()).at(nxt[2])
            else:
                self.depth = base
                return t
            self.deeper(1)  # each eliminator nests t one level deeper

    def _starts_atom(self, t: Token) -> bool:
        return (t[0] in ("ident", "Path")
                or (t[0] == "sym" and t[1] == "(" and not self._binder_group_ahead()))

    def parse_atom(self) -> Term:
        t = self.peek()
        if t[0] == "ident":
            self.next()
            if t[1][0] == "U" and t[1][1:].isdigit():  # identifiers are ASCII
                return U(int(t[1][1:])).at(t[2])
            return Var(t[1]).at(t[2])
        if t[0] == "Path":
            self.next()
            self.expect_sym("(")
            i = self.expect("ident")[1]
            self.expect_sym(".")
            line = self.parse_term()
            self.expect_sym(")")
            left = self.nested(self.parse_atom)
            right = self.nested(self.parse_atom)
            return PathT(i, line, left, right).at(t[2])
        if t[1] == "(":
            self.next()
            inner = self.parse_term()
            if self.at_sym(","):
                self.next()
                snd = self.parse_term()
                self.expect_sym(")")
                return Pair(inner, snd).at(t[2])
            self.expect_sym(")")
            return inner
        raise SyntaxError_(f"expected a term, found {t[1]!r}", t[2])

    # -- declarations --------------------------------------------------------

    def parse_module(self) -> list[S.Decl]:
        decls: list[S.Decl] = []
        while self.peek()[0] != "eof":
            t = self.next()
            if t[0] not in ("def", "postulate"):
                raise SyntaxError_(
                    f"expected 'def' or 'postulate', found {t[1]!r}", t[2])
            name = self.expect("ident")[1]
            self.expect_sym(":")
            ty = self.parse_term()
            if t[0] == "postulate":
                decls.append(Postulate(name, ty, pos=t[2]))
                continue
            self.expect_sym("=")
            decls.append(Def(name, ty, self.parse_term(), pos=t[2]))
        return decls

    def finish(self):
        t = self.peek()
        if t[0] != "eof":
            raise SyntaxError_(f"trailing input {t[1]!r}", t[2])


def parse_term(src: str, known: set[str] | None = None) -> Term:
    """Parse a standalone term.  Binders are scoped by the grammar; free
    identifiers are allowed when ``known`` is None (they resolve against a
    signature later), otherwise they must be members of ``known``."""
    p = Parser(src)
    t = p.parse_term()
    p.finish()
    if known is not None:
        for x in S.free_vars(t) - known:
            raise SyntaxError_(f"unbound identifier {x!r}", t.pos or (1, 1))
    return t


def parse_module(src: str) -> list[S.Decl]:
    return Parser(src).parse_module()


def parse_cof(src: str) -> S.Cof:
    p = Parser(src)
    c = p.parse_cof()
    p.finish()
    return c
