"""Bidirectional type checking of declarations.

The checker keeps a user-name scope in lockstep with a semantic telescope
(``semantics.Context``); every failure carries exactly one diagnostic with a
source position.  The comp rule checks its full premise list: the line is a
type under the extended context, guards live in the outer context and may not
mention the bound directions, branches agree pairwise on overlaps, and the
cap agrees with every branch at the source tuple.  A well-typed comp inhabits
the line at the *target* tuple.
"""

from __future__ import annotations

from typing import Optional

from . import cof
from .printer import print_cof, print_term
from .semantics import (Context, Env, PermutationBoundExceeded, TermBind,
                        Value, VU, VPi, VSigma, VPathT, KernelError, convert,
                        eval_cof, eval_interval, eval_term,
                        neutral_var, quote, quote_type)
from .syntax import (Branch, Comp, Decl, Def, Fst, I0, I1, IVar, Interval,
                     Lam, Let, Pair, PApp, PathT, Pi, PLam, Pos, Sigma, Snd,
                     Term, U, Var, App, cof_vars, interval_vars)

UNBOUND = "UnboundVariable"
MISMATCH = "TypeMismatch"
BOUNDARY = "BoundaryMismatch"
INCOMPATIBLE = "IncompatibleSystem"
ARITY = "ArityMismatch"
GUARD_NEVER = "GuardNeverHolds"
PERM_BOUND = "PermutationBoundExceeded"
SYNTAX = "SyntaxError"
INTERNAL = "InternalError"


class Diagnostic:
    __slots__ = ("code", "message", "pos", "expected", "actual")

    def __init__(self, code: str, message: str, pos: Optional[Pos] = None,
                 expected: Optional[str] = None, actual: Optional[str] = None):
        self.code, self.message, self.pos = code, message, pos
        self.expected, self.actual = expected, actual

    def to_json(self) -> dict:
        out = {"code": self.code, "message": self.message}
        if self.pos:
            out["line"], out["col"] = self.pos
        if self.expected is not None:
            out["expected"] = self.expected
        if self.actual is not None:
            out["actual"] = self.actual
        return out

    def __str__(self) -> str:
        loc = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        extra = ""
        if self.expected is not None:
            extra = f"\n  expected: {self.expected}\n  actual:   {self.actual}"
        return f"{loc}{self.code}: {self.message}{extra}"


class CheckError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diag = diag


def _fail(code: str, message: str, pos=None, expected=None, actual=None):
    raise CheckError(Diagnostic(code, message, pos,
                                expected=expected, actual=actual))


class Scope:
    """User-level names paired with the semantic telescope."""
    __slots__ = ("ctx", "env", "types")

    def __init__(self, ctx: Context | None = None, env: Env | None = None,
                 types: dict | None = None):
        self.ctx = Context() if ctx is None else ctx
        self.env = Env() if env is None else env
        self.types = {} if types is None else types  # user name -> type Value

    def bind_term(self, x: str, ty: Value) -> tuple["Scope", Value]:
        ctx2, xv = self.ctx.bind_term(x, ty)
        return Scope(ctx2, self.env.bind_term(x, xv),
                     {**self.types, x: ty}), xv

    def bind_const(self, name: str, ty: Value) -> "Scope":
        # global postulates keep their declared name
        ctx2 = Context(self.ctx.entries + (TermBind(name, ty),))
        return Scope(ctx2, self.env.bind_term(name, neutral_var(name, ty)),
                     {**self.types, name: ty})

    def bind_def(self, name: str, ty: Value, val: Value) -> "Scope":
        # definitions unfold through the environment
        return Scope(self.ctx, self.env.bind_term(name, val),
                     {**self.types, name: ty})

    def bind_ivar(self, i: str) -> tuple["Scope", IVar]:
        ctx2, iv = self.ctx.bind_ivar(i)
        return Scope(ctx2, self.env.bind_ivars((i,), (iv,)), self.types), iv

    def restrict(self, phi_sem) -> "Scope":
        return Scope(self.ctx.restrict(phi_sem), self.env.with_hyp(phi_sem),
                     self.types)

    def has_ivar(self, name: str) -> bool:
        return name in self.env.ivals


def _show_type(ty: Value) -> str:
    return print_term(quote_type(ty))


class Checker:
    def __init__(self, scope: Scope | None = None):
        self.scope = scope if scope is not None else Scope()
        self.warnings: list[Diagnostic] = []

    # -- interval and cofibration well-formedness ---------------------------

    def _check_interval(self, sc: Scope, r: Interval, pos) -> Interval:
        for x in interval_vars(r):
            if not sc.has_ivar(x):
                _fail(UNBOUND, f"unbound interval variable {x!r}", pos)
        return eval_interval(sc.env, r)

    def _check_guard(self, sc: Scope, guard, dirs: tuple[str, ...], pos):
        for x in cof_vars(guard):
            if sc.has_ivar(x):
                continue
            if x in dirs:
                _fail(ARITY,
                      f"guard mentions bound comp direction {x!r}; guards "
                      "must be cofibrations of the outer context", pos)
            _fail(UNBOUND, f"unbound interval variable {x!r} in guard", pos)
        return eval_cof(sc.env, guard)

    # -- inference -----------------------------------------------------------

    def infer(self, sc: Scope, t: Term) -> Value:
        match t:
            case Var(x):
                if x not in sc.types:
                    _fail(UNBOUND, f"unbound identifier {x!r}", t.pos)
                return sc.types[x]
            case U(n):
                return VU(n + 1)
            case Pi(x, a, b) | Sigma(x, a, b):
                la = self.check_is_type(sc, a)
                sc2, _ = sc.bind_term(x, eval_term(sc.env, a))
                lb = self.check_is_type(sc2, b)
                return VU(max(la, lb))
            case PathT(i, line, left, right):
                sc2, _ = sc.bind_ivar(i)
                l = self.check_is_type(sc2, line)
                a0 = eval_term(sc.env.bind_ivars((i,), (I0,)), line)
                a1 = eval_term(sc.env.bind_ivars((i,), (I1,)), line)
                self.check(sc, left, a0)
                self.check(sc, right, a1)
                return VU(l)
            case App(f, a):
                fty = self.infer(sc, f)
                if not isinstance(fty, VPi):
                    _fail(MISMATCH, "application of a non-function", t.pos,
                          expected="a function type", actual=_show_type(fty))
                self.check(sc, a, fty.dom)
                return fty.cod(eval_term(sc.env, a))
            case Fst(p):
                pty = self.infer(sc, p)
                if not isinstance(pty, VSigma):
                    _fail(MISMATCH, "projection from a non-pair", t.pos,
                          expected="a pair type", actual=_show_type(pty))
                return pty.dom
            case Snd(p):
                pty = self.infer(sc, p)
                if not isinstance(pty, VSigma):
                    _fail(MISMATCH, "projection from a non-pair", t.pos,
                          expected="a pair type", actual=_show_type(pty))
                return pty.cod(eval_term(sc.env, Fst(p)))
            case PApp(f, r):
                rv = self._check_interval(sc, r, t.pos)
                fty = self.infer(sc, f)
                if not isinstance(fty, VPathT):
                    _fail(MISMATCH, "path application of a non-path", t.pos,
                          expected="a path type", actual=_show_type(fty))
                return fty.line(rv)
            case Let(x, ann, bound, body):
                self.check_is_type(sc, ann)
                ty = eval_term(sc.env, ann)
                self.check(sc, bound, ty)
                sc2 = sc.bind_def(x, ty, eval_term(sc.env, bound))
                return self.infer(sc2, body)
            case Comp():
                return self.check_comp_term(sc, t)
            case Lam() | PLam() | Pair():
                _fail(MISMATCH,
                      "cannot infer a type for this term; add an annotation",
                      t.pos)
        raise TypeError(t)

    def check_is_type(self, sc: Scope, t: Term) -> int:
        ty = self.infer(sc, t)
        if not isinstance(ty, VU):
            _fail(MISMATCH, "expected a type", t.pos,
                  expected="a universe", actual=_show_type(ty))
        return ty.level

    # -- checking ------------------------------------------------------------

    def check(self, sc: Scope, t: Term, expected: Value) -> None:
        match t:
            case Lam(x, body):
                if not isinstance(expected, VPi):
                    _fail(MISMATCH, "lambda against a non-function type",
                          t.pos, expected=_show_type(expected),
                          actual="a lambda")
                sc2, xv = sc.bind_term(x, expected.dom)
                self.check(sc2, body, expected.cod(xv))
                return
            case Pair(a, b):
                if not isinstance(expected, VSigma):
                    _fail(MISMATCH, "pair against a non-pair type", t.pos,
                          expected=_show_type(expected), actual="a pair")
                self.check(sc, a, expected.dom)
                self.check(sc, b, expected.cod(eval_term(sc.env, a)))
                return
            case PLam(i, body):
                if not isinstance(expected, VPathT):
                    _fail(MISMATCH, "path lambda against a non-path type",
                          t.pos, expected=_show_type(expected),
                          actual="a path lambda")
                sc2, iv = sc.bind_ivar(i)
                self.check(sc2, body, expected.line(iv))
                for endpoint, want, which in (
                        (I0, expected.left, "left"),
                        (I1, expected.right, "right")):
                    got = eval_term(sc.env.bind_ivars((i,), (endpoint,)), body)
                    want_ty = expected.line(endpoint)
                    if not convert(sc.ctx, want_ty, got, want):
                        _fail(BOUNDARY,
                              f"{which} endpoint of path does not match",
                              t.pos,
                              expected=print_term(quote(want_ty, want)),
                              actual=print_term(quote(want_ty, got)))
                return
            case Let(x, ann, bound, body):
                self.check_is_type(sc, ann)
                ty = eval_term(sc.env, ann)
                self.check(sc, bound, ty)
                sc2 = sc.bind_def(x, ty, eval_term(sc.env, bound))
                self.check(sc2, body, expected)
                return
        actual = self.infer(sc, t)
        if not convert(sc.ctx, VU(0), actual, expected):
            _fail(MISMATCH, "type mismatch", t.pos,
                  expected=_show_type(expected), actual=_show_type(actual))

    # -- the comp rule -------------------------------------------------------

    def check_comp_term(self, sc: Scope, c: Comp) -> Value:
        k = len(c.dirs)
        if k < 1:
            _fail(ARITY, "comp requires at least one direction", c.pos)
        if len(c.source) != k or len(c.target) != k:
            _fail(ARITY,
                  f"comp^{k} needs source and target tuples of length {k}",
                  c.pos)

        sc_line = sc
        for d in c.dirs:
            sc_line, _ = sc_line.bind_ivar(d)
        self.check_is_type(sc_line, c.line)

        env0 = sc.env

        def line_at(*ivs):
            return eval_term(env0.bind_ivars(c.dirs, ivs), c.line)

        guards = []
        for br in c.tube:
            if len(br.dirs) != k:
                _fail(ARITY,
                      f"tube branch binds {len(br.dirs)} directions, "
                      f"expected {k}", c.pos)
            g = self._check_guard(sc, br.guard, c.dirs + br.dirs, c.pos)
            if not cof.satisfiable_with(sc.ctx.hyps, g):
                self.warnings.append(Diagnostic(
                    GUARD_NEVER,
                    f"guard {print_cof(br.guard)} never holds", c.pos))
            guards.append(g)

        for br, g in zip(c.tube, guards):
            sc_b = sc.restrict(g)
            ivs = []
            for d in br.dirs:
                sc_b, iv = sc_b.bind_ivar(d)
                ivs.append(iv)
            self.check(sc_b, br.body, line_at(*ivs))

        self.check_system(sc, c.tube, guards, line_at, k, c.pos)

        src = tuple(self._check_interval(sc, r, c.pos) for r in c.source)
        tgt = tuple(self._check_interval(sc, s, c.pos) for s in c.target)

        self.check(sc, c.cap, line_at(*src))

        cap_v = eval_term(sc.env, c.cap)
        for br, g in zip(c.tube, guards):
            sc_r = sc.restrict(g)
            br_at_src = eval_term(sc_r.env.bind_ivars(br.dirs, src), br.body)
            if not convert(sc_r.ctx, line_at(*src), br_at_src, cap_v):
                _fail(BOUNDARY,
                      "cap disagrees with a tube branch at the source tuple",
                      c.pos,
                      expected=print_term(quote(line_at(*src), br_at_src)),
                      actual=print_term(quote(line_at(*src), cap_v)))

        return line_at(*tgt)

    def check_system(self, sc: Scope, tube: tuple[Branch, ...], guards,
                     line_at, k: int, pos) -> None:
        """Branches of a system must agree on overlaps."""
        for i in range(len(tube)):
            for j in range(i + 1, len(tube)):
                sc_ij = sc.restrict(guards[i]).restrict(guards[j])
                ivs = []
                for d in tube[i].dirs:
                    sc_ij, iv = sc_ij.bind_ivar(d)
                    ivs.append(iv)
                ivs = tuple(ivs)
                vi = eval_term(sc_ij.env.bind_ivars(tube[i].dirs, ivs),
                               tube[i].body)
                vj = eval_term(sc_ij.env.bind_ivars(tube[j].dirs, ivs),
                               tube[j].body)
                if not convert(sc_ij.ctx, line_at(*ivs), vi, vj):
                    _fail(INCOMPATIBLE,
                          f"tube branches {i + 1} and {j + 1} disagree where "
                          f"{print_cof(tube[i].guard)} and "
                          f"{print_cof(tube[j].guard)} overlap", pos)


# ---------------------------------------------------------------------------
# declarations

class DeclReport:
    __slots__ = ("name", "status", "diagnostics")

    def __init__(self, name: str, status: str):
        self.name, self.status = name, status  # status: "ok" | "error"
        self.diagnostics: list[Diagnostic] = []

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "diagnostics": [d.to_json() for d in self.diagnostics]}


class Report:
    __slots__ = ("decls",)

    def __init__(self):
        self.decls: list[DeclReport] = []

    @property
    def ok(self) -> bool:
        return all(d.status == "ok" for d in self.decls)

    def to_json(self, file: str = "<input>") -> dict:
        return {"file": file, "decls": [d.to_json() for d in self.decls]}


class CheckedModule:
    __slots__ = ("report", "scope", "values", "types")

    def __init__(self, report: Report, scope: Scope,
                 values: dict[str, Value], types: dict[str, Value]):
        self.report, self.scope = report, scope
        self.values = values  # definitions and postulated constants
        self.types = types


def check_module(decls: list[Decl]) -> CheckedModule:
    scope = Scope()
    report = Report()
    values: dict[str, Value] = {}
    types: dict[str, Value] = {}
    for d in decls:
        checker = Checker()
        dr = DeclReport(d.name, "ok")
        report.decls.append(dr)
        if d.name in types:
            dr.status = "error"
            dr.diagnostics.append(Diagnostic(
                SYNTAX, f"duplicate declaration of {d.name!r}", d.pos))
            continue
        try:
            checker.check_is_type(scope, d.ty)
            ty = eval_term(scope.env, d.ty)
            if isinstance(d, Def):
                checker.check(scope, d.body, ty)
                val = eval_term(scope.env, d.body)
                scope = scope.bind_def(d.name, ty, val)
            else:
                scope = scope.bind_const(d.name, ty)
                val = scope.env.terms[d.name]
            values[d.name] = val
            types[d.name] = ty
        except CheckError as e:
            dr.status = "error"
            dr.diagnostics.append(e.diag)
        except PermutationBoundExceeded as e:
            dr.status = "error"
            dr.diagnostics.append(Diagnostic(PERM_BOUND, str(e), d.pos))
        except KernelError as e:  # a kernel bug surfaced on user input
            dr.status = "error"
            dr.diagnostics.append(Diagnostic(
                INTERNAL, f"internal error: {e}", d.pos))
        dr.diagnostics.extend(checker.warnings)
    return CheckedModule(report, scope, values, types)
