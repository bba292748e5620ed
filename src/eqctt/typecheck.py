"""Bidirectional type checking of declarations.

``check_module`` writes each declaration that checks once into the module's
signature, and the checker works in one ``semantics.Context`` of local
binders: the telescope of fresh variables, the environment of the local
names, whose ``hyps`` are the restrictions the comp rule enters (a guard, or
the two guards of an overlap), and the types of those names.  A binder
copies only local names, so its cost depends on local depth, not module
size.  Conversion under restrictions substitutes each DNF conjunct's
interval identifications, which make every restriction hold, so it
evaluates with none.  Every failure carries exactly one diagnostic with a
source position.  The comp rule checks its full premise list: the line is a
type under the extended context, guards live in the outer context and may
not mention the bound directions, branches agree pairwise on overlaps, and
the cap agrees with every branch at the source tuple.  A well-typed comp
inhabits the line at the *target* tuple.
"""

from __future__ import annotations

from typing import Optional

from . import cof
from .printer import print_cof, print_term
from .semantics import (K_MAX, Context, Env, PermutationBoundExceeded,
                        Value, VU, VPi, VSigma, VPathT, KernelError, convert,
                        eval_cof, eval_interval, eval_term, neutral_var, quote,
                        quote_type)
from .syntax import (Branch, Comp, Decl, Def, Fst, I0, I1, Interval,
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


def _show_type(ty: Value) -> str:
    return print_term(quote_type(ty))


class Checker:
    def __init__(self):
        self.warnings: list[Diagnostic] = []

    # -- interval and cofibration well-formedness ---------------------------

    def _check_interval(self, ctx: Context, r: Interval, pos) -> Interval:
        for x in interval_vars(r):
            if x not in ctx.env.ivals:
                _fail(UNBOUND, f"unbound interval variable {x!r}", pos)
        return eval_interval(ctx.env, r)

    def _check_guard(self, ctx: Context, guard, dirs: tuple[str, ...], pos):
        for x in cof_vars(guard):
            if x in ctx.env.ivals:
                continue
            if x in dirs:
                _fail(ARITY,
                      f"guard mentions bound comp direction {x!r}; guards "
                      "must be cofibrations of the outer context", pos)
            _fail(UNBOUND, f"unbound interval variable {x!r} in guard", pos)
        return eval_cof(ctx.env, guard)

    # -- inference -----------------------------------------------------------

    def infer(self, ctx: Context, t: Term) -> Value:
        match t:
            case Var(x):  # a local binder, else a top-level name
                if x in ctx.types:
                    return ctx.types[x]
                if x not in ctx.env.sig:
                    _fail(UNBOUND, f"unbound identifier {x!r}", t.pos)
                return ctx.env.sig[x][1]
            case U(n):
                return VU(n + 1)
            case Pi(x, a, b) | Sigma(x, a, b):
                la = self.check_is_type(ctx, a)
                ctx2, _ = ctx.bind_term(x, eval_term(ctx.env, a))
                lb = self.check_is_type(ctx2, b)
                return VU(max(la, lb))
            case PathT(i, line, left, right):
                l = self.check_is_type(ctx.bind_ivars((i,))[0], line)
                a0 = eval_term(ctx.env.bind_ivars((i,), (I0,)), line)
                a1 = eval_term(ctx.env.bind_ivars((i,), (I1,)), line)
                self.check(ctx, left, a0)
                self.check(ctx, right, a1)
                return VU(l)
            case App(f, a):
                fty = self.infer(ctx, f)
                if not isinstance(fty, VPi):
                    _fail(MISMATCH, "application of a non-function", t.pos,
                          expected="a function type", actual=_show_type(fty))
                self.check(ctx, a, fty.dom)
                return fty.cod(eval_term(ctx.env, a))
            case Fst(p) | Snd(p):
                pty = self.infer(ctx, p)
                if not isinstance(pty, VSigma):
                    _fail(MISMATCH, "projection from a non-pair", t.pos,
                          expected="a pair type", actual=_show_type(pty))
                if isinstance(t, Fst):
                    return pty.dom
                return pty.cod(eval_term(ctx.env, Fst(p)))
            case PApp(f, r):
                rv = self._check_interval(ctx, r, t.pos)
                fty = self.infer(ctx, f)
                if not isinstance(fty, VPathT):
                    _fail(MISMATCH, "path application of a non-path", t.pos,
                          expected="a path type", actual=_show_type(fty))
                return fty.line(rv)
            case Let():
                return self.infer(self._bind_let(ctx, t), t.body)
            case Comp():
                return self.check_comp_term(ctx, t)
            case Lam() | PLam() | Pair():
                _fail(MISMATCH,
                      "cannot infer a type for this term; add an annotation",
                      t.pos)
        raise TypeError(t)

    def _bind_let(self, ctx: Context, t: Let) -> Context:
        """Check the bound term of a ``let`` and bind it as a definition."""
        self.check_is_type(ctx, t.ann)
        ty = eval_term(ctx.env, t.ann)
        self.check(ctx, t.bound, ty)
        return ctx.bind_def(t.binder, ty, eval_term(ctx.env, t.bound))

    def check_is_type(self, ctx: Context, t: Term) -> int:
        ty = self.infer(ctx, t)
        if not isinstance(ty, VU):
            _fail(MISMATCH, "expected a type", t.pos,
                  expected="a universe", actual=_show_type(ty))
        return ty.level

    # -- checking ------------------------------------------------------------

    def check(self, ctx: Context, t: Term, expected: Value) -> None:
        match t:
            case Lam(x, body):
                if not isinstance(expected, VPi):
                    _fail(MISMATCH, "lambda against a non-function type",
                          t.pos, expected=_show_type(expected),
                          actual="a lambda")
                ctx2, xv = ctx.bind_term(x, expected.dom)
                self.check(ctx2, body, expected.cod(xv))
                return
            case Pair(a, b):
                if not isinstance(expected, VSigma):
                    _fail(MISMATCH, "pair against a non-pair type", t.pos,
                          expected=_show_type(expected), actual="a pair")
                self.check(ctx, a, expected.dom)
                self.check(ctx, b, expected.cod(eval_term(ctx.env, a)))
                return
            case PLam(i, body):
                if not isinstance(expected, VPathT):
                    _fail(MISMATCH, "path lambda against a non-path type",
                          t.pos, expected=_show_type(expected),
                          actual="a path lambda")
                ctx2, (iv,) = ctx.bind_ivars((i,))
                self.check(ctx2, body, expected.line(iv))
                for endpoint, want, which in (
                        (I0, expected.left, "left"),
                        (I1, expected.right, "right")):
                    got = eval_term(ctx.env.bind_ivars((i,), (endpoint,)), body)
                    want_ty = expected.line(endpoint)
                    if not convert(ctx, want_ty, got, want):
                        _fail(BOUNDARY,
                              f"{which} endpoint of path does not match",
                              t.pos,
                              expected=print_term(quote(want_ty, want)),
                              actual=print_term(quote(want_ty, got)))
                return
            case Let():
                self.check(self._bind_let(ctx, t), t.body, expected)
                return
        actual = self.infer(ctx, t)
        if not convert(ctx, VU(0), actual, expected):
            _fail(MISMATCH, "type mismatch", t.pos,
                  expected=_show_type(expected), actual=_show_type(actual))

    # -- the comp rule -------------------------------------------------------

    def check_comp_term(self, ctx: Context, c: Comp) -> Value:
        k = len(c.dirs)
        if k < 1:
            _fail(ARITY, "comp requires at least one direction", c.pos)
        if len(c.source) != k or len(c.target) != k:
            _fail(ARITY,
                  f"comp^{k} needs source and target tuples of length {k}",
                  c.pos)

        self.check_is_type(ctx.bind_ivars(c.dirs)[0], c.line)

        def line_at(*ivs):
            return eval_term(ctx.env.bind_ivars(c.dirs, ivs), c.line)

        guards = []
        for br in c.tube:
            if len(br.dirs) != k:
                _fail(ARITY,
                      f"tube branch binds {len(br.dirs)} directions, "
                      f"expected {k}", c.pos)
            g = self._check_guard(ctx, br.guard, c.dirs + br.dirs, c.pos)
            if not cof.satisfiable_with(ctx.env.hyps, g):
                self.warnings.append(Diagnostic(
                    GUARD_NEVER,
                    f"guard {print_cof(br.guard)} never holds", c.pos))
            guards.append(g)

        for br, g in zip(c.tube, guards):
            ctx_b, ivs = ctx.restrict(g).bind_ivars(br.dirs)
            self.check(ctx_b, br.body, line_at(*ivs))

        self.check_system(ctx, c.tube, guards, line_at, c.pos)

        src = tuple(self._check_interval(ctx, r, c.pos) for r in c.source)
        tgt = tuple(self._check_interval(ctx, s, c.pos) for s in c.target)

        self.check(ctx, c.cap, line_at(*src))

        cap_v = eval_term(ctx.env, c.cap)
        for br, g in zip(c.tube, guards):
            ctx_r = ctx.restrict(g)
            br_at_src = eval_term(ctx_r.env.bind_ivars(br.dirs, src), br.body)
            if not convert(ctx_r, line_at(*src), br_at_src, cap_v):
                _fail(BOUNDARY,
                      "cap disagrees with a tube branch at the source tuple",
                      c.pos,
                      expected=print_term(quote(line_at(*src), br_at_src)),
                      actual=print_term(quote(line_at(*src), cap_v)))

        return line_at(*tgt)

    def check_system(self, ctx: Context, tube: tuple[Branch, ...], guards,
                     line_at, pos) -> None:
        """Branches of a system must agree on overlaps."""
        for i in range(len(tube)):
            for j in range(i + 1, len(tube)):
                rc = ctx.restrict(guards[i]).restrict(guards[j])
                # branch j's body sees the outer names, not branch i's binders
                ctx_ij, ivs = rc.bind_ivars(tube[i].dirs)
                vi = eval_term(ctx_ij.env, tube[i].body)
                vj = eval_term(rc.env.bind_ivars(tube[j].dirs, ivs),
                               tube[j].body)
                if not convert(ctx_ij, line_at(*ivs), vi, vj):
                    _fail(INCOMPATIBLE,
                          f"tube branches {i + 1} and {j + 1} disagree where "
                          f"{print_cof(tube[i].guard)} and "
                          f"{print_cof(tube[j].guard)} overlap", pos)


# ---------------------------------------------------------------------------
# declarations

class DeclReport:
    __slots__ = ("name", "status", "diagnostics")

    def __init__(self, name: str, status: str,
                 diagnostics: list[Diagnostic] | None = None):
        self.name, self.status = name, status  # status: "ok" | "error"
        self.diagnostics = [] if diagnostics is None else diagnostics

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "diagnostics": [d.to_json() for d in self.diagnostics]}


class Report:
    __slots__ = ("decls",)

    def __init__(self, decls: list[DeclReport] | None = None):
        self.decls = [] if decls is None else decls

    @property
    def ok(self) -> bool:
        return all(d.status == "ok" for d in self.decls)

    def to_json(self, file: str = "<input>") -> dict:
        return {"file": file, "decls": [d.to_json() for d in self.decls]}


class CheckedModule:
    __slots__ = ("report", "sig")

    def __init__(self, report: Report, sig: dict):
        self.report, self.sig = report, sig  # each declaration that checks


def check_module(decls: list[Decl], k_max: int = K_MAX) -> CheckedModule:
    """Check each declaration against those before it, writing each that
    checks into the signature; ``k_max`` bounds every stuck comp."""
    ctx = Context(env=Env(k_max=k_max))
    sig = ctx.env.sig
    report = Report()
    for d in decls:
        checker = Checker()
        dr = DeclReport(d.name, "ok")
        report.decls.append(dr)
        try:
            if d.name in sig:
                _fail(SYNTAX, f"duplicate declaration of {d.name!r}", d.pos)
            checker.check_is_type(ctx, d.ty)
            ty = eval_term(ctx.env, d.ty)
            if isinstance(d, Def):
                checker.check(ctx, d.body, ty)
                sig[d.name] = eval_term(ctx.env, d.body), ty
            else:  # a postulate is a variable under its declared name
                sig[d.name] = neutral_var(d.name, ty), ty
        except CheckError as e:
            dr.diagnostics.append(e.diag)
        except PermutationBoundExceeded as e:
            dr.diagnostics.append(Diagnostic(PERM_BOUND, str(e), d.pos))
        except KernelError as e:  # a kernel bug surfaced on user input
            dr.diagnostics.append(Diagnostic(
                INTERNAL, f"internal error: {e}", d.pos))
        if dr.diagnostics:
            dr.status = "error"
        dr.diagnostics.extend(checker.warnings)
    return CheckedModule(report, sig)
