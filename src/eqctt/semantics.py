"""Normalization by evaluation.

Values are weak-head normal; binders become Python closures capturing an
``Env``.  Readback is type-directed and eta-long for Pi, Sigma and Path.
A stuck comp is read back the first time its term is read, not when it is
built, and kept as a canonical member of its Sigma_k orbit: the least
readback under a fixed total term order, found by sorting the directions by
a Sigma_k-invariant signature and searching only the groups of tied
directions that are not symmetric.  Sigma_k acts on the readback by
permuting the binder tuples and the source and target tuples.  This turns
the equivariance equations into definitional laws.

Conversion decides whether the readbacks of two values have equal keys.
``term_key`` keys a system as the partial element it denotes, so the keys
decide equality of systems too.  It compares values, in the readback's own
order: both sides are applied to one fresh variable or interval, and only
neutrals are compared as syntax, their stuck comps by key.  A restricted
context is split into the DNF conjuncts of its restrictions, and under each
one both values are read back, evaluated again under the interval
identifications it forces, and compared.  Two rules skip work that cannot
change the answer: a value converts with itself at once (reflexivity), and
a conjunct's environment reindexes only the types bound after the first
interval variable it moves, since a type mentions only variables bound
before it (the suffix rule).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Optional

from . import cof
from .config import CONFIG
from .syntax import (Branch, Cof, Comp, Fst, I0, I1, IVar, Interval, Lam,
                     Let, Pair, PApp, PathT, Pi, PLam, Sigma, Snd, Term, U,
                     Var, App, alpha_eq, fresh, subst_cof,
                     subst_interval, interval_key, term_key)


class KernelError(Exception):
    """Internal invariant violation (a kernel bug, not a user error)."""


class PermutationBoundExceeded(Exception):
    def __init__(self, k: int, bound: int):
        super().__init__(
            f"stuck comp of dimension {k} exceeds permutation bound {bound}")
        self.k = k
        self.bound = bound


# ---------------------------------------------------------------------------
# values

class VPi:
    __slots__ = __match_args__ = ("dom", "cod", "hint")

    def __init__(self, dom: Value, cod: Callable[[Value], Value],
                 hint: str = "x"):
        self.dom, self.cod, self.hint = dom, cod, hint


class VSigma:
    __slots__ = __match_args__ = ("dom", "cod", "hint")

    def __init__(self, dom: Value, cod: Callable[[Value], Value],
                 hint: str = "x"):
        self.dom, self.cod, self.hint = dom, cod, hint


class VPathT:
    __slots__ = __match_args__ = ("line", "left", "right", "hint")

    def __init__(self, line: Callable[[Interval], Value], left: Value,
                 right: Value, hint: str = "i"):
        self.line, self.left, self.right, self.hint = line, left, right, hint


class VLam:
    __slots__ = __match_args__ = ("fn", "hint")

    def __init__(self, fn: Callable[[Value], Value], hint: str = "x"):
        self.fn, self.hint = fn, hint


class VPair:
    __slots__ = __match_args__ = ("fst", "snd")

    def __init__(self, fst: Value, snd: Value):
        self.fst, self.snd = fst, snd


class VPLam:
    __slots__ = __match_args__ = ("fn", "hint")

    def __init__(self, fn: Callable[[Interval], Value], hint: str = "i"):
        self.fn, self.hint = fn, hint


class VU:
    __slots__ = __match_args__ = ("level",)

    def __init__(self, level: int):
        self.level = level


class VNe:
    __slots__ = __match_args__ = ("ne", "ty")

    def __init__(self, ne: Ne, ty: Optional[Value]):
        self.ne, self.ty = ne, ty


Value = VPi | VSigma | VPathT | VLam | VPair | VPLam | VU | VNe


class NVar:
    __slots__ = __match_args__ = ("name", "ty")

    def __init__(self, name: str, ty: Optional[Value]):
        self.name, self.ty = name, ty


class NApp:
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Ne, arg: Value):
        self.fn, self.arg = fn, arg


class NFst:
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Ne):
        self.arg = arg


class NSnd:
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Ne):
        self.arg = arg


class NPApp:
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: Ne, arg: Interval):
        self.fn, self.arg = fn, arg


class NComp:
    """A stuck comp and its type (the line at the target tuple).  ``term``,
    the least readback of its Sigma_k orbit, is made by ``read`` the first
    time it is read, and kept."""
    __match_args__ = ("term", "ty")

    def __init__(self, read: Callable[[], Comp], ty: Value):
        self.read, self.ty = read, ty

    @cached_property
    def term(self) -> Comp:
        term, self.read = self.read(), None  # let go of the closures
        return term


Ne = NVar | NApp | NFst | NSnd | NPApp | NComp


def neutral_var(name: str, ty: Optional[Value]) -> VNe:
    return VNe(NVar(name, ty), ty)


# ---------------------------------------------------------------------------
# environments and contexts

class Env:
    __slots__ = ("terms", "ivals", "hyps")

    def __init__(self, terms: dict[str, Value] | None = None,
                 ivals: dict[str, Interval] | None = None,
                 hyps: tuple[Cof, ...] = ()):
        self.terms = {} if terms is None else terms
        self.ivals = {} if ivals is None else ivals
        self.hyps = hyps

    def bind_term(self, x: str, v: Value) -> "Env":
        return Env({**self.terms, x: v}, self.ivals, self.hyps)

    def bind_ivars(self, xs: tuple[str, ...], rs: tuple[Interval, ...]) -> "Env":
        return Env(self.terms, {**self.ivals, **dict(zip(xs, rs))}, self.hyps)

    def with_hyp(self, phi: Cof) -> "Env":
        return Env(self.terms, self.ivals, self.hyps + (phi,))


class TermBind:
    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: Value):
        self.name, self.ty = name, ty


class IntervalBind:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CofRestriction:
    __slots__ = ("cof",)

    def __init__(self, cof: Cof):
        self.cof = cof


Entry = TermBind | IntervalBind | CofRestriction


class Context:
    """Telescope of semantic bindings and restrictions."""
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Entry, ...] = ()):
        self.entries = entries

    @property
    def hyps(self) -> tuple[Cof, ...]:
        return tuple(e.cof for e in self.entries if isinstance(e, CofRestriction))

    def bind_term(self, hint: str, ty: Value) -> tuple["Context", VNe]:
        x = fresh(hint)
        v = neutral_var(x, ty)
        return Context(self.entries + (TermBind(x, ty),)), v

    def bind_ivar(self, hint: str) -> tuple["Context", IVar]:
        x = fresh(hint)
        return Context(self.entries + (IntervalBind(x),)), IVar(x)

    def restrict(self, phi: Cof) -> "Context":
        return Context(self.entries + (CofRestriction(phi),))

    def env(self, assign: dict[str, Interval] | None = None) -> Env:
        """The evaluation environment of the telescope.

        With ``assign``, interval variables are sent through the given
        substitution and the types of term variables are reindexed along it.
        A type mentions only variables bound before it, so only the types
        after the first interval variable that ``assign`` moves are
        reindexed; every earlier one is kept as it is.
        """
        assign = assign or {}
        terms: dict[str, Value] = {}
        ivals: dict[str, Interval] = {}
        hyps: list[Cof] = []
        moved = False
        for e in self.entries:
            if isinstance(e, IntervalBind):
                iv = IVar(e.name)
                ivals[e.name] = assign.get(e.name, iv)
                moved = moved or ivals[e.name] != iv
            elif isinstance(e, TermBind):
                ty = e.ty
                if moved:
                    ty = eval_term(Env(dict(terms), dict(ivals), tuple(hyps)),
                                   quote_type(ty))
                terms[e.name] = neutral_var(e.name, ty)
            else:
                hyps.append(subst_cof(e.cof, assign) if assign else e.cof)
        return Env(terms, ivals, tuple(hyps))


# ---------------------------------------------------------------------------
# eliminators

def do_app(f: Value, a: Value) -> Value:
    match f:
        case VLam(fn, _):
            return fn(a)
        case VNe(ne, VPi(dom, cod, _) as ty):
            return VNe(NApp(ne, a), cod(a))
        case VNe(ne, ty):
            return VNe(NApp(ne, a), None)
    raise KernelError(f"cannot apply non-function value {f!r}")


def do_fst(p: Value) -> Value:
    match p:
        case VPair(a, _):
            return a
        case VNe(ne, VSigma(dom, _, _)):
            return VNe(NFst(ne), dom)
        case VNe(ne, _):
            return VNe(NFst(ne), None)
    raise KernelError(f"cannot project from {p!r}")


def do_snd(p: Value) -> Value:
    match p:
        case VPair(_, b):
            return b
        case VNe(ne, VSigma(dom, cod, _)):
            return VNe(NSnd(ne), cod(do_fst(p)))
        case VNe(ne, _):
            return VNe(NSnd(ne), None)
    raise KernelError(f"cannot project from {p!r}")


def do_papp(p: Value, r: Interval) -> Value:
    match p:
        case VPLam(fn, _):
            return fn(r)
        case VNe(ne, VPathT(line, left, right, _)):
            if r == I0:
                return left
            if r == I1:
                return right
            return VNe(NPApp(ne, r), line(r))
        case VNe(ne, _):
            return VNe(NPApp(ne, r), None)
    raise KernelError(f"cannot apply path value {p!r}")


# ---------------------------------------------------------------------------
# evaluation

def eval_interval(env: Env, r: Interval) -> Interval:
    return subst_interval(r, env.ivals)


def eval_cof(env: Env, phi: Cof) -> Cof:
    return subst_cof(phi, env.ivals)


def eval_term(env: Env, t: Term) -> Value:
    match t:
        case Var(x):
            try:
                return env.terms[x]
            except KeyError:
                raise KernelError(f"unbound variable {x!r} during evaluation")
        case U(n):
            return VU(n)
        case Pi(x, a, b):
            return VPi(eval_term(env, a),
                       lambda v: eval_term(env.bind_term(x, v), b), hint=x)
        case Sigma(x, a, b):
            return VSigma(eval_term(env, a),
                          lambda v: eval_term(env.bind_term(x, v), b), hint=x)
        case Lam(x, e):
            return VLam(lambda v: eval_term(env.bind_term(x, v), e), hint=x)
        case App(f, a):
            return do_app(eval_term(env, f), eval_term(env, a))
        case Pair(a, b):
            return VPair(eval_term(env, a), eval_term(env, b))
        case Fst(a):
            return do_fst(eval_term(env, a))
        case Snd(a):
            return do_snd(eval_term(env, a))
        case PathT(i, l, a, b):
            return VPathT(lambda r: eval_term(env.bind_ivars((i,), (r,)), l),
                          eval_term(env, a), eval_term(env, b), hint=i)
        case PLam(i, e):
            return VPLam(lambda r: eval_term(env.bind_ivars((i,), (r,)), e),
                         hint=i)
        case PApp(f, r):
            return do_papp(eval_term(env, f), eval_interval(env, r))
        case Let(x, _, bound, body):
            return eval_term(env.bind_term(x, eval_term(env, bound)), body)
        case Comp(dirs, line, src, tgt, tube, cap):
            def line_cl(*ivs, _line=line, _dirs=dirs):
                return eval_term(env.bind_ivars(_dirs, ivs), _line)

            tube_cl = []
            for br in tube:
                def body_cl(*ivs, _b=br):
                    return eval_term(env.bind_ivars(_b.dirs, ivs), _b.body)
                tube_cl.append((eval_cof(env, br.guard), body_cl))
            problem = kan.CompProblem(
                dirs=dirs,
                line=line_cl,
                source=tuple(eval_interval(env, r) for r in src),
                target=tuple(eval_interval(env, r) for r in tgt),
                tube=tuple(tube_cl),
                cap=eval_term(env, cap))
            return kan.comp_eval(problem, env.hyps)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# readback

def quote(ty: Value, v: Value) -> Term:
    """Type-directed, eta-long readback."""
    match ty:
        case VPi(dom, cod, hint):
            x = fresh(hint)
            xv = neutral_var(x, dom)
            return Lam(x, quote(cod(xv), do_app(v, xv)))
        case VSigma(dom, cod, _):
            a = do_fst(v)
            return Pair(quote(dom, a), quote(cod(a), do_snd(v)))
        case VPathT(line, _, _, hint):
            i = fresh(hint)
            iv = IVar(i)
            return PLam(i, quote(line(iv), do_papp(v, iv)))
        case VU(_):
            return quote_type(v)
        case VNe(_, _):
            if isinstance(v, VNe):
                return quote_ne(v.ne)[0]
            raise KernelError(f"non-neutral value {v!r} at neutral type")
        case None:
            pass
    if isinstance(v, VNe):
        return quote_ne(v.ne)[0]
    raise KernelError(f"cannot quote {v!r} at type {ty!r}")


def quote_type(v: Value) -> Term:
    match v:
        case VU(n):
            return U(n)
        case VPi(dom, cod, hint):
            x = fresh(hint)
            return Pi(x, quote_type(dom), quote_type(cod(neutral_var(x, dom))))
        case VSigma(dom, cod, hint):
            x = fresh(hint)
            return Sigma(x, quote_type(dom), quote_type(cod(neutral_var(x, dom))))
        case VPathT(line, left, right, hint):
            i = fresh(hint)
            return PathT(i, quote_type(line(IVar(i))),
                         quote(line(I0), left), quote(line(I1), right))
        case VNe(ne, _):
            return quote_ne(ne)[0]
    raise KernelError(f"value is not a type: {v!r}")


def quote_ne(ne: Ne) -> tuple[Term, Optional[Value]]:
    """Readback of a neutral, synthesizing its type along the spine."""
    match ne:
        case NVar(x, ty):
            return Var(x), ty
        case NApp(fn, arg):
            t, ty = quote_ne(fn)
            if not isinstance(ty, VPi):
                raise KernelError("application head is not a Pi")
            return App(t, quote(ty.dom, arg)), ty.cod(arg)
        case NFst(inner):
            t, ty = quote_ne(inner)
            if not isinstance(ty, VSigma):
                raise KernelError("projection head is not a Sigma")
            return Fst(t), ty.dom
        case NSnd(inner):
            t, ty = quote_ne(inner)
            if not isinstance(ty, VSigma):
                raise KernelError("projection head is not a Sigma")
            return Snd(t), ty.cod(do_fst(VNe(inner, ty)))
        case NPApp(fn, r):
            t, ty = quote_ne(fn)
            if not isinstance(ty, VPathT):
                raise KernelError("path application head is not a Path")
            return PApp(t, r), ty.line(r)
        case NComp(term, ty):
            return term, ty
    raise TypeError(ne)


def quote_ncomp(dirs, line, source, target, tube, cap) -> Comp:
    """Readback of a comp given by closures over its directions."""
    names = tuple(fresh(d) for d in dirs)
    line_t = quote_type(line(*(IVar(n) for n in names)))
    tube_t = []
    for g, u in tube:
        bnames = tuple(fresh(d) for d in dirs)
        bivs = tuple(IVar(n) for n in bnames)
        tube_t.append(Branch(g, bnames, quote(line(*bivs), u(*bivs))))
    cap_t = quote(line(*source), cap)
    return Comp(names, line_t, source, target, tuple(tube_t), cap_t)


# ---------------------------------------------------------------------------
# stuck comps and canonicalization

def _apply_perm(perm: tuple[int, ...], xs: tuple) -> tuple:
    return tuple(xs[p] for p in perm)


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def sigma_transform(c: Comp, perm: tuple[int, ...]) -> Comp:
    """The Sigma_k action on syntax, direction m becoming direction perm[m]:
    the binder tuples of the line and of every branch, and the source and
    target tuples, are permuted by the inverse; bodies keep their names."""
    inv = _invert(perm)
    tube = tuple(Branch(b.guard, _apply_perm(inv, b.dirs), b.body)
                 for b in c.tube)
    return Comp(_apply_perm(inv, c.dirs), c.line, _apply_perm(inv, c.source),
                _apply_perm(inv, c.target), tube, c.cap)


def canonicalize_stuck_comp(c: Comp) -> Comp:
    """Least representative of the Sigma_k orbit under the total term order.

    The signature of direction m is the key of the line with m marked 0 and
    the other directions 1, then m's source and target.  It names no
    binder, so it is Sigma_k-invariant.  The directions are sorted by
    signature and only groups of equal signatures are searched: every
    ordering of a group, or one when exchanging adjacent members leaves the
    comp's key as it is, since those exchanges generate all orderings of the
    group.  When no cofibration in the line mentions a direction, the result
    is the least of all k! readbacks; otherwise it is still the same for
    every member of the orbit.  Idempotent; of equal candidates the first
    found wins.
    """
    k = len(c.dirs)
    if k > CONFIG.k_max:
        raise PermutationBoundExceeded(k, CONFIG.k_max)
    if k == 1:
        return c

    def signature(m: int):
        marks = {d: int(j != m) for j, d in enumerate(c.dirs)}
        return (term_key(c.line, marks, k), interval_key(c.source[m]),
                interval_key(c.target[m]))

    sigs = [signature(m) for m in range(k)]
    groups = [tuple(g) for _, g in itertools.groupby(
        sorted(range(k), key=sigs.__getitem__), key=sigs.__getitem__)]
    key = term_key(c) if len(groups) < k else None

    def symmetric(g: tuple[int, ...]) -> bool:
        for a, b in zip(g, g[1:]):
            swap = list(range(k))
            swap[a], swap[b] = b, a
            if term_key(sigma_transform(c, tuple(swap))) != key:
                return False
        return True

    choices = [(g,) if len(g) == 1 or symmetric(g) else itertools.permutations(g)
               for g in groups]
    return min((sigma_transform(c, _invert(sum(seq, ())))
                for seq in itertools.product(*choices)), key=term_key)


def make_stuck(dirs, line, source, target, tube, cap, hyps) -> VNe:
    """A stuck comp, read back the first time its term is read.  The bound
    on k is checked here, when the comp is built."""
    if len(dirs) > CONFIG.k_max:
        raise PermutationBoundExceeded(len(dirs), CONFIG.k_max)

    def read() -> Comp:
        # branches whose guard is inconsistent with the restrictions are
        # pruned, and the readback is the least member of its orbit
        live = tuple((g, u) for g, u in tube if cof.satisfiable_with(hyps, g))
        return canonicalize_stuck_comp(
            quote_ncomp(dirs, line, source, target, live, cap))

    ty = line(*target)
    return VNe(NComp(read, ty), ty)


# ---------------------------------------------------------------------------
# conversion

# conversion's one comparison: equal term keys
terms_equal = alpha_eq


def values_equal(ty: Value, v1: Value, v2: Value) -> bool:
    """Do the readbacks of ``v1`` and ``v2`` at ``ty`` have equal keys?

    Compares in the readback's own order: at a Pi or Path type both sides
    are applied to one fresh variable or interval, pairs are compared
    component by component, and only neutrals, stuck comps among them, are
    read back and keyed.  Anything else is read back whole, which raises
    where ``quote`` would."""
    if v1 is v2:
        return True
    match ty:
        case VPi(dom, cod, hint):
            xv = neutral_var(fresh(hint), dom)
            return values_equal(cod(xv), do_app(v1, xv), do_app(v2, xv))
        case VSigma(dom, cod, _):
            a1 = do_fst(v1)
            return (values_equal(dom, a1, do_fst(v2))
                    and values_equal(cod(a1), do_snd(v1), do_snd(v2)))
        case VPathT(line, _, _, hint):
            iv = IVar(fresh(hint))
            return values_equal(line(iv), do_papp(v1, iv), do_papp(v2, iv))
        case VU(_):
            return types_equal(v1, v2)
    if isinstance(v1, VNe) and isinstance(v2, VNe):
        return neutrals_equal(v1.ne, v2.ne)[0]
    return terms_equal(quote(ty, v1), quote(ty, v2))


def types_equal(a: Value, b: Value) -> bool:
    """``values_equal`` at a universe, in the order of ``quote_type``."""
    if a is b:
        return True
    match a:
        case VU(n) if isinstance(b, VU):
            return n == b.level
        case (VPi(dom, cod, hint) | VSigma(dom, cod, hint)) if type(b) is type(a):
            if not types_equal(dom, b.dom):
                return False
            xv = neutral_var(fresh(hint), dom)
            return types_equal(cod(xv), b.cod(xv))
        case VPathT(line, left, right, hint) if isinstance(b, VPathT):
            iv = IVar(fresh(hint))
            return (types_equal(line(iv), b.line(iv))
                    and values_equal(line(I0), left, b.left)
                    and values_equal(line(I1), right, b.right))
        case VNe(ne, _) if isinstance(b, VNe):
            return neutrals_equal(ne, b.ne)[0]
    return terms_equal(quote_type(a), quote_type(b))


def neutrals_equal(n1: Ne, n2: Ne) -> tuple[bool, Optional[Value]]:
    """``values_equal`` of two neutrals, in the order of ``quote_ne``: the
    heads, then each eliminator outwards; with the type of ``n1`` that
    ``quote_ne`` synthesizes.  Only stuck comps are read back and keyed."""
    match n1:
        case NVar(x, ty):
            return isinstance(n2, NVar) and n2.name == x, ty
        case NApp(fn, arg) if isinstance(n2, NApp):
            eq, ty = neutrals_equal(fn, n2.fn)
            if not eq:
                return False, None
            if not isinstance(ty, VPi):
                raise KernelError("application head is not a Pi")
            return values_equal(ty.dom, arg, n2.arg), ty.cod(arg)
        case NFst(inner) if isinstance(n2, NFst):
            eq, ty = neutrals_equal(inner, n2.arg)
            if not eq:
                return False, None
            if not isinstance(ty, VSigma):
                raise KernelError("projection head is not a Sigma")
            return True, ty.dom
        case NSnd(inner) if isinstance(n2, NSnd):
            eq, ty = neutrals_equal(inner, n2.arg)
            if not eq:
                return False, None
            if not isinstance(ty, VSigma):
                raise KernelError("projection head is not a Sigma")
            return True, ty.cod(do_fst(VNe(inner, ty)))
        case NPApp(fn, r) if isinstance(n2, NPApp):
            eq, ty = neutrals_equal(fn, n2.fn)
            if not eq:
                return False, None
            if not isinstance(ty, VPathT):
                raise KernelError("path application head is not a Path")
            return r == n2.arg, ty.line(r)
        case NComp() if isinstance(n2, NComp):  # read both only here
            return terms_equal(n1.term, n2.term), n1.ty
    return False, None


def convert(ctx: Context, ty: Value, v1: Value, v2: Value) -> bool:
    """Definitional equality under the context's restrictions: for each DNF
    conjunct of the restrictions, the readbacks under the interval
    assignment it forces have equal keys.  A value converts with itself
    at once, by reflexivity.  When nothing is restricted the values are
    compared as their first readbacks would be (``values_equal``), since
    normalization is idempotent."""
    if v1 is v2:
        return True
    dnf = cof.conjoin(ctx.hyps)
    if dnf == ():
        return True  # inconsistent restriction: everything converts
    if dnf == (frozenset(),):
        return values_equal(ty, v1, v2)
    t1, t2 = quote(ty, v1), quote(ty, v2)
    ty_t = quote_type(ty)
    for conj in dnf:
        env = ctx.env(cof.assignment(conj))
        if not values_equal(eval_term(env, ty_t), eval_term(env, t1),
                            eval_term(env, t2)):
            return False
    return True


# kan imports this module's names, so it is imported once they are defined
from . import kan  # noqa: E402
