"""Abstract syntax for the kernel language.

Terms, interval expressions and cofibrations are immutable trees.  Bound
variables are plain names; comparison renames binders on the fly, so
shadowing in the input is harmless.  Generated names contain a ``%`` which the lexer rejects, keeping
them disjoint from anything a source file can mention.

Interval expressions and cofibrations compare and hash by value: an
instance equals another of its own class with equal fields, and hashes as
the tuple of its fields.  Terms compare by identity.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

Pos = tuple[int, int]  # (line, column), 1-based


class _Nullary:
    """A constant: equal to every instance of its own class."""
    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())


# ---------------------------------------------------------------------------
# interval expressions

class IVar:
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"IVar({self.name})"


class IZero(_Nullary):
    __slots__ = ()

    def __repr__(self):
        return "I0"


class IOne(_Nullary):
    __slots__ = ()

    def __repr__(self):
        return "I1"


I0 = IZero()
I1 = IOne()

Interval = IVar | IZero | IOne


def subst_interval(r: Interval, ivars: dict[str, Interval]) -> Interval:
    if isinstance(r, IVar) and r.name in ivars:
        return ivars[r.name]
    return r


def interval_vars(r: Interval) -> set[str]:
    return {r.name} if isinstance(r, IVar) else set()


# ---------------------------------------------------------------------------
# cofibrations

class _Formula:
    @cached_property
    def dnf(self):
        """The formula's DNF (``cof.to_dnf``), computed once."""
        return cof.dnf_of(self)


class CTop(_Nullary, _Formula):
    pass


class CBot(_Nullary, _Formula):
    pass


class _Binary(_Formula):
    """Two sides: intervals for ``CEq``, cofibrations for ``CAnd`` and
    ``COr``."""
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = lhs, rhs

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lhs, self.rhs) == (other.lhs, other.rhs)
        return NotImplemented

    def __hash__(self):
        return hash((self.lhs, self.rhs))


class CEq(_Binary):
    pass


class CAnd(_Binary):
    pass


class COr(_Binary):
    pass


Cof = CTop | CBot | CEq | CAnd | COr

TOP = CTop()
BOT = CBot()


def subst_cof(phi: Cof, ivars: dict[str, Interval]) -> Cof:
    """``phi`` with ``ivars`` substituted; ``phi`` itself, and so its kept
    DNF, when no atom changes."""
    match phi:
        case CTop() | CBot():
            return phi
        case CEq(l, r):
            l2, r2 = subst_interval(l, ivars), subst_interval(r, ivars)
            return phi if l2 == l and r2 == r else CEq(l2, r2)
        case CAnd(l, r) | COr(l, r):
            l2, r2 = subst_cof(l, ivars), subst_cof(r, ivars)
            return phi if l2 is l and r2 is r else type(phi)(l2, r2)
    raise TypeError(phi)


def cof_vars(phi: Cof) -> set[str]:
    match phi:
        case CTop() | CBot():
            return set()
        case CEq(l, r):
            return interval_vars(l) | interval_vars(r)
        case CAnd(l, r) | COr(l, r):
            return cof_vars(l) | cof_vars(r)
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# terms

class Term:
    pos: Optional[Pos] = None  # where the parser found it; see ``at``

    def at(self, pos: Optional[Pos]) -> "Term":
        self.pos = pos
        return self


class Var(Term):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Pi(Term):
    __match_args__ = ("binder", "dom", "cod")

    def __init__(self, binder: str, dom: Term, cod: Term):
        self.binder, self.dom, self.cod = binder, dom, cod


class Lam(Term):
    __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        self.binder, self.body = binder, body


class App(Term):
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn, self.arg = fn, arg


class Sigma(Term):
    __match_args__ = ("binder", "fst_ty", "snd_ty")

    def __init__(self, binder: str, fst_ty: Term, snd_ty: Term):
        self.binder, self.fst_ty, self.snd_ty = binder, fst_ty, snd_ty


class Pair(Term):
    __match_args__ = ("fst", "snd")

    def __init__(self, fst: Term, snd: Term):
        self.fst, self.snd = fst, snd


class Fst(Term):
    __match_args__ = ("arg",)

    def __init__(self, arg: Term):
        self.arg = arg


class Snd(Term):
    __match_args__ = ("arg",)

    def __init__(self, arg: Term):
        self.arg = arg


class PathT(Term):
    __match_args__ = ("binder", "line", "left", "right")

    def __init__(self, binder: str, line: Term, left: Term, right: Term):
        self.binder, self.line, self.left, self.right = binder, line, left, right


class PLam(Term):
    __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        self.binder, self.body = binder, body


class PApp(Term):
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Interval):
        self.fn, self.arg = fn, arg


class U(Term):
    __match_args__ = ("level",)

    def __init__(self, level: int):
        self.level = level


class Branch:
    """One tube branch ``guard -> dirs. body``; binds the comp's directions."""
    __slots__ = ("guard", "dirs", "body")

    def __init__(self, guard: Cof, dirs: tuple[str, ...], body: Term):
        self.guard, self.dirs, self.body = guard, dirs, body


class Comp(Term):
    """k-ary composition ``comp^k (dirs. line) [tube] cap : source ~> target``."""
    __match_args__ = ("dirs", "line", "source", "target", "tube", "cap")

    def __init__(self, dirs: tuple[str, ...], line: Term,
                 source: tuple[Interval, ...], target: tuple[Interval, ...],
                 tube: tuple[Branch, ...], cap: Term):
        self.dirs, self.line, self.source = dirs, line, source
        self.target, self.tube, self.cap = target, tube, cap


class Let(Term):
    __match_args__ = ("binder", "ann", "bound", "body")

    def __init__(self, binder: str, ann: Term, bound: Term, body: Term):
        self.binder, self.ann, self.bound, self.body = binder, ann, bound, body


# declarations

class Def:
    __slots__ = ("name", "ty", "body", "pos")

    def __init__(self, name: str, ty: Term, body: Term,
                 pos: Optional[Pos] = None):
        self.name, self.ty, self.body, self.pos = name, ty, body, pos


class Postulate:
    __slots__ = ("name", "ty", "pos")

    def __init__(self, name: str, ty: Term, pos: Optional[Pos] = None):
        self.name, self.ty, self.pos = name, ty, pos


Decl = Def | Postulate


# ---------------------------------------------------------------------------
# fresh names

_counter = itertools.count()


def fresh(hint: str = "x") -> str:
    """A name no source file can contain (the lexer rejects '%')."""
    base = hint.split("%")[0] or "x"
    return f"{base}%{next(_counter)}"


# ---------------------------------------------------------------------------
# free variables

def free_vars(t: Term) -> set[str]:
    """Free term variables."""
    match t:
        case Var(x):
            return {x}
        case Pi(x, a, b) | Sigma(x, a, b):
            return free_vars(a) | (free_vars(b) - {x})
        case Lam(x, e):
            return free_vars(e) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Pair(a, b):
            return free_vars(a) | free_vars(b)
        case Fst(a) | Snd(a):
            return free_vars(a)
        case PathT(_, l, a, b):
            return free_vars(l) | free_vars(a) | free_vars(b)
        case PLam(_, e):
            return free_vars(e)
        case PApp(f, _):
            return free_vars(f)
        case U(_):
            return set()
        case Comp(_, line, _, _, tube, cap):
            out = free_vars(line) | free_vars(cap)
            for br in tube:
                out |= free_vars(br.body)
            return out
        case Let(x, ann, bound, body):
            return free_vars(ann) | free_vars(bound) | (free_vars(body) - {x})
    raise TypeError(t)


def free_ivars(t: Term) -> set[str]:
    """Free interval variables."""
    match t:
        case Var(_) | U(_):
            return set()
        case Pi(_, a, b) | Sigma(_, a, b):
            return free_ivars(a) | free_ivars(b)
        case Lam(_, e):
            return free_ivars(e)
        case App(f, a) | Pair(f, a):
            return free_ivars(f) | free_ivars(a)
        case Fst(a) | Snd(a):
            return free_ivars(a)
        case PathT(i, l, a, b):
            return (free_ivars(l) - {i}) | free_ivars(a) | free_ivars(b)
        case PLam(i, e):
            return free_ivars(e) - {i}
        case PApp(f, r):
            return free_ivars(f) | interval_vars(r)
        case Comp(dirs, line, src, tgt, tube, cap):
            out = free_ivars(line) - set(dirs)
            for r in src + tgt:
                out |= interval_vars(r)
            for br in tube:
                out |= cof_vars(br.guard)
                out |= free_ivars(br.body) - set(br.dirs)
            return out | free_ivars(cap)
        case Let(_, ann, bound, body):
            return free_ivars(ann) | free_ivars(bound) | free_ivars(body)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# alpha equality and a total order on terms

def interval_key(r: Interval, env: dict[str, int] | None = None):
    """The key of an interval in ``term_key``: 0 < 1 < variables bound at
    the levels ``env`` gives them < free variables by name."""
    match r:
        case IZero():
            return (0,)
        case IOne():
            return (1,)
        case IVar(x):
            if env and x in env:
                return (2, env[x])
            return (3, x)
    raise TypeError(r)


def _under(env: dict[str, int], depth: int, names: tuple[str, ...]):
    """The key environment and depth inside binders of ``names``."""
    env = dict(env)
    for n in names:
        env[n] = depth
        depth += 1
    return env, depth


def term_key(t: Term, _env: dict[str, int] | None = None, _depth: int = 0,
             _ident: dict | None = None):
    """A nested-tuple key: alpha-invariant, totally ordered, hashable.  It
    is the kernel's one notion of syntactic equality: conversion compares
    keys, and the least key picks the canonical representative of a stuck
    comp's Sigma_k orbit.

    Binders are numbered by depth (de Bruijn levels), so alpha-equal terms
    get equal keys.  ``_ident`` sends an interval key to the key of its
    class representative under the guards of the enclosing branches, and a
    system is keyed as the partial element it denotes (``_system_key``).
    """
    env = {} if _env is None else _env
    ident = {} if _ident is None else _ident

    def key(u: Term, names: tuple[str, ...] = ()):
        """The key of u inside binders of ``names``."""
        e, d = _under(env, _depth, names) if names else (env, _depth)
        return term_key(u, e, d, ident)

    def ikey(r: Interval):
        k = interval_key(r, env)
        return ident.get(k, k)

    match t:
        case Var(x):
            return ("b", env[x]) if x in env else ("v", x)
        case Pi(x, a, b):
            return ("pi", key(a), key(b, (x,)))
        case Sigma(x, a, b):
            return ("sg", key(a), key(b, (x,)))
        case Lam(x, e):
            return ("lam", key(e, (x,)))
        case App(f, a):
            return ("app", key(f), key(a))
        case Pair(a, b):
            return ("pr", key(a), key(b))
        case Fst(a):
            return ("p1", key(a))
        case Snd(a):
            return ("p2", key(a))
        case PathT(i, l, a, b):
            return ("pt", key(l, (i,)), key(a), key(b))
        case PLam(i, e):
            return ("plam", key(e, (i,)))
        case PApp(f, r):
            return ("papp", key(f), ikey(r))
        case U(n):
            return ("u", n)
        case Comp(dirs, line, src, tgt, tube, cap):
            return ("comp", len(dirs), key(line, dirs),
                    tuple(map(ikey, src)), tuple(map(ikey, tgt)),
                    _system_key(tube, env, _depth, ident), key(cap))
        case Let(x, ann, bound, body):
            return ("let", key(ann), key(bound), key(body, (x,)))
    raise TypeError(t)


def _system_key(tube: tuple[Branch, ...], env: dict[str, int], depth: int,
                ident: dict):
    """A system as the partial element it denotes: the sorted set of
    (conjunct key, body key) pairs.

    Each guard is split into its DNF conjuncts, read with the enclosing
    identifications applied, so a conjunct that is dead under the enclosing
    guards drops out.  A conjunct is keyed by the identifications it forces:
    each member of a class paired with the class representative, its least
    key (0 < 1 < bound < free).  A conjunct that entails another conjunct of
    the system, and is not entailed by it, drops out.  A body is keyed with
    every identified interval keyed as its representative.
    """
    def element(k):  # a key of ``cof`` re-keyed if its variable is bound
        if k[0] == 3 and k[1] in env:
            k = (2, env[k[1]])
        return ident.get(k, k)

    conjuncts = []
    for br in tube:
        for conj in cof.to_dnf(br.guard):
            rep = cof.close((element(a), element(b)) for a, b in conj)
            if rep is not None:
                conjuncts.append((rep, br))

    out = set()
    for rep, br in conjuncts:
        if any(r2 != rep and cof.holds(rep, r2.items())
               for r2, _ in conjuncts):
            continue
        inner = {k: rep.get(v, v) for k, v in ident.items()}
        inner.update(rep)
        out.add((tuple(sorted(rep.items())),
                 term_key(br.body, *_under(env, depth, br.dirs), inner)))
    return tuple(sorted(out))


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equal keys: equality up to renaming of bound variables, with each
    system compared as the partial element it denotes."""
    return term_key(t1) == term_key(t2)


# cof imports this module's names, so it is imported once they are defined
from . import cof  # noqa: E402
