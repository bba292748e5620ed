"""Decision procedures for the cofibration lattice.

A cofibration is a lattice formula over equations between interval variables
and the endpoints 0, 1.  Entailment works on a disjunctive normal form whose
conjuncts are congruence-closed with union-find; a conjunct is inconsistent
exactly when 0 and 1 end up merged.

A conjunction of equations carves out a representable sub-cube, and a map
from a representable into a union of subobjects factors through one of them,
so a conjunct entails a disjunction iff it entails a single disjunct.
"""

from __future__ import annotations

from .syntax import (BOT, TOP, CAnd, CBot, CEq, COr, CTop, Cof, Interval,
                     IVar, IZero, IOne, cof_vars, subst_cof)

# atoms are normalized ordered pairs of element keys
_K0 = (0,)
_K1 = (1,)


def _key(r: Interval):
    match r:
        case IZero():
            return _K0
        case IOne():
            return _K1
        case IVar(x):
            return (2, x)
    raise TypeError(r)


def _atom(l: Interval, r: Interval):
    a, b = _key(l), _key(r)
    return (a, b) if a <= b else (b, a)


Conjunct = frozenset  # of atoms
DNF = tuple  # of Conjuncts; () is bottom, (frozenset(),) is top


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        # the root of a class is its least member
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra


def closure(conj: Conjunct) -> UnionFind | None:
    """Congruence closure of a conjunct; None if it merges 0 and 1."""
    uf = UnionFind()
    uf.find(_K0)
    uf.find(_K1)
    for a, b in conj:
        uf.union(a, b)
    if uf.find(_K0) == uf.find(_K1):
        return None
    return uf


def to_dnf(phi: Cof) -> DNF:
    """Logically equivalent DNF; inconsistent conjuncts are dropped."""
    match phi:
        case CTop():
            return (frozenset(),)
        case CBot():
            return ()
        case CEq(l, r):
            a = _atom(l, r)
            if a[0] == a[1]:
                return (frozenset(),)
            conj = frozenset([a])
            return (conj,) if closure(conj) is not None else ()
        case COr(l, r):
            out = list(to_dnf(l))
            for c in to_dnf(r):
                if c not in out:
                    out.append(c)
            if frozenset() in out:
                return (frozenset(),)
            return tuple(out)
        case CAnd(l, r):
            out = []
            for c1 in to_dnf(l):
                for c2 in to_dnf(r):
                    c = c1 | c2
                    if closure(c) is not None and c not in out:
                        out.append(c)
            if frozenset() in out:
                return (frozenset(),)
            return tuple(out)
    raise TypeError(phi)


def _conjunct_entails(uf: UnionFind, goal: DNF) -> bool:
    # a consistent conjunct entails a disjunction iff it entails some disjunct
    for disj in goal:
        if all(uf.find(a) == uf.find(b) for a, b in disj):
            return True
    return False


def entails(hyps: list[Cof] | tuple[Cof, ...], goal: Cof) -> bool:
    """True iff every consistent conjunct of the conjoined hypotheses
    entails the goal."""
    hyp: Cof = TOP
    for h in hyps:
        hyp = CAnd(hyp, h)
    goal_dnf = to_dnf(goal)
    for conj in to_dnf(hyp):
        uf = closure(conj)
        if uf is None:
            continue
        if not _conjunct_entails(uf, goal_dnf):
            return False
    return True


def satisfiable_with(hyps, phi: Cof) -> bool:
    """Is ``phi`` consistent together with the hypotheses?"""
    return not entails(list(hyps) + [phi], BOT)


def interval_eq(hyps, r: Interval, s: Interval) -> bool:
    """Interval equality under hypotheses."""
    if r == s:
        return True
    return entails(hyps, CEq(r, s))


__all__ = ["to_dnf", "entails", "satisfiable_with", "interval_eq",
           "subst_cof", "cof_vars", "closure"]
