"""Decision procedures for the cofibration lattice.

A cofibration is a lattice formula over equations between interval variables
and the endpoints 0, 1.  Entailment works on a disjunctive normal form whose
conjuncts are stored closed: a conjunct is the partition of interval keys
its equations generate, written as the atoms (least member of a class,
other member).  So equal partitions are equal conjuncts, ``frozenset()`` is
top, and a conjunct that merges 0 and 1 is dropped.  Each formula keeps its
DNF once computed.

A conjunction of equations carves out a representable sub-cube, and a map
from a representable into a union of subobjects factors through one of them,
so a conjunct entails a disjunction iff it entails a single disjunct.
"""

from __future__ import annotations

from .syntax import (BOT, CAnd, CBot, CEq, COr, CTop, Cof, Interval, IVar,
                     I0, I1, interval_key)

# an element key is the interval's key in ``syntax.interval_key``:
# 0 < 1 < free variables by name
_K0 = (0,)
_K1 = (1,)

Conjunct = frozenset  # of atoms (least member of a class, other member)
DNF = tuple  # of Conjuncts; () is bottom, _TOP is top
_TOP = (frozenset(),)


def close(pairs) -> dict | None:
    """The partition that the equations ``pairs`` of element keys generate,
    as a map from each member that is not least in its class to the least
    member; None when it merges 0 and 1."""
    rep = {}

    def find(x):
        while x in rep:
            x = rep[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            rep[max(a, b)] = min(a, b)
    rep = {m: find(m) for m in rep}
    return None if rep.get(_K1) == _K0 else rep


def holds(rep: dict, pairs) -> bool:
    """Does every equation of ``pairs`` hold in the partition ``rep``?"""
    return all(rep.get(a, a) == rep.get(b, b) for a, b in pairs)


def _conjunct(rep: dict) -> Conjunct:
    return frozenset((r, m) for m, r in rep.items())


def _and(d1: DNF, d2: DNF) -> DNF:
    if d1 == _TOP or d2 == _TOP:
        return d2 if d1 == _TOP else d1
    out = []
    for c1 in d1:
        for c2 in d2:
            rep = close(c1 | c2)
            if rep is not None and (c := _conjunct(rep)) not in out:
                out.append(c)
    return _TOP if frozenset() in out else tuple(out)


def dnf_of(phi: Cof) -> DNF:
    """The DNF of ``phi`` from the kept DNFs of its parts; ``phi.dnf``
    keeps it."""
    match phi:
        case CTop():
            return _TOP
        case CBot():
            return ()
        case CEq(l, r):
            rep = close([(interval_key(l), interval_key(r))])
            return () if rep is None else (_conjunct(rep),)
        case COr(l, r):
            out = list(to_dnf(l))
            out += [c for c in to_dnf(r) if c not in out]
            return _TOP if frozenset() in out else tuple(out)
        case CAnd(l, r):
            return _and(to_dnf(l), to_dnf(r))
    raise TypeError(phi)


def to_dnf(phi: Cof) -> DNF:
    """Logically equivalent DNF of closed conjuncts, computed once per
    value."""
    return phi.dnf


def conjoin(hyps) -> DNF:
    """The DNF of the conjunction of ``hyps``, from their kept DNFs."""
    out = _TOP
    for h in hyps:
        out = _and(out, to_dnf(h))
    return out


def assignment(conj: Conjunct) -> dict[str, Interval]:
    """The interval substitution a consistent conjunct forces: each variable
    that is not least in its class is sent to the least member (0 and 1
    are least)."""
    return {m[1]: I0 if r == _K0 else I1 if r == _K1 else IVar(r[1])
            for r, m in conj}


def entails(hyps: list[Cof] | tuple[Cof, ...], goal: Cof) -> bool:
    """True iff every consistent conjunct of the conjoined hypotheses
    entails the goal."""
    goal_dnf = to_dnf(goal)
    for conj in conjoin(hyps):
        rep = {m: r for r, m in conj}
        if not any(holds(rep, disj) for disj in goal_dnf):
            return False
    return True


def satisfiable_with(hyps, phi: Cof) -> bool:
    """Is ``phi`` consistent together with the hypotheses?"""
    return not entails(list(hyps) + [phi], BOT)


def interval_eq(hyps, r: Interval, s: Interval) -> bool:
    """Interval equality under hypotheses."""
    return r == s or entails(hyps, CEq(r, s))
