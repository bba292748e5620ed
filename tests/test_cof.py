"""Cofibration solver vs an independent congruence-enumeration oracle."""

from hypothesis import given, settings, strategies as st

from eqctt import cof
from eqctt.syntax import (BOT, TOP, CAnd, CBot, CEq, COr, CTop, Cof, I0, I1,
                          IOne, IVar, IZero, interval_key, subst_cof,
                          subst_interval)
from reference import cof_and, equivalent, satisfiable


# ---------------------------------------------------------------------------
# the oracle: enumerate congruences (partitions) of the variable set with
# {0,1} that separate 0 from 1; entailment is truth in every such partition

def partitions(elems: list):
    """All set partitions, by restricted growth strings."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield [{first}] + part


def separating_partitions(variables: list[str]):
    elems = ["0", "1"] + list(variables)
    for part in partitions(elems):
        blocks = [frozenset(b) for b in part]
        if not any("0" in b and "1" in b for b in blocks):
            yield blocks


def _el(r) -> str:
    match r:
        case IZero() | None:
            return "0"
        case IOne():
            return "1"
    return r.name


def holds(phi: Cof, blocks) -> bool:
    def block_of(x):
        for b in blocks:
            if x in b:
                return b
        raise KeyError(x)
    match phi:
        case CTop():
            return True
        case CBot():
            return False
        case CEq(l, r):
            return block_of(_el(l)) is block_of(_el(r))
        case CAnd(l, r):
            return holds(l, blocks) and holds(r, blocks)
        case COr(l, r):
            return holds(l, blocks) or holds(r, blocks)
    raise TypeError(phi)


def oracle_entails(variables, hyps, goal) -> bool:
    h = cof_and(*hyps)
    return all(holds(goal, blocks)
               for blocks in separating_partitions(variables)
               if holds(h, blocks))


# ---------------------------------------------------------------------------
# pinned examples

i, j, k = IVar("i"), IVar("j"), IVar("k")


def test_dnf_shapes():
    assert len(cof.to_dnf(COr(CEq(i, I0), CEq(i, I1)))) == 2
    two = cof.to_dnf(CAnd(CEq(i, I0), COr(CEq(j, I1), CEq(j, I0))))
    assert len(two) == 2
    assert all(len(c) == 2 for c in two)
    assert cof.to_dnf(CAnd(BOT, CEq(i, I0))) == ()


def test_a_partition_is_one_conjunct():
    # conjuncts are stored closed, so two spellings of one partition agree
    [c1] = cof.to_dnf(CAnd(CEq(i, j), CEq(j, k)))
    [c2] = cof.to_dnf(CAnd(CEq(k, i), CEq(j, i)))
    assert c1 == c2
    assert cof.to_dnf(COr(CAnd(CEq(i, j), CEq(j, k)),
                          CAnd(CEq(k, i), CEq(j, i)))) == (c1,)


def test_close_merges_through_chains():
    ki, kj, kk = map(interval_key, (i, j, k))
    zero, one = interval_key(I0), interval_key(I1)
    assert cof.close([(zero, ki), (kj, kk), (ki, kj), (kk, one)]) is None
    assert cof.close([(kk, kj), (kj, ki)]) == {kj: ki, kk: ki}
    assert cof.close([(kk, kj), (kj, one)]) == {kj: one, kk: one}
    assert cof.close([(ki, ki)]) == {}


def test_dnf_is_kept():
    phi = COr(CAnd(CEq(i, j), CEq(k, I1)), CEq(j, I0))
    assert cof.to_dnf(phi) is cof.to_dnf(phi)


def test_entails_examples():
    assert cof.entails([], TOP)
    assert cof.entails([CAnd(CEq(i, I0), CEq(i, I1))], BOT)
    assert cof.entails([CEq(i, j), CEq(j, I0)], CEq(i, I0))
    assert not cof.entails([COr(CEq(i, I0), CEq(i, I1))], CEq(i, I0))
    # oracle agrees on the disjunctive case
    assert not oracle_entails(["i"], [COr(CEq(i, I0), CEq(i, I1))], CEq(i, I0))


def test_satisfiable_examples():
    assert satisfiable(CEq(i, I0))
    assert not satisfiable(CEq(I0, I1))
    assert not satisfiable(cof_and(CEq(i, I0), CEq(i, j), CEq(j, I1)))


def test_subst_examples():
    assert subst_cof(CEq(i, I0), {"i": I1}) == CEq(I1, I0)
    assert cof.entails([], subst_cof(CEq(i, j), {"j": i}))


def test_subst_that_moves_no_atom_returns_the_formula():
    # so a formula keeps its DNF through evaluation
    phi = COr(CAnd(CEq(i, j), CEq(k, I1)), CEq(j, I0))
    dnf = cof.to_dnf(phi)
    for sub in ({}, {"m": I0}, {"i": IVar("i"), "j": IVar("j")}):
        assert subst_cof(phi, sub) is phi
    assert cof.to_dnf(subst_cof(phi, {"m": I1})) is dnf
    moved = subst_cof(phi, {"k": I0})
    assert moved is not phi and moved.rhs is phi.rhs


# ---------------------------------------------------------------------------
# randomized agreement with the oracle, up to 5 variables

VARS5 = ["i", "j", "k", "l", "m"]


def cof_strategy(depth=3, vars_=VARS5):
    leaf = st.one_of(
        st.just(TOP), st.just(BOT),
        st.builds(CEq,
                  st.sampled_from([I0, I1] + [IVar(v) for v in vars_]),
                  st.sampled_from([I0, I1] + [IVar(v) for v in vars_])))
    return st.recursive(
        leaf,
        lambda c: st.one_of(st.builds(CAnd, c, c), st.builds(COr, c, c)),
        max_leaves=depth)


@given(cof_strategy(), cof_strategy())
@settings(max_examples=150, deadline=None)
def test_solver_matches_oracle(phi, psi):
    assert cof.entails([phi], psi) == oracle_entails(VARS5, [phi], psi)


@given(cof_strategy())
@settings(max_examples=100, deadline=None)
def test_satisfiable_is_not_entails_bot(phi):
    assert satisfiable(phi) == (not cof.entails([phi], BOT))


@given(cof_strategy())
@settings(max_examples=60, deadline=None)
def test_entails_reflexive(phi):
    assert cof.entails([phi], phi)


@given(cof_strategy(), cof_strategy(), cof_strategy())
@settings(max_examples=60, deadline=None)
def test_entails_transitive(a, b, c):
    if cof.entails([a], b) and cof.entails([b], c):
        assert cof.entails([a], c)


@given(cof_strategy(), cof_strategy(), cof_strategy())
@settings(max_examples=60, deadline=None)
def test_entails_monotone_in_hypotheses(a, extra, goal):
    if cof.entails([a], goal):
        assert cof.entails([a, extra], goal)


@given(cof_strategy())
@settings(max_examples=60, deadline=None)
def test_subst_preserves_tautology(phi):
    # random monotonicity check: a valid formula stays valid under
    # interval substitution
    if cof.entails([], phi):
        for sub in ({"i": I0}, {"j": I1}, {"i": IVar("j")},
                    {"k": IVar("l"), "l": I0}):
            assert cof.entails([], subst_cof(phi, sub))


INTERVALS = {interval_key(r): r for r in [I0, I1, *map(IVar, VARS5)]}


@given(cof_strategy())
@settings(max_examples=100, deadline=None)
def test_assignment_satisfies_its_conjunct(phi):
    for conj in cof.to_dnf(phi):
        a = cof.assignment(conj)

        def image(key):
            return interval_key(subst_interval(INTERVALS[key], a))
        assert all(image(r) == image(m) for r, m in conj)
        assert cof.entails([], subst_cof(phi, a))


def test_todnf_commutes_with_subst_up_to_equivalence():
    for phi in (CAnd(CEq(i, j), COr(CEq(j, I0), CEq(k, I1))),
                COr(CEq(i, I0), CAnd(CEq(j, k), CEq(k, I1)))):
        for sub in ({"i": I0}, {"j": IVar("i")}, {"k": I1}):
            lhs = subst_cof(phi, sub)
            assert equivalent([], lhs, subst_cof(phi, sub))
