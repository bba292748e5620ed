"""The k-dimensional composition operator.

``comp_eval`` applies the two boundary equations (tube guard entailed; source
equals target), then dispatches on the weak head of the type line: Pi lines
transport the argument back from the target and compose in the codomain
family, Sigma lines fill the first component and compose the second over it,
Path lines compose with the endpoint constraints added to the tube, and
neutral or universe lines form a canonicalized stuck comp.

Transport is comp with the empty tube; filling is comp whose target tuple is
a fresh variable tuple.
"""

from __future__ import annotations

from typing import Callable

from . import cof
from .semantics import (Env, KernelError, Value, VNe, VPair, VPathT, VPi,
                        VPLam, VSigma, VU, VLam, do_app, do_fst, do_papp,
                        do_snd, make_stuck)
from .syntax import CEq, Cof, I0, I1, IVar, Interval, fresh


class CompProblem:
    """A comp to evaluate: the line and each tube branch are closures over
    the directions, the cap a value at the source tuple."""
    __slots__ = ("dirs", "line", "source", "target", "tube", "cap")

    def __init__(self, dirs: tuple[str, ...], line: Callable[..., Value],
                 source: tuple[Interval, ...], target: tuple[Interval, ...],
                 tube: tuple[tuple[Cof, Callable[..., Value]], ...],
                 cap: Value):
        self.dirs, self.line, self.source = dirs, line, source
        self.target, self.tube, self.cap = target, tube, cap


def comp_eval(p: CompProblem, env: Env) -> Value:
    for guard, branch in p.tube:
        if cof.entails(env.hyps, guard):
            return branch(*p.target)
    if all(cof.interval_eq(env.hyps, r, s) for r, s in zip(p.source, p.target)):
        return p.cap
    generic = tuple(IVar(fresh(d)) for d in p.dirs)
    head = p.line(*generic)
    match head:
        case VPi():
            return _comp_pi(p, env, head.hint)
        case VSigma():
            return _comp_sigma(p, env)
        case VPathT():
            return _comp_path(p, env, head.hint)
        case VU() | VNe():
            return make_stuck(p, env)
    raise KernelError(f"comp at a non-type head {head!r}")


def transport(dirs, line, source, target, cap: Value, env: Env) -> Value:
    """comp restricted to the partial section with the false cofibration."""
    return comp_eval(CompProblem(dirs, line, source, target, (), cap), env)


def _as(kind: type, v: Value):
    """The line's value ``v``, which comp dispatched on as a ``kind``."""
    if not isinstance(v, kind):
        raise KernelError(f"{kind.__name__} dispatch on another head")
    return v


def _comp_pi(p: CompProblem, env: Env, hint: str) -> Value:
    """Frobenius: apply to an argument at the target, transport it backwards
    along the domain line, compose in the codomain family over that section."""
    def dom_line(*ivs):
        return _as(VPi, p.line(*ivs)).dom

    def result(a_s: Value) -> Value:
        def a_tilde(*ivs):
            # section through a_s over the target tuple
            return transport(p.dirs, dom_line, p.target, ivs, a_s, env)

        def cod_line(*ivs):
            return _as(VPi, p.line(*ivs)).cod(a_tilde(*ivs))

        tube = tuple(
            (g, (lambda *ivs, _u=u: do_app(_u(*ivs), a_tilde(*ivs))))
            for g, u in p.tube)
        cap = do_app(p.cap, a_tilde(*p.source))
        return comp_eval(
            CompProblem(p.dirs, cod_line, p.source, p.target, tube, cap),
            env)

    return VLam(result, hint)


def _comp_sigma(p: CompProblem, env: Env) -> Value:
    """Fill the first component, compose the second over the filler."""
    def dom_line(*ivs):
        return _as(VSigma, p.line(*ivs)).dom

    fst_tube = tuple(
        (g, (lambda *ivs, _u=u: do_fst(_u(*ivs)))) for g, u in p.tube)

    def w(*ivs):
        return comp_eval(
            CompProblem(p.dirs, dom_line, p.source, ivs, fst_tube,
                        do_fst(p.cap)),
            env)

    def cod_line(*ivs):
        return _as(VSigma, p.line(*ivs)).cod(w(*ivs))

    snd_tube = tuple(
        (g, (lambda *ivs, _u=u: do_snd(_u(*ivs)))) for g, u in p.tube)
    c1 = w(*p.target)
    c2 = comp_eval(
        CompProblem(p.dirs, cod_line, p.source, p.target, snd_tube,
                    do_snd(p.cap)),
        env)
    return VPair(c1, c2)


def _comp_path(p: CompProblem, env: Env, hint: str) -> Value:
    """Extension-type composition: the endpoint constraints join the tube."""
    def result(jv: Interval) -> Value:
        def line(*ivs):
            return _as(VPathT, p.line(*ivs)).line(jv)

        tube = tuple(
            (g, (lambda *ivs, _u=u: do_papp(_u(*ivs), jv)))
            for g, u in p.tube)
        extra = (
            (CEq(jv, I0), lambda *ivs: _as(VPathT, p.line(*ivs)).left),
            (CEq(jv, I1), lambda *ivs: _as(VPathT, p.line(*ivs)).right),
        )
        cap = do_papp(p.cap, jv)
        return comp_eval(
            CompProblem(p.dirs, line, p.source, p.target, tube + extra, cap),
            env)

    return VPLam(result, hint)
