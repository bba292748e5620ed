"""Pretty printer. ``parse(print_term(t))`` is alpha-equal to ``t``.

Generated names (containing '%') are renamed to source-legal ones on the way
out, bound or free; other free variables keep their names.
"""

from __future__ import annotations

import re

from .syntax import (CAnd, CBot, CEq, COr, CTop, Cof, Comp, Fst,
                     IVar, Interval, IZero, IOne, Lam, Let, Pair, PApp,
                     PathT, Pi, PLam, Sigma, Snd, Term, U, Var, App,
                     free_vars, free_ivars)

# precedence levels, loosest to tightest
TERM, SIGMA, SPINE, ATOM = 0, 1, 2, 3

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def _display(hint: str, used: set[str]) -> str:
    base = hint.split("%")[0]
    if not _IDENT_RE.match(base):
        base = "x"
    if base not in used:
        return base
    n = 1
    while f"{base}{n}" in used:
        n += 1
    return f"{base}{n}"


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


def print_interval(r: Interval, env: dict[str, str] | None = None) -> str:
    match r:
        case IZero():
            return "0"
        case IOne():
            return "1"
        case IVar(x):
            return (env or {}).get(x, x)
    raise TypeError(r)


def print_cof(phi: Cof, env: dict[str, str] | None = None, prec: int = 0) -> str:
    env = env or {}
    match phi:
        case CTop():
            return "tt"
        case CBot():
            return "ff"
        case CEq(l, r):
            return f"{print_interval(l, env)} = {print_interval(r, env)}"
        case COr(l, r):
            s = f"{print_cof(l, env, 1)} \\/ {print_cof(r, env, 1)}"
            return _paren(s, prec > 0)
        case CAnd(l, r):
            s = f"{print_cof(l, env, 2)} /\\ {print_cof(r, env, 2)}"
            return _paren(s, prec > 1)
    raise TypeError(phi)


def print_term(t: Term) -> str:
    free = free_vars(t) | free_ivars(t)
    # free generated names print by their hint, numbered in creation order
    gen = sorted((x for x in free if "%" in x),
                 key=lambda x: int(x.rsplit("%", 1)[1]))
    _, env, used = _bind(gen, {}, free - set(gen))
    return _pp(t, env, used, TERM)


def _bind(names, env: dict[str, str], used: set[str]):
    env2, used2, disp = dict(env), set(used), []
    for x in names:
        d = env2[x] = _display(x, used2)
        used2.add(d)
        disp.append(d)
    return disp, env2, used2


def _pp(t: Term, env: dict[str, str], used: set[str], prec: int) -> str:
    match t:
        case Var(x):
            return env.get(x, x)
        case U(n):
            return f"U{n}"
        case Pi(x, a, b):
            if x in free_vars(b):
                (d,), env2, used2 = _bind([x], env, used)
                s = f"({d} : {_pp(a, env, used, TERM)}) -> {_pp(b, env2, used2, TERM)}"
            else:
                s = f"{_pp(a, env, used, SIGMA)} -> {_pp(b, env, used, TERM)}"
            return _paren(s, prec > TERM)
        case Sigma(x, a, b):
            if x in free_vars(b):
                (d,), env2, used2 = _bind([x], env, used)
                s = f"({d} : {_pp(a, env, used, TERM)}) * {_pp(b, env2, used2, SIGMA)}"
            else:
                s = f"{_pp(a, env, used, SPINE)} * {_pp(b, env, used, SIGMA)}"
            return _paren(s, prec > SIGMA)
        case Lam(x, e):
            (d,), env2, used2 = _bind([x], env, used)
            s = f"\\{d}. {_pp(e, env2, used2, TERM)}"
            return _paren(s, prec > TERM)
        case PLam(i, e):
            (d,), env2, used2 = _bind([i], env, used)
            s = f"<{d}> {_pp(e, env2, used2, TERM)}"
            return _paren(s, prec > TERM)
        case App(f, a):
            s = f"{_pp(f, env, used, SPINE)} {_pp(a, env, used, ATOM)}"
            return _paren(s, prec > SPINE)
        case PApp(f, r):
            s = f"{_pp(f, env, used, SPINE)} @ {print_interval(r, env)}"
            return _paren(s, prec > SPINE)
        case Pair(a, b):
            return f"({_pp(a, env, used, TERM)} , {_pp(b, env, used, TERM)})"
        case Fst(a):
            return _paren(f"{_pp(a, env, used, SPINE)}.1", prec > SPINE)
        case Snd(a):
            return _paren(f"{_pp(a, env, used, SPINE)}.2", prec > SPINE)
        case PathT(i, l, a, b):
            (d,), env2, used2 = _bind([i], env, used)
            s = (f"Path ({d}. {_pp(l, env2, used2, TERM)}) "
                 f"{_pp(a, env, used, ATOM)} {_pp(b, env, used, ATOM)}")
            return _paren(s, prec > SPINE)
        case Let(x, ann, bound, body):
            (d,), env2, used2 = _bind([x], env, used)
            s = (f"let {d} : {_pp(ann, env, used, TERM)} = "
                 f"{_pp(bound, env, used, TERM)} in {_pp(body, env2, used2, TERM)}")
            return _paren(s, prec > TERM)
        case Comp(dirs, line, src, tgt, tube, cap):
            k = len(dirs)
            ds, env2, used2 = _bind(dirs, env, used)
            branches = []
            for br in tube:
                bds, benv, bused = _bind(br.dirs, env, used)
                branches.append(
                    f"{print_cof(br.guard, env)} -> {' '.join(bds)}. "
                    f"{_pp(br.body, benv, bused, TERM)}")
            sys_s = " | ".join(branches)
            s = (f"comp^{k} ({' '.join(ds)}. {_pp(line, env2, used2, TERM)}) "
                 f"[{sys_s}] {_pp(cap, env, used, ATOM)} "
                 f": {_ituple(src, env)} ~> {_ituple(tgt, env)}")
            return _paren(s, prec > TERM)
    raise TypeError(t)


def _ituple(rs: tuple[Interval, ...], env) -> str:
    if len(rs) == 1:
        return print_interval(rs[0], env)
    return "(" + ", ".join(print_interval(r, env) for r in rs) + ")"
