"""References that only tests use: brute-force checks, the routes the
program took on ``CubeMap`` labels before site maps and cells were numbers,
the presheaf checks that read every site map before they read only the
generators, and the kernel's slower routes before it skipped work that
cannot change an answer.  Each one is kept to check the closed form, the
integer route or the shortcut that replaced it.  ``cof_and`` and ``cof_or``
build the conjunction and disjunction of any number of cofibrations."""

from __future__ import annotations

import re
from dataclasses import dataclass

from eqctt import cof
from eqctt.kan import CompProblem, comp_eval
from eqctt.parser import SyntaxError_
from eqctt.semantics import (Context, Env, IntervalBind, TermBind, eval_term,
                             neutral_var, quote, quote_type, terms_equal)
from eqctt.syntax import (BOT, TOP, App, Branch, CAnd, CBot, Comp, COr, CTop,
                          Fst, Interval, IVar, Lam, Let, PApp, Pair, PathT,
                          Pi, PLam, Sigma, Snd, Term, U, Var, free_ivars,
                          free_vars, fresh, interval_vars, subst_cof,
                          subst_interval)
from eqctt.cubelab import cubes, simplicial
from eqctt.cubelab.boxes import build_open_box
from eqctt.cubelab.cubes import (CubeMap, compose, cube_identity,
                                 enumerate_hom, make_cube_map)
from eqctt.cubelab.presheaf import (BudgetExceeded, FinPresheaf, IsoResult,
                                    gather)
from eqctt.cubelab.simplicial import SimplexMap, dual_middles


# ---------------------------------------------------------------------------
# cofibrations

def cof_and(*cs: cof.Cof) -> cof.Cof:
    acc: cof.Cof = TOP
    for c in cs:
        if isinstance(c, CTop):
            continue
        acc = c if isinstance(acc, CTop) else CAnd(acc, c)
    return acc


def cof_or(*cs: cof.Cof) -> cof.Cof:
    acc: cof.Cof = BOT
    for c in cs:
        if isinstance(c, CBot):
            continue
        acc = c if isinstance(acc, CBot) else COr(acc, c)
    return acc


def satisfiable(phi: cof.Cof) -> bool:
    return cof.to_dnf(phi) != ()


def equivalent(hyps, phi: cof.Cof, psi: cof.Cof) -> bool:
    """Cofibration extensionality: equality as logical equivalence."""
    return (cof.entails(list(hyps) + [phi], psi)
            and cof.entails(list(hyps) + [psi], phi))


# ---------------------------------------------------------------------------
# substitution of terms and intervals (the kernel substitutes by evaluation)

def substitute(t: Term,
               terms: dict[str, Term] | None = None,
               ivars: dict[str, Interval] | None = None) -> Term:
    """Simultaneous capture-avoiding substitution of terms and intervals."""
    return _subst(t, dict(terms or {}), dict(ivars or {}))


def _img_fvs(terms: dict[str, Term]) -> set[str]:
    out: set[str] = set()
    for v in terms.values():
        out |= free_vars(v)
    return out


def _img_ivs(terms: dict[str, Term], ivars: dict[str, Interval]) -> set[str]:
    out: set[str] = set()
    for v in terms.values():
        out |= free_ivars(v)
    for r in ivars.values():
        out |= interval_vars(r)
    return out


def _bind_term(x: str, terms: dict[str, Term], ivars: dict[str, Interval]):
    """Refresh a term binder when it would capture or be substituted."""
    terms = {k: v for k, v in terms.items() if k != x}
    if x in _img_fvs(terms):
        x2 = fresh(x)
        terms[x] = Var(x2)
        return x2, terms, ivars
    return x, terms, ivars


def _bind_ivars(xs: tuple[str, ...], terms: dict[str, Term],
                ivars: dict[str, Interval]):
    ivars = {k: v for k, v in ivars.items() if k not in xs}
    clash = _img_ivs(terms, ivars)
    out = []
    for x in xs:
        if x in clash:
            x2 = fresh(x)
            ivars[x] = IVar(x2)
            out.append(x2)
        else:
            out.append(x)
    return tuple(out), terms, ivars


def _subst(t: Term, terms: dict[str, Term], ivars: dict[str, Interval]) -> Term:
    match t:
        case Var(x):
            return terms.get(x, t)
        case Pi(x, a, b):
            a2 = _subst(a, terms, ivars)
            x2, ts, vs = _bind_term(x, terms, ivars)
            return Pi(x2, a2, _subst(b, ts, vs))
        case Sigma(x, a, b):
            a2 = _subst(a, terms, ivars)
            x2, ts, vs = _bind_term(x, terms, ivars)
            return Sigma(x2, a2, _subst(b, ts, vs))
        case Lam(x, e):
            x2, ts, vs = _bind_term(x, terms, ivars)
            return Lam(x2, _subst(e, ts, vs))
        case App(f, a):
            return App(_subst(f, terms, ivars), _subst(a, terms, ivars))
        case Pair(a, b):
            return Pair(_subst(a, terms, ivars), _subst(b, terms, ivars))
        case Fst(a):
            return Fst(_subst(a, terms, ivars))
        case Snd(a):
            return Snd(_subst(a, terms, ivars))
        case PathT(i, l, a, b):
            a2 = _subst(a, terms, ivars)
            b2 = _subst(b, terms, ivars)
            (i2,), ts, vs = _bind_ivars((i,), terms, ivars)
            return PathT(i2, _subst(l, ts, vs), a2, b2)
        case PLam(i, e):
            (i2,), ts, vs = _bind_ivars((i,), terms, ivars)
            return PLam(i2, _subst(e, ts, vs))
        case PApp(f, r):
            return PApp(_subst(f, terms, ivars), subst_interval(r, ivars))
        case U(_):
            return t
        case Comp(dirs, line, src, tgt, tube, cap):
            src2 = tuple(subst_interval(r, ivars) for r in src)
            tgt2 = tuple(subst_interval(r, ivars) for r in tgt)
            dirs2, ts, vs = _bind_ivars(dirs, terms, ivars)
            line2 = _subst(line, ts, vs)
            tube2 = []
            for br in tube:
                g2 = subst_cof(br.guard, ivars)
                bdirs2, bts, bvs = _bind_ivars(br.dirs, terms, ivars)
                tube2.append(Branch(g2, bdirs2, _subst(br.body, bts, bvs)))
            return Comp(dirs2, line2, src2, tgt2, tuple(tube2),
                        _subst(cap, terms, ivars))
        case Let(x, ann, bound, body):
            ann2 = _subst(ann, terms, ivars)
            bound2 = _subst(bound, terms, ivars)
            x2, ts, vs = _bind_term(x, terms, ivars)
            return Let(x2, ann2, bound2, _subst(body, ts, vs))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# the kernel's slower routes

_TOKEN_RE = re.compile(r"""
    (?P<comment>--[^\n]*)
  | (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<squig>~>)
  | (?P<and>/\\)
  | (?P<or>\\/)
  | (?P<lam>\\)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>[0-9]+)
  | (?P<sym>[()\[\]<>.,:=*@|^])
""", re.VERBOSE)

_KEYWORDS = {"def", "postulate", "Path", "comp", "let", "in", "tt", "ff"}


def tokenize(src: str) -> list[tuple]:
    """The lexer as one anchored match per token, whitespace included,
    counting columns token by token: tokens (kind, text, (line, col))."""
    toks: list[tuple] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise SyntaxError_(f"unexpected character {src[i]!r}", (line, col))
        text = m.group(0)
        kind = m.lastgroup or "sym"
        if kind == "ident" and text in _KEYWORDS:
            kind = text
        if kind not in ("ws", "comment"):
            toks.append((kind, text, (line, col)))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    toks.append(("eof", "", (line, col)))
    return toks


def reindexed_env(ctx: Context, assign: dict) -> Env:
    """``Context.env`` reindexing the type of every term binding."""
    terms: dict = {}
    ivals: dict = {}
    hyps: list = []
    for e in ctx.entries:
        if isinstance(e, IntervalBind):
            ivals[e.name] = assign.get(e.name, IVar(e.name))
        elif isinstance(e, TermBind):
            ty = e.ty
            if assign:
                ty = eval_term(Env(dict(terms), dict(ivals), tuple(hyps)),
                               quote_type(ty))
            terms[e.name] = neutral_var(e.name, ty)
        else:
            hyps.append(subst_cof(e.cof, assign) if assign else e.cof)
    return Env(terms, ivals, tuple(hyps))


def convert_by_reevaluation(ctx: Context, ty, v1, v2) -> bool:
    """Conversion with no reflexivity shortcut: under each DNF conjunct of
    the restrictions, both readbacks are evaluated again in the fully
    reindexed environment and read back again."""
    dnf = cof.to_dnf(cof_and(*ctx.hyps))
    if dnf == ():
        return True
    t1, t2 = quote(ty, v1), quote(ty, v2)
    if dnf == (frozenset(),):
        return terms_equal(t1, t2)
    ty_t = quote_type(ty)
    for conj in dnf:
        env = reindexed_env(ctx, cof.assignment(conj))
        ty_v = eval_term(env, ty_t)
        if not terms_equal(quote(ty_v, eval_term(env, t1)),
                           quote(ty_v, eval_term(env, t2))):
            return False
    return True


def convert_by_readback(ctx: Context, ty, v1, v2) -> bool:
    """Conversion as both values read back whole and keyed: under no
    restriction the first readbacks, under each DNF conjunct of the
    restrictions the readbacks of the values evaluated again."""
    if v1 is v2:
        return True
    dnf = cof.conjoin(ctx.hyps)
    if dnf == ():
        return True
    t1, t2 = quote(ty, v1), quote(ty, v2)
    if dnf == (frozenset(),):
        return terms_equal(t1, t2)
    ty_t = quote_type(ty)
    for conj in dnf:
        env = ctx.env(cof.assignment(conj))
        ty_v = eval_term(env, ty_t)
        if not terms_equal(quote(ty_v, eval_term(env, t1)),
                           quote(ty_v, eval_term(env, t2))):
            return False
    return True


def fill_derive(p: CompProblem, fresh_dirs: tuple[str, ...],
                env: Env = Env()):
    """Unbiased filling: comp toward a tuple of fresh variables."""
    return comp_eval(CompProblem(p.dirs, p.line, p.source,
                                 tuple(IVar(j) for j in fresh_dirs), p.tube,
                                 p.cap), env)


# ---------------------------------------------------------------------------
# cube maps

def face(n: int, axis: int, endpoint: int) -> CubeMap:
    """The inclusion I^(n-1) -> I^n fixing ``axis`` (1-based) at 0 or 1."""
    mids = []
    shift = 0
    for j in range(1, n + 1):
        if j == axis:
            mids.append(0 if endpoint == 0 else n)  # bot or top of <n-1>
            shift = 1
        else:
            mids.append(j - shift)
    return make_cube_map(n - 1, n, tuple(mids))


def degeneracy(n: int, axis: int) -> CubeMap:
    """The projection I^n -> I^(n-1) dropping ``axis`` (1-based)."""
    mids = tuple(j if j < axis else j + 1 for j in range(1, n))
    return make_cube_map(n, n - 1, mids)


def perm_cube_map(perm: tuple[int, ...]) -> CubeMap:
    """The automorphism of I^n permuting axes; perm maps axis j to perm[j-1]."""
    n = len(perm)
    mids = [0] * n
    for j in range(1, n + 1):
        mids[perm[j - 1] - 1] = j
    return make_cube_map(n, n, tuple(mids))


def invertible_endos(n: int) -> list[CubeMap]:
    """Invertible endo cube maps of I^n, by exhaustive two-sided inverse
    search: the assumption-free reference for ``automorphisms`` and
    ``is_iso``."""
    homs = enumerate_hom(n, n)
    ident = cube_identity(n)
    return [f for f in homs if any(
        compose(f, g) == ident and compose(g, f) == ident for g in homs)]


def is_mono_by_probes(m: CubeMap, probe_max: int = 3) -> bool:
    """Monomorphism check by hom enumeration: distinct precompositions of
    probes up to dimension ``probe_max`` stay distinct."""
    for x in range(probe_max + 1):
        seen = {}
        for a in enumerate_hom(x, m.dom):
            ma = compose(m, a)
            if ma in seen and seen[ma] != a:
                return False
            seen[ma] = a
    return True


def vertex_cell(n: int, endpoint: int) -> CubeMap:
    """The all-0 or all-1 vertex of I^n (bot/top of the domain <0>)."""
    e = 0 if endpoint == 0 else 1
    return CubeMap(0, n, (0, *([e] * n), 1))


def simplex_identity(n: int) -> SimplexMap:
    return SimplexMap(n, n, tuple(range(n + 1)))


def simplex_compose(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    if f.cod != g.dom:
        raise ValueError("dimension mismatch")
    return SimplexMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def dualize_simplex_map(f: SimplexMap) -> CubeMap:
    """The cube map of a monotone map, with bot = 0 and top = dom + 1;
    contravariantly functorial."""
    return make_cube_map(f.dom, f.cod, dual_middles(f))


# ---------------------------------------------------------------------------
# site maps as labels

def site_maps(site, a: int, b: int) -> list:
    """The maps a -> b of a site as labels, in number order."""
    return (enumerate_hom(a, b) if site is cubes
            else simplicial.enumerate_monotone(a, b))


def number(f) -> int:
    """The number of a cube or simplex map, which keys action tables."""
    if isinstance(f, CubeMap):
        return cubes.maps(f.dom, f.cod)[cubes.index(f)]
    return simplicial.maps(f.dom, f.cod)[
        simplicial.enumerate_monotone(f.dom, f.cod).index(f)]


def label_table(levels: dict, maps, fn):
    """The tables of the maps a -> b, in hom-set order, from an action
    ``fn`` on labels and those maps as labels, ``maps(a, b)``: the position
    of ``fn(f, c)`` for each label c at level b (-1 outside level a)."""
    index = {d: {c: i for i, c in enumerate(cells)}
             for d, cells in levels.items()}
    return lambda a, b: [tuple(index[a].get(fn(f, c), -1) for c in levels[b])
                         for f in maps(a, b)]


def check_functorial(X: FinPresheaf) -> bool:
    """Identity and composition laws, exhaustively over the truncation, with
    composites taken on labels."""
    s = X.site
    compose_labels = compose if s is cubes else simplex_compose
    identity = cube_identity if s is cubes else simplex_identity
    labels = {(a, b): site_maps(s, a, b)
              for a in range(X.D + 1) for b in range(X.D + 1)}
    numbers = {f: i for (a, b), fs in labels.items()
               for f, i in zip(fs, s.maps(a, b))}
    act = {f: X.action[i] for f, i in numbers.items()}
    for n in range(X.D + 1):
        if act[identity(n)] != tuple(X.cells(n)):
            return False
    for (a, b), fs in labels.items():
        for c in range(X.D + 1):
            for f in fs:
                for g in labels[b, c]:
                    gf, ft = act[compose_labels(g, f)], act[f]
                    if gf != tuple(ft[x] for x in act[g]):
                        return False
    return True


# ---------------------------------------------------------------------------
# presheaf checks that read every site map

def equivariant_on_all_maps(X: FinPresheaf, perm: dict[int, list]) -> bool:
    """Whether the permutation tables ``perm[d]`` of each level commute
    with the table of every site map between levels <= X.D."""
    return all(gather(X.action[f], pb) == gather(pa, X.action[f])
               for a in range(X.D + 1) for b in range(X.D + 1)
               for f in X.site.maps(a, b)
               for pa, pb in zip(perm[a], perm[b]))


def iso_search_all_maps(X: FinPresheaf, Y: FinPresheaf,
                        budget: int = 500_000) -> IsoResult:
    """``iso_search`` reading every table a -> b with a <= b: a cell's
    candidates have its images under every map into its level from below,
    and every endo of its level is checked on the cells placed."""
    if X.site != Y.site or X.D != Y.D:
        return IsoResult(False, reason="site or truncation mismatch")
    for d in range(X.D + 1):
        if len(X.levels[d]) != len(Y.levels[d]):
            return IsoResult(
                False,
                reason=f"level-size mismatch at dimension {d}: "
                       f"{len(X.levels[d])} vs {len(Y.levels[d])}")
    down = {b: [(a, X.action[f], Y.action[f])
                for a in range(b) for f in X.site.maps(a, b)]
            for b in range(X.D + 1)}
    endo = {b: [(X.action[f], Y.action[f]) for f in X.site.maps(b, b)]
            for b in range(X.D + 1)}
    y_by_sig: dict[int, dict[tuple, list[int]]] = {b: {} for b in down}
    for b, by_sig in y_by_sig.items():
        for y in Y.cells(b):
            by_sig.setdefault(tuple(t[y] for _, _, t in down[b]), []).append(y)
    phi: dict[int, tuple] = {}
    nodes = 0

    def assign_level(b: int) -> bool:
        if b > X.D:
            return True
        cur: list[int] = []
        used: set[int] = set()

        def consistent(x: int, y: int) -> bool:
            for xt, yt in endo[b]:
                fx = xt[x]
                if fx < len(cur) and cur[fx] != yt[y]:
                    return False
                for x2, y2 in enumerate(cur):
                    if xt[x2] == x and yt[y2] != y:
                        return False
            return True

        def place(x: int) -> bool:
            nonlocal nodes
            if x == len(X.levels[b]):
                phi[b] = tuple(cur)
                if assign_level(b + 1):
                    return True
                del phi[b]
                return False
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"iso search exceeded budget {budget}")
            want_sig = tuple(phi[a][xt[x]] for a, xt, _ in down[b])
            for y in y_by_sig[b].get(want_sig, []):
                if y in used or not consistent(x, y):
                    continue
                cur.append(y)
                used.add(y)
                if place(x + 1):
                    return True
                cur.pop()
                used.discard(y)
            return False

        return place(0)

    if assign_level(0):
        return IsoResult(True, witness=phi, nodes=nodes)
    return IsoResult(False, reason="exhausted all level bijections",
                     nodes=nodes)


# ---------------------------------------------------------------------------
# open boxes on cube maps

@dataclass(frozen=True)
class OpenBoxSpec:
    """n, k, a subobject C of I^n (the cells of I^n in it, per level), and
    zeta: I^n -> I^k."""
    n: int
    k: int
    C: tuple[tuple[int, tuple[int, ...]], ...]  # frozen per-level cell sets
    zeta: CubeMap

    @staticmethod
    def make(n: int, k: int, C: dict[int, frozenset],
             zeta: CubeMap) -> "OpenBoxSpec":
        assert k >= 1 and (zeta.dom, zeta.cod) == (n, k)
        return OpenBoxSpec(n, k, tuple((d, tuple(sorted(C[d])))
                                       for d in sorted(C)), zeta)

    def build(self, D: int):
        """``build_open_box`` of this box: (domain, ambient)."""
        return build_open_box(self.n, self.k, dict(self.C),
                              cubes.index(self.zeta), D)


def pair(u: CubeMap, v: CubeMap) -> CubeMap:
    """The map <u, v> : I^a -> I^n x I^k = I^(n+k)."""
    return make_cube_map(u.dom, u.cod + v.cod, u.table[1:-1] + v.table[1:-1])


def product(u: CubeMap, v: CubeMap) -> CubeMap:
    """u x v = <u . p1, v . p2> : I^(a+b) -> I^(n+k), for u : I^a -> I^n
    and v : I^b -> I^k."""
    a, b = u.dom, v.dom
    p1 = make_cube_map(a + b, a, tuple(range(1, a + 1)))
    p2 = make_cube_map(a + b, b, tuple(range(a + 1, a + b + 1)))
    return pair(compose(u, p1), compose(v, p2))


def nondegenerate_map(c: CubeMap) -> bool:
    """A cell I^d -> I^n is nondegenerate iff its table hits every axis."""
    return set(range(1, c.dom + 1)) <= set(c.table)


@dataclass
class LabelBox:
    """An open box as cube maps into I^(n+k): ``cells`` lists every box cell
    in sorted order as (cell, i, h) with cell = gens[i] . h, and
    ``relations[i]`` holds each (h, j, h2) with gens[i] . h = gens[j] . h2
    nondegenerate and j < i."""
    spec: OpenBoxSpec
    gens: list[CubeMap]
    cells: list[tuple[CubeMap, int, CubeMap]]
    relations: list[list[tuple[CubeMap, int, CubeMap]]]

    @staticmethod
    def make(spec: OpenBoxSpec, D: int) -> "LabelBox":
        gens = [pair(cube_identity(spec.n), spec.zeta)]
        for d, cells in reversed(spec.C):
            level = enumerate_hom(d, spec.n)
            gens += [product(level[c], cube_identity(spec.k)) for c in cells
                     if nondegenerate_map(level[c])]
        first: dict[CubeMap, tuple[int, CubeMap]] = {}
        relations: list[list] = [[] for _ in gens]
        for i, g in enumerate(gens):
            for d in range(D + 1):
                for h in enumerate_hom(d, g.dom):
                    e = compose(g, h)
                    if e not in first:
                        first[e] = (i, h)
                    elif nondegenerate_map(e):
                        relations[i].append((h, *first[e]))
        return LabelBox(spec, gens,
                        [(e, i, h) for e, (i, h) in sorted(first.items())],
                        relations)
