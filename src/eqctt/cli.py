"""Command-line driver.

Exit codes: 0 success, 1 semantic failure, 2 usage or I/O error, 3 budget
exceeded.  Flags override the EQCTT_* environment variables, which override
defaults.  With ``--json`` every command prints a single machine-readable
report with sorted keys, suitable for golden-file comparison.
"""

from __future__ import annotations

import json
import re
import sys

import click

from . import cof as coflogic
from .config import CONFIG, Config
from .parser import SyntaxError_, parse_cof, parse_module
from .printer import print_term
from .semantics import quote
from .typecheck import check_module
from .cubelab import cubes
from .cubelab.boxes import (PresheafMap, build_open_box,
                            check_equivariant_lifting, horn_box_domain,
                            presheaf_map_to_terminal, sub_empty, sub_full,
                            sub_vertex)
from .cubelab.cubes import (automorphisms, compose, count_hom, ez_factor,
                            find_section, full_symmetric, index, is_mono,
                            make_cube_map)
from .cubelab.presheaf import (BudgetExceeded, FinPresheaf, iso_search,
                               nondegenerate, product, quotient_by_group,
                               representable_cube, table_size, terminal_cube)
from .cubelab.simplicial import delta, triangulate


def _emit(report: dict, human: str | None = None) -> None:
    # click.echo's default stream is cached, keeping alive every buffer an
    # in-process caller swaps in for stdout; an explicit one is not
    out = click.get_text_stream("stdout")
    if CONFIG.json_output:
        click.echo(json.dumps(report, sort_keys=True), file=out)
    else:
        click.echo(human if human is not None else
                   json.dumps(report, sort_keys=True, indent=2), file=out)


@click.group()
@click.option("--json", "json_output", is_flag=True, envvar="EQCTT_JSON",
              help="machine-readable output")
@click.option("--kmax", type=click.IntRange(min=1), default=Config.k_max,
              envvar="EQCTT_KMAX", show_default=True,
              help="permutation bound for stuck comps")
@click.option("--dim", type=click.IntRange(min=1), default=Config.dim,
              envvar="EQCTT_DIM", show_default=True,
              help="cubelab truncation dimension")
@click.option("--budget", type=click.IntRange(min=1), default=Config.budget,
              envvar="EQCTT_BUDGET", show_default=True,
              help="combinatorial search node cap; also caps the "
                   "action-table entries of each lab object")
def main(json_output, kmax, dim, budget):
    """eqctt: equivariant cartesian cubical type checker and cube lab."""
    CONFIG.json_output = json_output
    CONFIG.k_max, CONFIG.dim, CONFIG.budget = kmax, dim, budget


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)


def _check_file(path: str):
    src = _read(path)
    try:
        decls = parse_module(src)
    except SyntaxError_ as e:
        report = {"file": path, "decls": [
            {"name": "<parse>", "status": "error",
             "diagnostics": [{"code": e.code, "message": e.message,
                              "line": e.pos[0], "col": e.pos[1]}]}]}
        return None, report
    mod = check_module(decls)
    return mod, mod.report.to_json(path)


def _report_lines(report: dict):
    for d in report["decls"]:
        yield f"{d['name']}: {d['status']}"
        for diag in d["diagnostics"]:
            loc = (f"{diag.get('line')}:{diag.get('col')}: "
                   if "line" in diag else "")
            yield f"  {loc}{diag['code']}: {diag['message']}"
            if "expected" in diag:
                yield f"    expected: {diag['expected']}"
                yield f"    actual:   {diag['actual']}"


@main.command()
@click.argument("path", type=click.Path())
def check(path):
    """Type check every declaration in an .ectt file."""
    mod, report = _check_file(path)
    ok = mod is not None and mod.report.ok
    if CONFIG.json_output:
        _emit(report)
    elif report["decls"]:
        _emit(report, "\n".join(_report_lines(report)))
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--def", "name", required=True, help="definition to normalize")
def normalize(path, name):
    """Print the eta-long beta-normal form of a definition."""
    mod, report = _check_file(path)
    if mod is None or not mod.report.ok:
        click.echo("file does not type check:", err=True)
        for d in report["decls"]:
            for diag in d["diagnostics"]:
                click.echo(f"  {d['name']}: {diag['message']}", err=True)
        sys.exit(1)
    if name not in mod.values:
        click.echo(f"error: unknown name {name!r}", err=True)
        sys.exit(1)
    nf = print_term(quote(mod.types[name], mod.values[name]))
    _emit({"operation": "normalize", "inputs": {"file": path, "def": name},
           "result": nf}, human=nf)


@main.group(name="cof")
def cofib():
    """Cofibration solver utilities."""


@cofib.command("entails")
@click.argument("hyp")
@click.argument("goal")
def cof_entails(hyp, goal):
    """Decide whether HYP entails GOAL (cofibration formulas)."""
    try:
        h = parse_cof(hyp)
        g = parse_cof(goal)
    except SyntaxError_ as e:
        raise click.UsageError(str(e))
    res = coflogic.entails([h], g)
    _emit({"operation": "cof-entails", "inputs": {"hyp": hyp, "goal": goal},
           "result": res}, human=str(res).lower())


# ---------------------------------------------------------------------------
# cubelab objects

def _usage_on_value_error(fn, *args):
    """Call a cubelab constructor, reporting a ValueError (an object it
    does not apply to) as a usage error."""
    try:
        return fn(*args)
    except ValueError as e:
        raise click.UsageError(str(e))


_OBJ_RE = re.compile(r"\s*(I[0-9]+|Delta[0-9]+|1|T\(|horn|\(|\)|\*|/S[0-9]+)")


def _charge(site, sizes: list[int], what: str) -> None:
    """Refuse to build an object whose action tables, for levels of these
    sizes, would hold more entries than the budget."""
    need = table_size(site, sizes)
    if need > CONFIG.budget:
        raise BudgetExceeded(f"{what} needs {need} action-table entries, "
                             f"over budget {CONFIG.budget}")


def parse_lab_object(expr: str, D: int) -> FinPresheaf:
    """Object expressions: I<n>, Delta<n>, 1, horn, T(X), X*Y, I<n>/S<n>.
    Representables and products are charged to the budget before they are
    built (``BudgetExceeded``)."""
    pos = 0

    def peek():
        m = _OBJ_RE.match(expr, pos)
        return m.group(1) if m else None

    def advance():
        nonlocal pos
        m = _OBJ_RE.match(expr, pos)
        pos = m.end()
        return m.group(1)

    def atom() -> FinPresheaf:
        tok = peek()
        if tok is None:
            raise click.UsageError(f"cannot parse object {expr!r}")
        advance()
        if tok.startswith("I"):
            n = int(tok[1:])
            _charge(cubes, [cubes.count(d, n) for d in range(D + 1)], tok)
            X = representable_cube(n, D)
        elif tok.startswith("Delta"):
            return delta(int(tok[5:]), D)
        elif tok == "1":
            X = terminal_cube(D)
        elif tok == "horn":
            X = _usage_on_value_error(horn_box_domain, D)
        elif tok == "T(":
            inner = obj()
            if peek() != ")":
                raise click.UsageError("expected ')'")
            advance()
            return _usage_on_value_error(triangulate, inner)
        elif tok == "(":
            X = obj()
            if peek() != ")":
                raise click.UsageError("expected ')'")
            advance()
        else:
            raise click.UsageError(f"unexpected {tok!r}")
        if peek() and peek().startswith("/S"):
            k = int(advance()[2:])
            X = _usage_on_value_error(quotient_by_group, X, full_symmetric(k))
        return X

    def obj() -> FinPresheaf:
        X = atom()
        while peek() == "*":
            advance()
            Y = atom()
            _charge(X.site, [x * y for x, y in zip(X.level_sizes(),
                                                   Y.level_sizes())],
                    "product")
            X = _usage_on_value_error(product, X, Y)
        return X

    out = obj()
    if expr[pos:].strip():
        raise click.UsageError(f"trailing input in object {expr!r}")
    return out


def _parse_map(text: str, dom: int, cod: int, what: str):
    """A cube map I^dom -> I^cod from its comma-separated middles."""
    entries = {"b": 0, "t": dom + 1, **{str(j): j for j in range(1, dom + 1)}}
    toks = [t.strip() for t in text.split(",")] if text.strip() else []
    for tok in toks:
        if tok not in entries:
            raise click.UsageError(
                f"table entry {tok!r} is not b, t or an axis 1..{dom}")
    if len(toks) != cod:
        raise click.UsageError(f"need {cod} {what} entries")
    return make_cube_map(dom, cod, tuple(entries[t] for t in toks))


def _within_budget(report: dict, search, *args, **kwargs):
    """Run a bounded search; if it exceeds the budget, emit ``report`` as
    budget-exceeded and exit 3."""
    try:
        return search(*args, **kwargs)
    except BudgetExceeded as e:
        _emit({**report, "result": "budget-exceeded", "detail": str(e)},
              human=f"budget exceeded: {e}")
        sys.exit(3)


@main.group()
def lab():
    """Finite cube-combinatorics laboratory."""


@lab.command("hom-count")
@click.argument("m", type=click.IntRange(min=0))
@click.argument("n", type=click.IntRange(min=0))
def hom_count(m, n):
    """|Hom(I^m, I^n)|."""
    count = _usage_on_value_error(count_hom, m, n)
    _emit({"operation": "hom-count", "inputs": {"m": m, "n": n},
           "result": count}, human=str(count))


@lab.command("automorphisms")
@click.argument("n", type=click.IntRange(min=1))
def lab_automorphisms(n):
    """The automorphism group of I^n."""
    g = automorphisms(n)
    _emit({"operation": "automorphisms", "inputs": {"n": n},
           "result": len(g.perms),
           "witness": [list(p) for p in g.perms]},
          human=f"{len(g.perms)} automorphisms: "
                + " ".join(str(list(p)) for p in g.perms))


@lab.command("ez-factor")
@click.option("--dom", type=click.IntRange(min=0), required=True)
@click.option("--cod", type=click.IntRange(min=0), required=True)
@click.option("--table", required=True,
              help="comma-separated middles of the bipointed table "
                   "<cod> -> <dom>; entries b, t or an axis number")
def lab_ez(dom, cod, table):
    """Factor a cube map as a split epi followed by a mono."""
    f = _parse_map(table, dom, cod, "table")
    e, m = ez_factor(f)
    ok = compose(m, e) == f
    sec = find_section(e)
    _emit({"operation": "ez-factor",
           "inputs": {"dom": dom, "cod": cod, "table": list(f.table)},
           "result": {"epi": list(e.table), "mid_dim": e.cod,
                      "mono": list(m.table),
                      "composes": ok,
                      "section": list(sec.table) if sec else None,
                      "mono_cancellable": is_mono(m.dom, m.table)}},
          human=f"{f!r} = {m!r} . {e!r} (composes: {ok})")


@lab.command("quotient")
@click.argument("obj")
@click.argument("group")
def lab_quotient(obj, group):
    """Quotient a representable I<n> by its axis permutations S<n>."""
    D = CONFIG.dim
    m = re.fullmatch(r"S([0-9]+)", group)
    if not m:
        raise click.UsageError("group must be S<k>")
    report = {"operation": "quotient", "inputs": {"obj": obj, "group": group},
              "bounds": {"D": D}}
    X = _within_budget(report, parse_lab_object, obj, D)
    Q = _usage_on_value_error(quotient_by_group, X,
                              full_symmetric(int(m.group(1))))
    _emit({**report, "cell-counts": Q.level_sizes()},
          human=f"levels: {Q.level_sizes()}")


@lab.command("triangulate")
@click.argument("obj")
def lab_triangulate(obj):
    """Triangulate a cubical set; reports level sizes and nondegeneracies."""
    D = CONFIG.dim
    report = {"operation": "triangulate", "inputs": {"obj": obj},
              "bounds": {"D": D}}
    T = _usage_on_value_error(
        triangulate, _within_budget(report, parse_lab_object, obj, D))
    nd = [len(nondegenerate(T, d)) for d in range(D + 1)]
    _emit({**report, "cell-counts": T.level_sizes(),
           "result": {"nondegenerate": nd}},
          human=f"levels: {T.level_sizes()} nondegenerate: {nd}")


@lab.command("iso")
@click.option("--lhs", required=True)
@click.option("--rhs", required=True)
def lab_iso(lhs, rhs):
    """Search for an isomorphism between two objects."""
    D = CONFIG.dim
    base = {"operation": "iso", "inputs": {"lhs": lhs, "rhs": rhs},
            "bounds": {"D": D}}
    X = _within_budget(base, parse_lab_object, lhs, D)
    Y = _within_budget(base, parse_lab_object, rhs, D)
    r = _within_budget(base, iso_search, X, Y, budget=CONFIG.budget)
    report = {**base, "cell-counts": X.level_sizes(),
              "result": "isomorphic" if r.found else "not-isomorphic"}
    if r.found:
        report["witness"] = {
            str(d): {str(X.levels[d][x]): str(Y.levels[d][y])
                     for x, y in enumerate(r.witness[d])}
            for d in r.witness}
        human = f"isomorphic (levels {X.level_sizes()})"
    else:
        report["refutation"] = r.reason
        human = f"not isomorphic: {r.reason}"
    _emit(report, human=human)


def _cubical_object(expr: str, D: int) -> FinPresheaf:
    X = parse_lab_object(expr, D)
    if X.site is not cubes:
        raise click.UsageError(
            f"lift-check needs a cubical object; {expr!r} is simplicial")
    return X


@lab.command("lift-check")
@click.option("--map", "map_expr", required=True,
              help="a map expression X->1 (unique map to the terminal) "
                   "or id(X)")
@click.option("--nmax", type=click.IntRange(min=0), required=True)
@click.option("--kmax", type=click.IntRange(min=1), required=True)
def lab_lift(map_expr, nmax, kmax):
    """Bounded equivariant-lifting certificate for a map."""
    D = CONFIG.dim
    base = {"operation": "lift-check", "inputs": {"map": map_expr},
            "bounds": {"n_max": nmax, "k_max": kmax, "D": D}}
    m = re.fullmatch(r"\s*id\((.+)\)\s*", map_expr)
    if m:
        X = _within_budget(base, _cubical_object, m.group(1), D)
        f = PresheafMap(X, X, {d: {c: c for c in X.cells(d)}
                               for d in range(D + 1)})
    else:
        m = re.fullmatch(r"\s*(.+?)\s*->\s*1\s*", map_expr)
        if not m:
            raise click.UsageError("map must be 'X->1' or 'id(X)'")
        X = _within_budget(base, _cubical_object, m.group(1), D)
        f = presheaf_map_to_terminal(X)
    rep = _within_budget(base, check_equivariant_lifting, f, nmax, kmax, D,
                         budget=CONFIG.budget)
    out = rep.to_json()
    out["operation"] = "lift-check"
    out["inputs"] = {"map": map_expr}
    _emit(out, human=("pass: " if rep.passed else "fail: ") + rep.detail)


@lab.command("open-box")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--zeta", required=True,
              help="middles of the table <k> -> <n> (b, t or axis number), "
                   "comma separated")
@click.option("--sub", default="empty",
              type=click.Choice(["empty", "full", "v0", "v1"]),
              help="the subobject C of I^n")
def lab_open_box(n, k, zeta, sub):
    """Build an open box and report its levelwise cell counts."""
    D = CONFIG.dim
    z = _parse_map(zeta, n, k, "zeta")
    C = {"empty": sub_empty, "full": sub_full,
         "v0": lambda a, b: sub_vertex(a, b, 0),
         "v1": lambda a, b: sub_vertex(a, b, 1)}[sub](n, D)
    dom, amb = _usage_on_value_error(build_open_box, n, k, C, index(z), D)
    inj = all(set(dom.levels[d]) <= set(amb.levels[d]) for d in range(D + 1))
    _emit({"operation": "open-box",
           "inputs": {"n": n, "k": k, "zeta": list(z.table), "sub": sub},
           "bounds": {"D": D},
           "cell-counts": {"domain": dom.level_sizes(),
                           "ambient": amb.level_sizes()},
           "result": {"levelwise-injective": inj}},
          human=f"dom {dom.level_sizes()} in amb {amb.level_sizes()}")


if __name__ == "__main__":
    main()
