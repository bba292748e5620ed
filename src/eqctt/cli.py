"""Command-line driver.

Exit codes: 0 success, 1 semantic failure, 2 usage or I/O error, 3 budget
exceeded.  Each setting comes from its flag, else from its EQCTT_*
environment variable, else from its default; ``main`` resolves them once
per invocation into the ``Settings`` that the command reads.  With
``--json`` every command prints a single machine-readable report with
sorted keys, suitable for golden-file comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

from . import cof as coflogic
from .parser import SyntaxError_, parse_cof, parse_module
from .printer import print_term
from .semantics import K_MAX, quote
from .syntax import reset_fresh
from .typecheck import check_module
from .cubelab import cubes, simplicial
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


class UsageError(Exception):
    """A command line that cannot run: exit 2 with an ``Error:`` line."""


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated option, and raises its errors with its usage,
    so that ``main`` reports every usage error one way."""

    def __init__(self, **options):
        super().__init__(allow_abbrev=False, **options)

    def error(self, message: str):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _count(low: int):
    """The argument type of an integer that is at least ``low``."""
    def count(raw: str) -> int:
        if re.fullmatch(r"\s*[-+]?[0-9]+\s*", raw) and int(raw) >= low:
            return int(raw)
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer >= {low}")
    return count


def _boolean(raw: str) -> bool:
    word, true = raw.strip().lower(), ("1", "true", "t", "yes", "y", "on")
    if word not in true + ("0", "false", "f", "no", "n", "off"):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a boolean")
    return word in true


# each setting: its flag, its variable, its type, its default and its help
SETTINGS = {
    "json": ("--json", "EQCTT_JSON", _boolean, False,
             "machine-readable output"),
    "k_max": ("--kmax", "EQCTT_KMAX", _count(1), K_MAX,
              "permutation bound for stuck comps"),
    "dim": ("--dim", "EQCTT_DIM", _count(1), 3,
            "cubelab truncation dimension"),
    "budget": ("--budget", "EQCTT_BUDGET", _count(1), 500_000,
               "combinatorial search node cap; also caps the action-table "
               "entries of each lab object"),
}


class Settings:
    """The settings of one invocation: each from its flag, else from its
    variable (an empty one is unset), else its default."""
    __slots__ = tuple(SETTINGS)

    def __init__(self, flags: argparse.Namespace):
        for name, (flag, var, convert, default, _) in SETTINGS.items():
            raw, source = getattr(flags, name), flag
            if raw is None:
                raw, source = os.environ.get(var) or None, var
            try:
                setattr(self, name, default if raw is None else convert(raw))
            except argparse.ArgumentTypeError as e:
                raise UsageError(f"invalid value for {source}: {e}")

    def emit(self, report: dict, human: str) -> None:
        # sys.stdout is looked up per call, so nothing keeps a buffer that an
        # in-process caller swaps in for it
        print(json.dumps(report, sort_keys=True) if self.json else human,
              file=sys.stdout)

    def charge(self, need: int, what: str,
               unit: str = "action-table entries") -> None:
        """Refuse to build what needs more than the budget."""
        if need > self.budget:
            raise BudgetExceeded(f"{what} needs {need} {unit}, over budget "
                                 f"{self.budget}")

    @contextlib.contextmanager
    def budget_exit(self, report: dict):
        """Exit 3 with ``report`` as budget-exceeded if the block exceeds
        the budget."""
        try:
            yield
        except BudgetExceeded as e:
            self.emit({**report, "result": "budget-exceeded",
                       "detail": str(e)}, human=f"budget exceeded: {e}")
            sys.exit(3)


# built once per process: the settings' flags, then each group's commands
PARSER = _Parser(prog="eqctt", description="eqctt: equivariant cartesian "
                 "cubical type checker and cube lab.")
for _name, (_flag, _var, _, _default, _text) in SETTINGS.items():
    PARSER.add_argument(_flag, dest=_name,
                        help=f"{_text} (${_var}; default {_default})",
                        **({"action": "store_const", "const": "true"}
                           if _name == "json" else {"metavar": "N"}))
_GROUPS = {"": PARSER.add_subparsers(required=True, metavar="COMMAND")}
for _group, _text in (("cof", "Cofibration solver utilities."),
                      ("lab", "Finite cube-combinatorics laboratory.")):
    _GROUPS[_group] = _GROUPS[""].add_parser(
        _group, help=_text, description=_text).add_subparsers(
        required=True, metavar="COMMAND")


def command(path: str, *arguments: tuple):
    """Add ``f(settings, args)`` to the parser as the command at this
    space-separated path, with the ``(names, options)`` of its arguments."""
    def add(fn):
        group, _, name = path.rpartition(" ")
        p = _GROUPS[group].add_parser(name, help=fn.__doc__,
                                        description=fn.__doc__)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(run=fn)
        return fn
    return add


def arg(*names: str, **options) -> tuple:
    return names, options


def _check_file(path: str, k_max: int):
    try:
        with open(path, encoding="utf-8") as fh:
            src = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
    try:
        decls = parse_module(src)
    except SyntaxError_ as e:
        return None, {"file": path, "decls": [
            {"name": "<parse>", "status": "error",
             "diagnostics": [{"code": e.code, "message": e.message,
                              "line": e.pos[0], "col": e.pos[1]}]}]}
    mod = check_module(decls, k_max)
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


@command("check", arg("path"))
def check(s: Settings, a):
    """Type check every declaration in an .ectt file."""
    mod, report = _check_file(a.path, s.k_max)
    if s.json or report["decls"]:
        s.emit(report, "\n".join(_report_lines(report)))
    sys.exit(0 if mod is not None and mod.report.ok else 1)


@command("normalize", arg("path"),
         arg("--def", dest="name", required=True,
             help="definition to normalize"))
def normalize(s: Settings, a):
    """Print the eta-long beta-normal form of a definition."""
    mod, report = _check_file(a.path, s.k_max)
    if mod is None or not mod.report.ok:
        print("file does not type check:", *_report_lines(report),
              sep="\n", file=sys.stderr)
        sys.exit(1)
    if a.name not in mod.values:
        print(f"error: unknown name {a.name!r}", file=sys.stderr)
        sys.exit(1)
    nf = print_term(quote(mod.types[a.name], mod.values[a.name]))
    s.emit({"operation": "normalize",
            "inputs": {"file": a.path, "def": a.name}, "result": nf}, human=nf)


@command("cof entails", arg("hyp"), arg("goal"))
def cof_entails(s: Settings, a):
    """Decide whether HYP entails GOAL (cofibration formulas)."""
    try:
        res = coflogic.entails([parse_cof(a.hyp)], parse_cof(a.goal))
    except SyntaxError_ as e:
        raise UsageError(str(e))
    s.emit({"operation": "cof-entails",
            "inputs": {"hyp": a.hyp, "goal": a.goal}, "result": res},
           human=str(res).lower())


# ---------------------------------------------------------------------------
# cubelab objects

def _usage_on_value_error(fn, *args):
    """Call a cubelab constructor, reporting a ValueError (an object it
    does not apply to) as a usage error."""
    try:
        return fn(*args)
    except ValueError as e:
        raise UsageError(str(e))


_OBJ_RE = re.compile(r"\s*(I[0-9]+|Delta[0-9]+|1|T\(|horn|\(|\)|\*|/S[0-9]+)")


def parse_lab_object(expr: str, s: Settings) -> FinPresheaf:
    """Object expressions: I<n>, Delta<n>, 1, horn, T(X), X*Y, I<n>/S<n>,
    truncated at ``s.dim``.  Representables, products, ``1`` (charged as
    I0) and ``horn`` (charged as the I2 it sits in) are charged to the
    budget before they are built (``BudgetExceeded``)."""
    D, toks, pos = s.dim, [], 0
    while m := _OBJ_RE.match(expr, pos):
        toks.append(m.group(1))
        pos = m.end()
    toks.append(None)  # where the tokens end: the end, or input none starts

    def charge(site, n: int, what: str) -> None:
        s.charge(table_size(site, [site.count(d, n) for d in range(D + 1)]),
                 what)

    def closed(X: FinPresheaf) -> FinPresheaf:
        if toks.pop(0) != ")":
            raise UsageError("expected ')'")
        return X

    def atom() -> FinPresheaf:
        tok = toks.pop(0)
        if tok is None:
            raise UsageError(f"cannot parse object {expr!r}")
        if tok.startswith("Delta"):
            charge(simplicial, int(tok[5:]), tok)
            return delta(int(tok[5:]), D)
        if tok == "T(":
            return _usage_on_value_error(triangulate, closed(obj()))
        if tok == "(":
            X = closed(obj())
        elif tok == "1":
            charge(cubes, 0, tok)
            X = terminal_cube(D)
        elif tok == "horn":
            charge(cubes, 2, tok)
            X = _usage_on_value_error(horn_box_domain, D)
        elif tok.startswith("I"):
            charge(cubes, int(tok[1:]), tok)
            X = representable_cube(int(tok[1:]), D)
        else:
            raise UsageError(f"unexpected {tok!r}")
        if toks[0] and toks[0].startswith("/S"):
            k = int(toks.pop(0)[2:])
            X = _usage_on_value_error(quotient_by_group, X, full_symmetric(k))
        return X

    def obj() -> FinPresheaf:
        X = atom()
        while toks[0] == "*":
            toks.pop(0)
            Y = atom()
            s.charge(table_size(X.site, [x * y for x, y in zip(
                X.level_sizes(), Y.level_sizes())]), "product")
            X = _usage_on_value_error(product, X, Y)
        return X

    out = obj()
    if toks[0] is not None or expr[pos:].strip():
        raise UsageError(f"trailing input in object {expr!r}")
    return out


def _parse_map(text: str, dom: int, cod: int, what: str):
    """A cube map I^dom -> I^cod from its comma-separated middles."""
    entries = {"b": 0, "t": dom + 1, **{str(j): j for j in range(1, dom + 1)}}
    toks = [t.strip() for t in text.split(",")] if text.strip() else []
    for tok in toks:
        if tok not in entries:
            raise UsageError(
                f"table entry {tok!r} is not b, t or an axis 1..{dom}")
    if len(toks) != cod:
        raise UsageError(f"need {cod} {what} entries")
    return make_cube_map(dom, cod, tuple(entries[t] for t in toks))


@command("lab hom-count", arg("m", type=_count(0)), arg("n", type=_count(0)))
def hom_count(s: Settings, a):
    """|Hom(I^m, I^n)|."""
    count = _usage_on_value_error(count_hom, a.m, a.n)
    s.emit({"operation": "hom-count", "inputs": {"m": a.m, "n": a.n},
            "result": count}, human=str(count))


@command("lab automorphisms", arg("n", type=_count(1)))
def lab_automorphisms(s: Settings, a):
    """The automorphism group of I^n."""
    report = {"operation": "automorphisms", "inputs": {"n": a.n}}
    with s.budget_exit(report):  # its n! permutations, before they are built
        s.charge(math.factorial(a.n), f"Aut(I^{a.n})", "permutations")
    perms = automorphisms(a.n).perms
    s.emit({**report, "result": len(perms),
            "witness": [list(p) for p in perms]},
           human=f"{len(perms)} automorphisms: "
                 + " ".join(str(list(p)) for p in perms))


@command("lab ez-factor", arg("--dom", type=_count(0), required=True),
         arg("--cod", type=_count(0), required=True),
         arg("--table", required=True,
             help="comma-separated middles of the bipointed table "
                  "<cod> -> <dom>; entries b, t or an axis number"))
def lab_ez(s: Settings, a):
    """Factor a cube map as a split epi followed by a mono."""
    f = _parse_map(a.table, a.dom, a.cod, "table")
    e, m = ez_factor(f)
    ok = compose(m, e) == f
    sec = find_section(e)
    s.emit({"operation": "ez-factor",
            "inputs": {"dom": a.dom, "cod": a.cod, "table": list(f.table)},
            "result": {"epi": list(e.table), "mid_dim": e.cod,
                       "mono": list(m.table), "composes": ok,
                       "section": list(sec.table) if sec else None,
                       "mono_cancellable": is_mono(m.dom, m.table)}},
           human=f"{f!r} = {m!r} . {e!r} (composes: {ok})")


@command("lab quotient", arg("obj"), arg("group"))
def lab_quotient(s: Settings, a):
    """Quotient a representable I<n> by its axis permutations S<n>."""
    m = re.fullmatch(r"S([0-9]+)", a.group)
    if not m:
        raise UsageError("group must be S<k>")
    report = {"operation": "quotient", "bounds": {"D": s.dim},
              "inputs": {"obj": a.obj, "group": a.group}}
    with s.budget_exit(report):
        X = parse_lab_object(a.obj, s)
    Q = _usage_on_value_error(quotient_by_group, X,
                              full_symmetric(int(m.group(1))))
    s.emit({**report, "cell-counts": Q.level_sizes()},
           human=f"levels: {Q.level_sizes()}")


@command("lab triangulate", arg("obj"))
def lab_triangulate(s: Settings, a):
    """Triangulate a cubical set; reports level sizes and nondegeneracies."""
    report = {"operation": "triangulate", "inputs": {"obj": a.obj},
              "bounds": {"D": s.dim}}
    with s.budget_exit(report):
        T = _usage_on_value_error(triangulate, parse_lab_object(a.obj, s))
    nd = [len(nondegenerate(T, d)) for d in range(s.dim + 1)]
    s.emit({**report, "cell-counts": T.level_sizes(),
            "result": {"nondegenerate": nd}},
           human=f"levels: {T.level_sizes()} nondegenerate: {nd}")


@command("lab iso", arg("--lhs", required=True), arg("--rhs", required=True))
def lab_iso(s: Settings, a):
    """Search for an isomorphism between two objects."""
    report = {"operation": "iso", "inputs": {"lhs": a.lhs, "rhs": a.rhs},
              "bounds": {"D": s.dim}}
    with s.budget_exit(report):
        X, Y = parse_lab_object(a.lhs, s), parse_lab_object(a.rhs, s)
        r = iso_search(X, Y, budget=s.budget)
    report["cell-counts"] = X.level_sizes()
    report["result"] = "isomorphic" if r.found else "not-isomorphic"
    if r.found:
        report["witness"] = {
            str(d): {str(X.levels[d][x]): str(Y.levels[d][y])
                     for x, y in enumerate(r.witness[d])}
            for d in r.witness}
        human = f"isomorphic (levels {X.level_sizes()})"
    else:
        report["refutation"] = r.reason
        human = f"not isomorphic: {r.reason}"
    s.emit(report, human=human)


# this --kmax has its own dest, so that it leaves the setting as it is
@command("lab lift-check",
         arg("--map", dest="map_expr", required=True,
             help="a map expression X->1 (unique map to the terminal) "
                  "or id(X)"),
         arg("--nmax", type=_count(0), required=True),
         arg("--kmax", dest="lift_kmax", metavar="KMAX", type=_count(1),
             required=True))
def lab_lift(s: Settings, a):
    """Bounded equivariant-lifting certificate for a map."""
    D = s.dim
    ident = re.fullmatch(r"\s*id\((.+)\)\s*", a.map_expr)
    m = ident or re.fullmatch(r"\s*(.+?)\s*->\s*1\s*", a.map_expr)
    if not m:
        raise UsageError("map must be 'X->1' or 'id(X)'")
    report = {"operation": "lift-check", "inputs": {"map": a.map_expr},
              "bounds": {"n_max": a.nmax, "k_max": a.lift_kmax, "D": D}}
    with s.budget_exit(report):
        X = parse_lab_object(m.group(1), s)
        if X.site is not cubes:
            raise UsageError("lift-check needs a cubical object; "
                             f"{m.group(1)!r} is simplicial")
        f = (PresheafMap(X, X, {d: {c: c for c in X.cells(d)}
                                for d in range(D + 1)})
             if ident else presheaf_map_to_terminal(X))
        rep = check_equivariant_lifting(f, a.nmax, a.lift_kmax, D,
                                        budget=s.budget)
    s.emit({**rep.to_json(), "operation": "lift-check",
            "inputs": report["inputs"]},
           human=("pass: " if rep.passed else "fail: ") + rep.detail)


@command("lab open-box", arg("--n", type=_count(0), required=True),
         arg("--k", type=_count(1), required=True),
         arg("--zeta", required=True,
             help="middles of the table <k> -> <n> (b, t or axis number), "
                  "comma separated"),
         arg("--sub", default="empty", choices=["empty", "full", "v0", "v1"],
             help="the subobject C of I^n"))
def lab_open_box(s: Settings, a):
    """Build an open box and report its levelwise cell counts."""
    D, n, k = s.dim, a.n, a.k
    z = _parse_map(a.zeta, n, k, "zeta")
    C = (sub_empty(n, D) if a.sub == "empty" else sub_full(n, D)
         if a.sub == "full" else sub_vertex(n, D, int(a.sub[1])))
    dom, amb = _usage_on_value_error(build_open_box, n, k, C, index(z), D)
    inj = all(set(dom.levels[d]) <= set(amb.levels[d]) for d in range(D + 1))
    s.emit({"operation": "open-box",
            "inputs": {"n": n, "k": k, "zeta": list(z.table), "sub": a.sub},
            "bounds": {"D": D},
            "cell-counts": {"domain": dom.level_sizes(),
                            "ambient": amb.level_sizes()},
            "result": {"levelwise-injective": inj}},
           human=f"dom {dom.level_sizes()} in amb {amb.level_sizes()}")


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """eqctt: equivariant cartesian cubical type checker and cube lab.

    Runs one invocation on ``args`` (by default the process's arguments)
    with its own supply of fresh names.  A usage error exits 2 with an
    ``Error:`` line on stderr; without ``standalone_mode`` it raises
    ``UsageError`` instead."""
    try:
        flags = PARSER.parse_args(args)
        settings = Settings(flags)
        reset_fresh()
        flags.run(settings, flags)
    except UsageError as e:
        if not standalone_mode:
            raise
        print(f"Error: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
