"""Seeded ``.ectt`` modules whose verdicts are known by construction.

Nothing here imports eqctt: every expected verdict, diagnostic code and
warning count is derived from the way the generator builds the term, and the
Sigma_k-equivalence of two stuck comps is decided on their tuples by
``sigma_equivalent``.

Two families:

* ``kernel_check_modules``: declarations ``<m> <n> comp^k ...`` whose declared
  type is a path type with the comp's own substitution instances as
  endpoints, so ``(<m> t) @ 0 = t[0/m]`` makes them well typed.  Tube bodies
  and the cap are one value of the line written in several ways, so every
  system is compatible and agrees with its cap.  Ill-typed variants change
  one thing, and the diagnostic it triggers first is fixed by the checker's
  rule order (guards, bodies, system, cap type, cap boundary).
* ``kernel_sigma_modules``: two declarations per module, each stating that
  a stuck ``comp^k`` at a neutral line equals a twin.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

HEADER = """\
postulate A : U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b
postulate p2 : Path (i. A) a b
postulate L : Path (i. U0) A A
postulate q : Path (i. L @ i) a b
postulate q2 : Path (i. L @ i) b a
"""
HEADER_NAMES = ["A", "a", "b", "p", "p2", "L", "q", "q2"]

DIRS = ("u", "v", "w")
OUTER = ("m", "n")

GUARD_NEVER = "GuardNeverHolds"
BOUNDARY = "BoundaryMismatch"
INCOMPATIBLE = "IncompatibleSystem"
UNBOUND = "UnboundVariable"
ARITY = "ArityMismatch"
MISMATCH = "TypeMismatch"


# ---------------------------------------------------------------------------
# cofibrations: ('eq', l, r) | ('and', g, h) | ('or', g, h) | ('tt',) | ('ff',)
# with l, r in {'0', '1'} or a variable name

def guard_text(g, sub: dict[str, str] | None = None) -> str:
    """Concrete syntax of a guard, after substituting ``sub``."""
    sub = sub or {}
    tag = g[0]
    if tag == "eq":
        return f"{sub.get(g[1], g[1])} = {sub.get(g[2], g[2])}"
    if tag in ("and", "or"):
        op = " /\\ " if tag == "and" else " \\/ "
        return f"({guard_text(g[1], sub)}{op}{guard_text(g[2], sub)})"
    return tag


def guard_vars(g) -> set[str]:
    if g[0] == "eq":
        return {x for x in g[1:] if x not in ("0", "1")}
    if g[0] in ("and", "or"):
        return guard_vars(g[1]) | guard_vars(g[2])
    return set()


def guard_holds(g, env: dict[str, str]) -> bool:
    """Truth of a guard under a total 0/1 assignment."""
    tag = g[0]
    if tag == "eq":
        return env.get(g[1], g[1]) == env.get(g[2], g[2])
    if tag == "tt":
        return True
    if tag == "ff":
        return False
    if tag == "and":
        return guard_holds(g[1], env) and guard_holds(g[2], env)
    return guard_holds(g[1], env) or guard_holds(g[2], env)


def guard_satisfiable(g, sub: dict[str, str]) -> bool:
    """Is the guard consistent after substituting ``sub``?

    A conjunction of interval equations is consistent iff it does not force
    0 = 1, iff some 0/1 assignment satisfies it, so brute force over the
    remaining variables decides it.
    """
    free = sorted(guard_vars(g) - set(sub))
    for bits in itertools.product("01", repeat=len(free)):
        if guard_holds(g, {**sub, **dict(zip(free, bits))}):
            return True
    return False


# ---------------------------------------------------------------------------
# line heads of kernel-check comps

@dataclass(frozen=True)
class Head:
    name: str
    line: str              # the comp's line over DIRS[0] (format key d)
    values: tuple[str, ...]  # one value of the line, written several ways
    bad: str               # a different value of the same type
    wrong_type: str        # a term of another type
    dep_body: str = ""     # a body that depends on one direction (key d)
    dep_bad: str = ""


HEADS = (
    Head("neutral", "A", ("a", "(p @ 0)", "(let y : A = a in y)", "(q @ 0)"),
         "b", "p", dep_body="p @ {d}", dep_bad="b"),
    Head("pi", "(x : A) -> A",
         ("(\\x. x)", "(\\z. z)", "(\\x. let y : A = x in y)"),
         "(\\x. a)", "a"),
    Head("sigma", "(y : A) * A", ("(a , a)", "((p @ 0) , a)", "(a , (q @ 0))"),
         "(b , a)", "a"),
    Head("path", "Path (j. A) a b", ("p", "(<j> p @ j)", "(<h> p @ h)"),
         "p2", "a"),
    # the line depends on the first direction; its cap sits at L @ 0 = A
    Head("lineL", "L @ {d}", ("a", "(q @ 0)"), "", "p",
         dep_body="q @ {d}", dep_bad="q2 @ {d}"),
)


@dataclass
class CompSpec:
    """A comp whose intervals may mention the outer variables."""
    k: int
    head: Head
    tube: list  # [(guard, body text)]
    cap: str
    nest_ends: list  # the cap is wrapped in one comp r ~> r per entry
    src: tuple
    tgt: tuple

    def text(self, sub: dict[str, str]) -> str:
        def iv(x):
            return sub.get(x, x)

        def tup(xs):
            xs = [iv(x) for x in xs]
            return xs[0] if len(xs) == 1 else "(" + ",".join(xs) + ")"

        dirs = DIRS[:self.k]
        line = self.head.line.format(d=dirs[0])
        cap = self.cap
        cap_line = "A" if self.head.name == "lineL" else self.head.line
        for r in self.nest_ends:
            cap = f"(comp^1 (e. {cap_line}) [] {cap} : {iv(r)} ~> {iv(r)})"
        branches = " | ".join(
            f"{guard_text(g, sub)} -> {' '.join(dirs)}. {body}"
            for g, body in self.tube)
        return (f"comp^{self.k} ({' '.join(dirs)}. {line}) [ {branches} ] "
                f"{cap} : {tup(self.src)} ~> {tup(self.tgt)}")

    def type_at_target(self) -> str:
        if self.head.name == "lineL":
            return f"L @ {self.tgt[0]}"
        return self.head.line


def _occurrences(depth: int) -> list[dict[str, str]]:
    """The substitution instances of the comp that the checker checks as
    syntax: the endpoints written in the declared type, then the body."""
    if depth == 0:
        return [{}]
    if depth == 1:
        return [{"m": "0"}, {"m": "1"}, {}]
    return [{"n": "0"}, {"n": "1"}, {"m": "0"}, {"m": "1"}, {}]


def _render_decl(name: str, c: CompSpec, depth: int) -> str:
    if depth == 0:
        return f"def {name} : {c.type_at_target()} = {c.text({})}"
    if depth == 1:
        return (f"def {name} : Path (m. {c.type_at_target()}) "
                f"({c.text({'m': '0'})}) ({c.text({'m': '1'})})\n"
                f"  = <m> {c.text({})}")
    inner = (f"Path (n. {c.type_at_target()}) "
             f"({c.text({'n': '0'})}) ({c.text({'n': '1'})})")
    return (f"def {name} : Path (m. {inner})\n"
            f"    (<n> {c.text({'m': '0'})}) (<n> {c.text({'m': '1'})})\n"
            f"  = <m> <n> {c.text({})}")


def _random_guard(rng: random.Random, outer: tuple[str, ...]):
    atoms = list(outer) + ["0", "1"]

    def atom():
        roll = rng.random()
        if roll < 0.08:
            return ("tt",) if rng.random() < 0.5 else ("ff",)
        x = rng.choice(list(outer)) if outer else rng.choice("01")
        y = rng.choice(atoms)
        return ("eq", x, y) if rng.random() < 0.5 else ("eq", y, x)

    shape = rng.random()
    if shape < 0.6:
        return atom()
    return ("and" if shape < 0.8 else "or", atom(), atom())


ERROR_KINDS = (BOUNDARY, INCOMPATIBLE, UNBOUND, ARITY, MISMATCH)


@dataclass
class Expect:
    """The verdict of one declaration: status, and the first diagnostic code
    for an error or the number of GuardNeverHolds warnings for a pass."""
    name: str
    status: str
    code: str | None = None
    warnings: int = 0


@dataclass
class Module:
    name: str
    text: str
    expect: list[Expect] = field(default_factory=list)


def _kernel_decl(rng: random.Random, spell: random.Random, name: str,
                 head: Head, k: int,
                 depth: int, tube_size: int, error_turn: int | None):
    outer = OUTER[:depth]
    ivals = list(outer) + ["0", "1"]
    dep = bool(head.dep_body) and (head.name == "lineL" or rng.random() < 0.5)
    dep_axis = 0 if head.name == "lineL" else rng.randrange(k)
    src = [rng.choice(ivals) for _ in range(k)]
    tgt = [rng.choice(ivals) for _ in range(k)]
    if dep:
        src[dep_axis] = "0"
    dirs = DIRS[:k]

    def good_body():
        if dep:
            return head.dep_body.format(d=dirs[dep_axis])
        return spell.choice(head.values)

    tube = [(_random_guard(rng, outer), good_body()) for _ in range(tube_size)]
    if tube_size and not any(guard_satisfiable(g, {}) for g, _ in tube):
        tube[0] = (("eq", outer[0], "0") if outer else ("tt",), tube[0][1])
    cap = spell.choice(head.values)
    nest = [rng.choice(ivals) for _ in range(rng.randrange(3))]

    code = None
    error = error_turn is not None
    if error:
        kinds = [UNBOUND, MISMATCH]
        if tube_size:
            kinds += [BOUNDARY, ARITY]
        if tube_size >= 2:
            kinds.append(INCOMPATIBLE)
        code = kinds[error_turn % len(kinds)]
        bad = head.dep_bad.format(d=dirs[dep_axis]) if dep else head.bad
        if code == UNBOUND:
            cap, nest = "zz", []
        elif code == MISMATCH:
            cap, nest = head.wrong_type, []
        elif code == BOUNDARY:
            tube = [(g, bad) for g, _ in tube]
        elif code == ARITY:
            j = rng.randrange(tube_size)
            tube[j] = (("eq", rng.choice(dirs), rng.choice("01")), tube[j][1])
        else:  # INCOMPATIBLE: two branches under one guard that holds at
            # the first checked occurrence, with different bodies
            g = ("eq", outer[0], "0") if outer else ("eq", "0", "0")
            tube[0] = (g, good_body())
            tube[1] = (g, bad)
    spec = CompSpec(k, head, tube, cap, nest, tuple(src), tuple(tgt))
    if error:
        exp = Expect(name, "error", code)
    else:
        warnings = sum(1 for sub in _occurrences(depth) for g, _ in tube
                       if not guard_satisfiable(g, sub))
        exp = Expect(name, "ok", None, warnings)
    return _render_decl(name, spec, depth), exp


# interchangeable names for the two outer interval variables
OUTER_SPELLINGS = (("m", "n"), ("i1", "i2"), ("r", "s"), ("mm", "nn"))


def kernel_check_modules(seed: int, modules: int = 20,
                         decls_per_module: int = 9) -> list[Module]:
    """Generated modules for the kernel-check workload.

    The structure of every declaration (head, comp dimension, depth, tube
    size, guards, tuples, cap nesting, error kind) comes from one fixed
    stream, so the work per pass does not depend on the seed: with the
    structure drawn per seed it varied by a third between seeds, most of it
    from a few comp^3 declarations at depth 2.  The seed picks how each value
    is spelled, the names of the outer interval variables and (in
    workloads.py) the order of the modules.  Head, comp dimension and depth
    run through all their combinations in an order that mixes cheap and dear
    ones in every module; every third declaration carries an error of the
    next kind its tube size allows.
    """
    rng = random.Random("kernel-check/structure")
    spell = random.Random(f"kernel-check/{seed}")
    combos = list(itertools.product(HEADS, (1, 2, 3), (0, 1, 2)))
    order = []
    while len(order) < modules * decls_per_module:
        rng.shuffle(combos)
        order += combos
    out = []
    for mi in range(modules):
        lines = [HEADER]
        exp = [Expect(n, "ok") for n in HEADER_NAMES]
        for j in range(decls_per_module):
            idx = mi * decls_per_module + j
            head, k, depth = order[idx]
            text, e = _kernel_decl(rng, spell, f"d{idx}", head, k, depth,
                                   tube_size=idx % 4,
                                   error_turn=idx // 3 if idx % 3 == 2 else None)
            m, n = spell.choice(OUTER_SPELLINGS)
            text = re.sub(r"\b[mn]\b", lambda x: m if x.group() == "m" else n,
                          text)
            lines.append(text)
            exp.append(e)
        out.append(Module(f"gen{mi:02d}", "\n\n".join(lines) + "\n", exp))
    return out


# The kept failing verdict: systems are unordered, so a path lambda equals
# its twin with the two tube branches listed in the other order.  This input
# does not depend on the seed.
SWAP_MODULE = Module("swap", """\
postulate A : U0
postulate a : A
postulate b : A
postulate p : Path (i. A) a b

def s1 : Path (k. A) b a
  = <k> comp^1 (i. A) [ k = 0 -> i. p @ i | k = 1 -> i. a ] a : 0 ~> 1

def s2 : Path (k. A) b a
  = <k> comp^1 (i. A) [ k = 1 -> i. a | k = 0 -> i. p @ i ] a : 0 ~> 1

def s12 : Path (n. Path (k. A) b a) s1 s2 = <n> s1
""", [Expect("A", "ok"), Expect("a", "ok"), Expect("b", "ok"),
      Expect("p", "ok"), Expect("s1", "ok"), Expect("s2", "ok"),
      Expect("s12", "ok")])

# How eqctt fails it today, and the only way it may fail: semantics'
# _comps_equal compares live branches in stored order, so s12 meets
# BoundaryMismatch while s1 and s2 pass.
SWAP_KEPT_FAILURE = SWAP_MODULE.expect[:-1] + [
    Expect("s12", "error", BOUNDARY)]


# The five corpus files and what the mathematics says about them: every
# declaration holds, except that bad-boundary's cap disagrees with its tube.
CORPUS_EXPECT = {
    "funext.ectt": None,
    "contract.ectt": None,
    "j.ectt": None,
    "comps.ectt": None,
    "bad-boundary.ectt": {"bad": BOUNDARY},
}


# ---------------------------------------------------------------------------
# kernel-sigma: stuck comps modulo Sigma_k

SIGMA_HEADER = """\
postulate A : U0
postulate a : A
postulate F : Path (i. Path (j. U0) A A) (<j> A) (<j> A)
"""
SIGMA_DIRS = ("d1", "d2", "d3", "d4", "d5", "d6")


@dataclass(frozen=True)
class StuckComp:
    """comp^k (dirs. line) [] a : src ~> tgt, where the line is A if ``dep``
    is empty and F @ dirs[dep[0]] @ dirs[dep[1]] otherwise."""
    dep: tuple[int, ...]
    src: tuple[str, ...]
    tgt: tuple[str, ...]

    def text(self) -> str:
        k = len(self.src)
        dirs = SIGMA_DIRS[:k]
        line = ("A" if not self.dep else
                "F @ " + " @ ".join(dirs[x] for x in self.dep))
        return (f"comp^{k} ({' '.join(dirs)}. {line}) [] a : "
                f"({','.join(self.src)}) ~> ({','.join(self.tgt)})")

    def permuted(self, q: tuple[int, ...]) -> "StuckComp":
        """Move direction j to position q[j]: the equivariance rewrite."""
        k = len(self.src)
        src = [""] * k
        tgt = [""] * k
        for j in range(k):
            src[q[j]] = self.src[j]
            tgt[q[j]] = self.tgt[j]
        return StuckComp(tuple(q[x] for x in self.dep), tuple(src),
                         tuple(tgt))

    def reduces(self) -> bool:
        """The cap equation: source = target reduces the comp to its cap."""
        return self.src == self.tgt


def sigma_equivalent(c1: StuckComp, c2: StuckComp) -> bool:
    """Equal as terms: both reduce to the cap, or some permutation of the
    directions carries one onto the other."""
    if c1.reduces() or c2.reduces():
        return c1.reduces() and c2.reduces()
    k = len(c1.src)
    if len(c2.src) != k:
        return False
    return any(c1.permuted(q) == c2
               for q in itertools.permutations(range(k)))


def _random_stuck(rng: random.Random, k: int, dependent: bool) -> StuckComp:
    while True:
        src = tuple(rng.choice("01") for _ in range(k))
        tgt = tuple(rng.choice("01") for _ in range(k))
        if src != tgt:
            break
    dep = tuple(rng.sample(range(k), 2)) if dependent else ()
    return StuckComp(dep, src, tgt)


def _inequivalent_twin(rng: random.Random, c: StuckComp) -> StuckComp:
    k = len(c.src)
    while True:
        q = tuple(rng.sample(range(k), k))
        twin = c.permuted(q)
        src, tgt = list(twin.src), list(twin.tgt)
        j = rng.randrange(k)
        if rng.random() < 0.5:
            src[j] = "1" if src[j] == "0" else "0"
        else:
            tgt[j] = "1" if tgt[j] == "0" else "0"
        twin = StuckComp(twin.dep, tuple(src), tuple(tgt))
        if not twin.reduces() and not sigma_equivalent(c, twin):
            return twin


# The (k, dependent line) kinds of kernel-sigma's equations.  Measured, each
# kind costs about twice the one before it, from 5 ms (k = 3 at A) to 270 ms
# (k = 6 at A).  k = 6 at F @ x @ y is left out: at 0.57 s a declaration it
# would double the length of a pass.
SIGMA_KINDS = [(k, dep) for k in (3, 4, 5, 6) for dep in (False, True)][:-1]


def kernel_sigma_modules(seed: int) -> list[Module]:
    """Modules stating two equations e1 and e2 between a stuck comp and a
    twin, one module per pair of kinds: each kind with itself, and any two
    different kinds of which one has k >= 5.

    A module costs about the sum of its two kinds, so the modules' costs lie
    close together all the way up.  With one equation per module, the median
    verdict fell inside a group of equal cost and jumped by half when the
    machine's speed changed.  Leaving out the pairs of two different kinds with
    k <= 4 puts the median among the six modules that cost one to one and a
    half k = 5 equations at F, measured.  The twin is a Sigma_k permutation
    of the comp (accepted) or a twin with inequivalent tuples (rejected with
    BoundaryMismatch), alternately."""
    rng = random.Random(f"kernel-sigma/{seed}")
    out = []
    pairs = [(x, y) for x, y in
             itertools.combinations_with_replacement(SIGMA_KINDS, 2)
             if x == y or max(x[0], y[0]) >= 5]
    for i, pair in enumerate(pairs):
        decls = []
        exp = [Expect("A", "ok"), Expect("a", "ok"), Expect("F", "ok")]
        for j, (k, dependent) in enumerate(pair):
            accept = (i + j) % 2 == 0
            c = _random_stuck(rng, k, dependent)
            if accept:
                twin = c.permuted(tuple(rng.sample(range(k), k)))
            else:
                twin = _inequivalent_twin(rng, c)
            ok = sigma_equivalent(c, twin)
            assert ok == accept
            name = f"e{j + 1}"
            decls.append(f"def {name} : Path (t. A) ({c.text()}) "
                         f"({twin.text()})\n  = <t> {c.text()}\n")
            exp.append(Expect(name, "ok") if ok else
                       Expect(name, "error", BOUNDARY))
        tag = "-".join(f"k{k}{'F' if dep else 'A'}" for k, dep in pair)
        out.append(Module(f"sigma{i:02d}-{tag}",
                          SIGMA_HEADER + "\n" + "\n".join(decls), exp))
    return out


def main() -> None:
    import argparse
    ap = argparse.ArgumentParser(
        description="write one seed's generated modules and their expected "
                    "verdicts (expected.json) to a directory")
    ap.add_argument("workload", choices=("kernel-check", "kernel-sigma"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    modules = (kernel_check_modules(args.seed) + [SWAP_MODULE]
               if args.workload == "kernel-check"
               else kernel_sigma_modules(args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    for m in modules:
        (args.out / f"{m.name}.ectt").write_text(m.text)
    (args.out / "expected.json").write_text(json.dumps(
        {m.name: [asdict(e) for e in m.expect] for m in modules}, indent=1))


if __name__ == "__main__":
    main()
