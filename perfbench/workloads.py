"""The four workloads: a seeded list of ``eqctt`` invocations per pass, each
with a check of its JSON report against an independent computation.

Every invocation passes every global flag, because ``eqctt.cli.main`` keeps
``--kmax``, ``--dim`` and ``--budget`` from an earlier in-process invocation
when a flag is left out.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kernel_gen
import oracles

BUDGET = "500000"


@dataclass
class Invocation:
    label: str
    args: list[str]
    # check(exit_code, stdout) -> None when the report is right, else a reason
    check: Callable[[int, str], str | None]
    # a check that passes only on the one known way this verdict fails
    kept_failure: Callable[[int, str], str | None] | None = None


def _flags(kmax: int, dim: int) -> list[str]:
    return ["--json", "--kmax", str(kmax), "--dim", str(dim),
            "--budget", BUDGET]


def _report(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# kernel verdicts

def _check_decls(expect: list[kernel_gen.Expect]):
    def check(code: int, out: str) -> str | None:
        decls = _report(out)["decls"]
        if [d["name"] for d in decls] != [e.name for e in expect]:
            return "declaration list differs"
        for d, e in zip(decls, expect):
            codes = [x["code"] for x in d["diagnostics"]]
            if d["status"] != e.status:
                return f"{e.name}: status {d['status']}, expected {e.status}"
            if e.status == "ok" and codes != [kernel_gen.GUARD_NEVER] * e.warnings:
                return f"{e.name}: diagnostics {codes}, expected " \
                       f"{e.warnings} GuardNeverHolds"
            if e.status == "error" and codes[:1] != [e.code]:
                return f"{e.name}: diagnostics {codes}, expected {e.code}"
        want_exit = 0 if all(e.status == "ok" for e in expect) else 1
        if code != want_exit:
            return f"exit code {code}, expected {want_exit}"
        return None
    return check


def _corpus_expect(path: Path, errors: dict | None) -> list[kernel_gen.Expect]:
    """Declaration names are read from the file by their leading keyword."""
    out = []
    for line in path.read_text().splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] in ("def", "postulate"):
            name = words[1]
            code = (errors or {}).get(name)
            out.append(kernel_gen.Expect(name, "error" if code else "ok", code))
    return out


def kernel_check(seed: int, root: Path, work: Path) -> list[Invocation]:
    invs = []
    for name, errors in kernel_gen.CORPUS_EXPECT.items():
        path = root / "corpus" / name
        invs.append(Invocation(f"corpus/{name}",
                               _flags(4, 3) + ["check", str(path)],
                               _check_decls(_corpus_expect(path, errors))))
    for m in kernel_gen.kernel_check_modules(seed) + \
            [kernel_gen.SWAP_MODULE]:
        path = work / f"{m.name}.ectt"
        path.write_text(m.text)
        kept = (_check_decls(kernel_gen.SWAP_KEPT_FAILURE)
                if m is kernel_gen.SWAP_MODULE else None)
        invs.append(Invocation(m.name, _flags(4, 3) + ["check", str(path)],
                               _check_decls(m.expect), kept))
    random.Random(f"order/{seed}").shuffle(invs)
    return invs


def kernel_sigma(seed: int, root: Path, work: Path) -> list[Invocation]:
    invs = []
    for m in kernel_gen.kernel_sigma_modules(seed):
        path = work / f"{m.name}.ectt"
        path.write_text(m.text)
        invs.append(Invocation(m.name, _flags(6, 3) + ["check", str(path)],
                               _check_decls(m.expect)))
    random.Random(f"order/{seed}").shuffle(invs)
    return invs


# ---------------------------------------------------------------------------
# cubelab verdicts

LAB_DIM = 3

# object expression -> (level sizes, nondegenerate counts of its triangulation)
_OBJECTS = {
    "I1": (oracles.representable_sizes(1, LAB_DIM),
           oracles.boolean_chains(1, LAB_DIM)),
    "I2": (oracles.representable_sizes(2, LAB_DIM),
           oracles.boolean_chains(2, LAB_DIM)),
    "I3": (oracles.representable_sizes(3, LAB_DIM),
           oracles.boolean_chains(3, LAB_DIM)),
    # I1 x I1 = I2 in the cartesian cube category
    "I1*I1": (oracles.representable_sizes(2, LAB_DIM),
              oracles.boolean_chains(2, LAB_DIM)),
    # T(I^n / Sigma_n) = Delta^n
    "I2/S2": (oracles.symmetric_quotient_sizes(2, LAB_DIM),
              oracles.simplex_nondegenerate(2, LAB_DIM)),
}


def _check_triangulate(obj: str):
    sizes, nondeg = _OBJECTS[obj]

    def check(code, out):
        r = _report(out)
        if code != 0:
            return f"exit code {code}"
        if r["cell-counts"] != sizes:
            return f"levels {r['cell-counts']}, expected {sizes}"
        if r["result"]["nondegenerate"] != nondeg:
            return f"nondegenerate {r['result']['nondegenerate']}, " \
                   f"expected {nondeg}"
        return None
    return check


def _check_quotient(n: int):
    sizes = oracles.symmetric_quotient_sizes(n, LAB_DIM)

    def check(code, out):
        r = _report(out)
        if code != 0 or r["cell-counts"] != sizes:
            return f"exit {code}, levels {r.get('cell-counts')}, " \
                   f"expected {sizes}"
        return None
    return check


def _check_iso(sizes: list[int], iso: bool):
    def check(code, out):
        r = _report(out)
        if code != 0:
            return f"exit code {code}"
        if r["result"] != ("isomorphic" if iso else "not-isomorphic"):
            return f"result {r['result']}"
        if not iso:
            return None if r.get("refutation") else "no refutation"
        if r["cell-counts"] != sizes:
            return f"levels {r['cell-counts']}, expected {sizes}"
        w = r["witness"]
        if sorted(w, key=int) != [str(d) for d in range(LAB_DIM + 1)]:
            return "witness levels"
        for d, size in enumerate(sizes):
            level = w[str(d)]
            if len(level) != size or len(set(level.values())) != size:
                return f"witness at level {d} is not a bijection of size {size}"
        return None
    return check


def lab_build(seed: int, root: Path, work: Path) -> list[Invocation]:
    """Eleven verdicts whose costs, measured, spread from 20 ms to 1.4 s; the
    middle one, iso T(I1*I1)/T(I2), is 2x and 1.35x from its neighbours, so
    the median verdict is always that one."""
    f = _flags(4, LAB_DIM)
    invs = [Invocation(f"triangulate {o}", f + ["lab", "triangulate", o],
                       _check_triangulate(o)) for o in _OBJECTS]
    invs += [Invocation(f"quotient I{n} S{n}",
                        f + ["lab", "quotient", f"I{n}", f"S{n}"],
                        _check_quotient(n)) for n in (1, 2)]
    for lhs, rhs, sizes, iso in (
            ("T(I2/S2)", "Delta2", oracles.simplex_sizes(2, LAB_DIM), True),
            ("T(I1*I1)", "T(I2)", oracles.representable_sizes(2, LAB_DIM), True),
            ("T(I1)", "Delta1", oracles.simplex_sizes(1, LAB_DIM), True),
            ("T(I2/S2)", "T(I1*I1)", None, False)):
        invs.append(Invocation(f"iso {lhs} {rhs}",
                               f + ["lab", "iso", "--lhs", lhs, "--rhs", rhs],
                               _check_iso(sizes, iso)))
    random.Random(f"order/{seed}").shuffle(invs)
    return invs


LIFT_DIM, LIFT_NMAX, LIFT_KMAX = 2, 1, 1


def _check_lift(passes: bool, squares: int | None):
    boxes = oracles.count_box_specs(LIFT_NMAX, LIFT_KMAX, LIFT_DIM)

    def check(code, out):
        r = _report(out)
        if code != 0:
            return f"exit code {code}"
        if r["passed"] is not passes:
            return f"passed {r['passed']}, expected {passes}"
        if r["boxes"] != boxes:
            return f"boxes {r['boxes']}, expected {boxes}"
        if passes:
            if squares is not None and r["squares"] != squares:
                return f"squares {r['squares']}, expected {squares}"
            return None
        if r["detail"] != "no lift exists for this open box":
            return f"detail {r['detail']!r}"
        ref = r.get("refutation") or {}
        n, k = ref.get("n"), ref.get("k")
        if not (isinstance(n, int) and isinstance(k, int)
                and 0 <= n <= LIFT_NMAX and 1 <= k <= LIFT_KMAX
                and len(ref.get("zeta", ())) == k + 2
                and len(ref.get("C_sizes", ())) == LIFT_DIM + 1
                and sorted(ref.get("top", {}), key=int)
                == [str(d) for d in range(LIFT_DIM + 1)]):
            return "refuting square has the wrong shape"
        return None
    return check


def lab_lift(seed: int, root: Path, work: Path) -> list[Invocation]:
    f = _flags(4, LIFT_DIM)
    bounds = ["--nmax", str(LIFT_NMAX), "--kmax", str(LIFT_KMAX)]
    boxes = oracles.count_box_specs(LIFT_NMAX, LIFT_KMAX, LIFT_DIM)
    invs = []
    for expr, passes, squares in (
            # the interval is not fibrant: the horn and I1 have no filler
            ("horn->1", False, None),
            ("I1->1", False, None),
            # one square per box into the terminal object
            ("1->1", True, boxes),
            ("id(1)", True, boxes),
            ("id(I1)", True, oracles.count_identity_squares(
                1, LIFT_NMAX, LIFT_KMAX, LIFT_DIM))):
        invs.append(Invocation(f"lift-check {expr}",
                               f + ["lab", "lift-check", "--map", expr] + bounds,
                               _check_lift(passes, squares)))
    random.Random(f"order/{seed}").shuffle(invs)
    return invs


WORKLOADS = {
    "kernel-check": kernel_check,
    "kernel-sigma": kernel_sigma,
    "lab-build": lab_build,
    "lab-lift": lab_lift,
}


def make_workdir(root: Path, workload: str, seed: int, pid: int) -> Path:
    work = root / "perfbench" / "out" / f"inputs-{workload}-{seed}-{pid}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work
