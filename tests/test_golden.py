"""Golden outputs: the exit code and ``--json`` stdout of the corpus checks,
the corpus normal forms, the lab invocations the benchmark runs and the
parse errors of two inline modules, each run in-process from the repository
root (the inline modules from a directory that holds them) so that reports
carry relative paths.

``golden.json`` is written by running this file as a script from the root
of a checkout (``PYTHONPATH=src python tests/test_golden.py``).  The
recorded outputs come from the commit before these tests were added; a
change that means to alter an output regenerates the file the same way and
lists the outputs that changed.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import tempfile

import pytest
from conftest import run_cli

from eqctt.syntax import fresh

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"


# parse errors: their positions come from the lexer and the depth guard
INLINE = {
    "tab-after-comment.ectt":
        "postulate A : U0 -- the type\n-- a comment $ here\n\t$ postulate a : A\n",
    "too-deep.ectt":
        "postulate A : U0\npostulate f : (x : A) -> A\npostulate a : A\n"
        "def t : A =\n  " + "f (" * 200 + "a" + ")" * 200 + "\n",
}


def _flags(dim: int) -> list[str]:
    return ["--json", "--kmax", "4", "--dim", str(dim), "--budget", "500000"]


def invocations() -> list[list[str]]:
    files = sorted(p.name for p in (ROOT / "corpus").glob("*.ectt"))
    out = [_flags(3) + ["check", f"corpus/{f}"] for f in files]
    for f in files:
        text = (ROOT / "corpus" / f).read_text()
        out += [_flags(3) + ["normalize", f"corpus/{f}", "--def", name]
                for name in re.findall(r"^def\s+(\S+)", text, re.M)]
    lab = [["triangulate", o] for o in ("I1", "I2", "I3", "I1*I1", "I2/S2")]
    lab += [["quotient", f"I{n}", f"S{n}"] for n in (1, 2)]
    lab += [["iso", "--lhs", lhs, "--rhs", rhs] for lhs, rhs in (
        ("T(I2/S2)", "Delta2"), ("T(I1*I1)", "T(I2)"), ("T(I1)", "Delta1"),
        ("T(I2/S2)", "T(I1*I1)"))]
    out += [_flags(3) + ["lab", *args] for args in lab]
    out += [_flags(2) + ["lab", "lift-check", "--map", m, "--nmax", "1",
                         "--kmax", "1"]
            for m in ("horn->1", "I1->1", "1->1", "id(1)", "id(I1)")]
    # Sigma_2 acts at k = 2, an n = 2 case, a quotient, the budget charges
    out += [_flags(3) + ["lab", "lift-check", "--map", m, "--nmax", "1",
                         "--kmax", "2"]
            for m in ("I2/S2->1", "horn->1", "id(I1)")]
    out += [_flags(3) + ["lab", "lift-check", "--map", "1->1", "--nmax", "2",
                         "--kmax", "1"],
            _flags(2) + ["lab", "lift-check", "--map", "id(I2/S2)",
                         "--nmax", "1", "--kmax", "1"],
            _flags(4) + ["lab", "lift-check", "--map", "1->1", "--nmax", "3",
                         "--kmax", "1"]]
    out += [_flags(3) + ["lab", "open-box", "--n", "1", "--k", "1", "--zeta",
                         "b", "--sub", sub]
            for sub in ("empty", "full", "v0", "v1")]
    out += [_flags(3) + ["lab", "ez-factor", "--dom", dom, "--cod", cod,
                         "--table", table]
            for dom, cod, table in (("2", "1", "1"), ("1", "2", "1,1"))]
    out += [_flags(3) + ["check", name] for name in INLINE]
    return out


def _run(args: list[str]) -> dict:
    if args[-1] not in INLINE:
        r = run_cli(*args)
        return {"exit_code": r.exit_code, "stdout": r.stdout}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, args[-1]).write_text(INLINE[args[-1]])
        os.chdir(tmp)
        try:
            r = run_cli(*args)
        finally:
            os.chdir(cwd)
    return {"exit_code": r.exit_code, "stdout": r.stdout}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("args", invocations(),
                         ids=lambda a: " ".join(a[7:]))
def test_golden_output(golden, monkeypatch, args):
    monkeypatch.chdir(ROOT)
    assert _run(args) == golden[" ".join(args)]


@pytest.mark.parametrize("burnt", [9, 99, 999])
def test_golden_outputs_do_not_depend_on_what_ran_before(golden, monkeypatch,
                                                         burnt):
    # every invocation again, in reverse order, each after ``burnt`` fresh
    # names were made
    monkeypatch.chdir(ROOT)
    for args in reversed(invocations()):
        for _ in range(burnt):
            fresh()
        assert _run(args) == golden[" ".join(args)], args


if __name__ == "__main__":
    import os
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps({" ".join(a): _run(a) for a in invocations()},
                                 indent=1, sort_keys=True) + "\n")
