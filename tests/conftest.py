from __future__ import annotations

import contextlib
import io
import os
import pathlib

import pytest
from hypothesis import settings

from eqctt.cli import main
from eqctt.semantics import Context, Env

# every run draws the same examples, so a red tier-1 test stays red
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_files():
    return sorted(p for p in CORPUS.glob("*.ectt")
                  if p.name != "bad-boundary.ectt")


@pytest.fixture(scope="session")
def checked_comps():
    """The comps corpus, checked once per session."""
    from eqctt.parser import parse_module
    from eqctt.typecheck import check_module
    mod = check_module(parse_module((CORPUS / "comps.ectt").read_text()))
    assert mod.report.ok
    return mod


def module_context(mod) -> Context:
    """The top-level checking context of a checked module: no local binder,
    and the module's signature."""
    return Context(env=Env(sig=mod.sig))


def cell(X, d: int, label) -> int:
    """The cell of the finite presheaf X at level d that carries ``label``:
    its position in the level's sorted labels."""
    return list(X.levels[d]).index(label)


class CliResult:
    """What one in-process invocation left: its exit code, its stdout, and
    its stdout followed by its stderr."""
    __slots__ = ("exit_code", "stdout", "output")

    def __init__(self, exit_code: int, stdout: str, output: str):
        self.exit_code, self.stdout, self.output = exit_code, stdout, output


def _set_env(values: dict[str, str | None]) -> None:
    for k, v in values.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v


def run_cli(*args: str, env: dict[str, str | None] | None = None) -> CliResult:
    """Run ``eqctt.cli.main`` on ``args`` in this process, with the variables
    of ``env`` set (or, where None, unset) for the call.  An exception other
    than ``SystemExit`` propagates, so a traceback fails the test."""
    env = env or {}
    saved = {k: os.environ.get(k) for k in env}
    out, err = io.StringIO(), io.StringIO()
    code = 0
    _set_env(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(args))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        _set_env(saved)
    return CliResult(code, out.getvalue(), out.getvalue() + err.getvalue())
