from __future__ import annotations

import pathlib

import pytest
from hypothesis import settings

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


def cell(X, d: int, label) -> int:
    """The cell of the finite presheaf X at level d that carries ``label``:
    its position in the level's sorted labels."""
    return list(X.levels[d]).index(label)
